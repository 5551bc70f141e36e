"""The workloads: set-up, the timed phase and the checks on the outputs.

Every workload runs the paper's model: ResNet20 at width 0.25 on 16x16
synthetic CIFAR, pre-trained in floating point, then quantized to 8A4W
by Algorithm 1's first stage. The seed fixes the data, the initial
weights and every schedule, so one seed always gives the same inputs.

- ``algo1`` times Algorithm 1 itself: the quantization stage, then the
  ApproxKD+GE approximation stage once with ``truncated5`` (a sloped
  error model, so GE runs its exact GEMM) and once with ``evoapprox228``
  (a constant error model, so GE falls back to the STE). The pass is
  repeated; every pass does the same work on the same inputs.
- ``serve-open`` drives ``repro.serve`` with single-sample requests on a
  Poisson schedule at fixed rates, swapping weights mid-rung, and drains
  bursts on one server per multiplier to measure warm inference
  throughput (every plan cache filled, so the kernels dominate).

Both workloads report the same end-to-end metrics, read on their own
path: ``sps.trunc5`` and ``sps.evo228`` are training samples/s inside
``train_model`` (``algo1``) or the rate at which a server drains a burst
(``serve-open``); ``p50_ms`` is the median latency of one ``truncated5``
training iteration, or of one request timed from its due time at the
high rung. Every timing is a median over
many samples spread across the run: the machines this runs on have slow
spells of a few seconds, and a median over one short stretch moves by
30% with them.

Two figures are in each workload's detail, not among the end-to-end
metrics, because they move from run to run by more than any bound
allows. Tail latencies (the highest percentile with ten samples beyond
it): the p99 of a rung is set by one or two clusters of Poisson arrivals
and moves by 30-50% from seed to seed. ``sps.exact`` (the quantization
stage's training rate; the exact server's burst drain rate): the exact
path does least work per Python call, so it amplifies the machine's slow
spells, and its serve-open figure spread 0.34 over ten seeds.

``serve-open`` pre-trains for a single epoch and quantizes with a single
epoch: its timings do not depend on how well the model classifies, and
the set-up runs three times per run. ``algo1`` needs a model good enough
that fine-tuning recovers from ``truncated5``, so it pre-trains for
``PRETRAIN_EPOCHS``.
"""

from __future__ import annotations

import copy
import statistics
import time

import numpy as np

from perfbench.openloop import poisson_schedule, run_rung
from perfbench.stats import growing_backlog, summarize
from perfbench.tracer import multiplier_label

NUM_TRAIN, NUM_TEST, IMAGE_SIZE, NOISE, WIDTH = 480, 200, 16, 0.4, 0.25
PRETRAIN_EPOCHS = 5  # algo1; reaches 0.6-0.9 top-1 in floating point
WARM_PRETRAIN_EPOCHS = WARM_QUANT_EPOCHS = 1  # serve-open
CHANCE = 0.1
ABOVE_CHANCE = ("exact", "evo228")  # labels whose fine-tuned top-1 must beat chance
MULTIPLIERS = (None, "truncated5", "evoapprox228")

ALGO1_PASS_S = 10.0  # nominal length of one Algorithm 1 pass; sets the pass count
CHECK_SAMPLES = 64  # test samples whose logits are checked after a pass
LOGIT_BATCH = 128

# Serving: the ladder is fixed in absolute rates; LOW and HIGH sit near a
# third and two thirds of the open-loop capacity of one replica (about
# 320 req/s on two cores), the top rung just under it. The rungs share
# LADDER_SHARE of the run; each gets at least MIN_REQUESTS_PER_RUNG.
SERVE_MAX_BATCH, SERVE_DEADLINE_MS, SERVE_QUEUE_DEPTH = 16, 5.0, 256
LOW_RPS, HIGH_RPS = 110.0, 220.0
LADDER_RPS = (LOW_RPS, HIGH_RPS, 300.0)
LADDER_SHARE, MIN_REQUESTS_PER_RUNG = 0.55, 1000
P99_LIMIT_MS = 50.0
BURST, ROUNDS_PER_GAP = 256, 3  # burst rounds before, between and after rungs
SERVE_POOL = 64  # distinct samples requests are drawn from


class Ops:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what}: {failed}/{attempted} failed")


def mismatched_rows(got: np.ndarray, reference: np.ndarray) -> int:
    """Rows of ``got`` that are not bit-for-bit equal to ``reference``."""
    if got.shape != reference.shape or got.dtype != reference.dtype:
        return len(reference)
    a = np.ascontiguousarray(got).view(np.uint8).reshape(len(got), -1)
    b = np.ascontiguousarray(reference).view(np.uint8).reshape(len(reference), -1)
    return int((a != b).any(axis=1).sum())


def check_logits(ops: Ops, what: str, got: np.ndarray, reference: np.ndarray) -> bool:
    """One operation: ``got`` must equal ``reference`` bit for bit."""
    bad = mismatched_rows(got, reference)
    return ops.record(bad == 0, f"{what}: {bad} logit rows differ from the reference")


class StepClock:
    """Times each training iteration from ``zero_grad`` to the end of ``step``.

    Two timestamps per iteration are all it adds, so it stays on in the
    untraced runs, where it gives the per-iteration latency.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._started = 0.0

    def __enter__(self) -> "StepClock":
        from repro.train.optim import SGD

        self._cls = SGD
        self._saved = {name: SGD.__dict__.get(name) for name in ("zero_grad", "step")}
        zero_grad, step = SGD.zero_grad, SGD.step
        clock = self

        def timed_zero_grad(opt):
            clock._started = time.perf_counter()
            return zero_grad(opt)

        def timed_step(opt):
            out = step(opt)
            clock.durations.append(time.perf_counter() - clock._started)
            return out

        SGD.zero_grad, SGD.step = timed_zero_grad, timed_step
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._saved.items():
            if original is None:
                delattr(self._cls, name)
            else:
                setattr(self._cls, name, original)


# -- shared set-up ---------------------------------------------------------------
def _config(seed: int, epochs: int, batch_size: int, lr: float, **kwargs):
    from repro.train import TrainConfig

    return TrainConfig(
        epochs=epochs, batch_size=batch_size, lr=lr, eval_every=epochs, seed=seed, **kwargs
    )


def _pretrained(seed: int, epochs: int):
    """Synthetic CIFAR and a ResNet20 trained on it in floating point."""
    from repro.data import make_synthetic_cifar
    from repro.models import resnet20
    from repro.train import cross_entropy_loss, train_model

    data = make_synthetic_cifar(
        num_train=NUM_TRAIN, num_test=NUM_TEST, image_size=IMAGE_SIZE, noise=NOISE, seed=seed
    )
    model = resnet20(width_mult=WIDTH, rng=seed)
    config = _config(seed, epochs, 48, 0.05, lr_decay_every=max(1, epochs - 2))
    train_model(model, data, cross_entropy_loss(), config)
    return data, model


def _quantized(seed: int):
    """The set-up of ``serve-open``: a briefly trained 8A4W model."""
    from repro.pipeline import quantization_stage

    data, fp = _pretrained(seed, WARM_PRETRAIN_EPOCHS)
    quant, _ = quantization_stage(
        fp, data, train_config=_config(seed, WARM_QUANT_EPOCHS, 48, 1e-3)
    )
    return data, quant.eval()


def _with_multiplier(model, multiplier):
    from repro.sim import attach_multiplier

    copy_ = copy.deepcopy(model).eval()
    attach_multiplier(copy_, multiplier)
    return copy_


def forward_logits(model, x: np.ndarray, batch: int = LOGIT_BATCH) -> np.ndarray:
    from repro.autograd.grad_mode import no_grad
    from repro.autograd.tensor import Tensor

    model.eval()
    with no_grad():
        return np.concatenate(
            [model(Tensor(x[i : i + batch])).data for i in range(0, len(x), batch)]
        )


def reference_logits(model, x: np.ndarray, batch: int = LOGIT_BATCH) -> np.ndarray:
    """Logits on the uncached reference path."""
    from repro.approx.plan import plan_cache_disabled

    with plan_cache_disabled():
        return forward_logits(model, x, batch)


# -- algo1 ---------------------------------------------------------------------------
class Algo1:
    name = "algo1"

    def setup(self, seed: int) -> dict:
        data, fp = _pretrained(seed, PRETRAIN_EPOCHS)
        return {"seed": seed, "data": data, "fp": fp}

    def timed(self, ctx: dict, seconds: float, ops: Ops, tracer=None) -> dict:
        from repro.pipeline import approximation_stage, quantization_stage

        seed, data, fp = ctx["seed"], ctx["data"], ctx["fp"]
        quant_config = _config(seed, 2, 48, 1e-3)
        approx_config = _config(seed, 2, 16, 1e-3)
        batch = {"exact": quant_config.batch_size}
        step_s = {label: [] for label in ("exact", "trunc5", "evo228")}
        pass_s, top1, first_top1 = [], {}, None
        for _ in range(max(1, round(seconds / ALGO1_PASS_S))):
            finals = {}
            with StepClock() as clock:
                started = time.perf_counter()
                quant, qres = quantization_stage(fp, data, train_config=quant_config)
                step_s["exact"] += clock.durations
                top1["exact"] = qres.accuracy_after
                for multiplier in MULTIPLIERS[1:]:
                    label = multiplier_label(multiplier)
                    batch[label] = approx_config.batch_size
                    clock.durations = []
                    finals[label], result = approximation_stage(
                        quant, data, multiplier, method="approxkd_ge",
                        train_config=approx_config, rng=seed,
                    )
                    step_s[label] += clock.durations
                    top1[label] = result.accuracy_after
                pass_s.append(time.perf_counter() - started)
            # truncated5 does not always recover from chance within two
            # epochs (some seeds stay at 0.100), so its accuracy is checked
            # for reproducibility only, like every other label's.
            for label in ABOVE_CHANCE:
                acc = top1[label]
                ops.record(acc > CHANCE, f"{label} top-1 {acc:.3f} is not above chance")
            first_top1 = first_top1 or dict(top1)
            ops.record(top1 == first_top1, f"top-1 {top1} differs from the first pass {first_top1}")
            x = data.test_x[:CHECK_SAMPLES]
            for label, model in finals.items():
                check_logits(ops, label, forward_logits(model, x), reference_logits(model, x))
        # Every batch divides the training set, so each iteration is one batch.
        sps = {label: batch[label] / statistics.median(d) for label, d in step_s.items()}
        iteration = summarize([s * 1e3 for s in step_s["trunc5"]])
        return {
            "e2e": {"sps.trunc5": sps["trunc5"], "sps.evo228": sps["evo228"],
                    "p50_ms": iteration["p50"]},
            "wall_s": sum(pass_s),
            "passes": len(pass_s),
            "detail": {
                "passes": len(pass_s),
                "sps.exact": sps["exact"],
                "algo1_s": statistics.median(pass_s),
                "top1": top1,
                "iteration_ms.trunc5": iteration,
            },
        }

    def close(self, ctx: dict) -> None:
        pass


# -- serve-open --------------------------------------------------------------------------
def _perturbed(arrays: dict, rng: np.random.Generator) -> dict:
    """A second weight set of the same architecture: every weight jittered."""
    out = {}
    for key, value in arrays.items():
        if key.endswith(".weight") and value.ndim >= 2:
            value = value * rng.normal(1.0, 0.1, size=value.shape).astype(value.dtype)
        out[key] = value
    return out


class ServeOpen:
    name = "serve-open"

    def setup(self, seed: int) -> dict:
        from repro.serve import ServeConfig, Server
        from repro.utils.serialization import load_model_arrays, model_state_arrays

        data, quant = _quantized(seed)
        rng = np.random.default_rng(seed)
        pool = data.test_x[rng.integers(0, NUM_TEST, SERVE_POOL)]
        config = ServeConfig(
            replicas=1, max_batch=SERVE_MAX_BATCH, deadline_ms=SERVE_DEADLINE_MS,
            queue_depth=SERVE_QUEUE_DEPTH,
        )
        models = {multiplier_label(m): _with_multiplier(quant, m) for m in MULTIPLIERS}
        weights = [model_state_arrays(models["trunc5"])]
        weights.append(_perturbed(weights[0], rng))
        second = copy.deepcopy(models["trunc5"])
        load_model_arrays(second, weights[1], context="second weight set")
        # Single-sample references, indexed [label][weight set][sample]:
        # both weight sets the ladder swaps between, one set per burst model.
        refs = {
            "trunc5": [reference_logits(models["trunc5"], pool, 1), reference_logits(second, pool, 1)],
            "exact": [reference_logits(models["exact"], pool, 1)],
            "evo228": [reference_logits(models["evo228"], pool, 1)],
        }
        servers = {}
        try:
            for label, model in models.items():
                servers[label] = Server(model, config).start(warm=pool[:SERVE_MAX_BATCH])
        except BaseException:
            for server in servers.values():
                server.stop()
            raise
        return {"seed": seed, "pool": pool, "refs": refs, "weights": weights, "servers": servers}

    def timed(self, ctx: dict, seconds: float, ops: Ops, tracer=None) -> dict:
        pool, refs, weights, servers = ctx["pool"], ctx["refs"], ctx["weights"], ctx["servers"]
        rng = np.random.default_rng(ctx["seed"] + 1)
        sleep = tracer.wrap("bench.gen_idle", time.sleep) if tracer is not None else time.sleep

        def checker(label, picks):
            def check(i, prediction):
                sets = refs[label]
                expected = sets[prediction.weights_version % len(sets)][picks[i]]
                return mismatched_rows(prediction.logits[None], expected[None]) == 0

            return check

        rates = {label: [] for label in servers}

        def burst_rounds():
            """Drain BURST requests on each server, ROUNDS_PER_GAP times."""
            for _ in range(ROUNDS_PER_GAP):
                for label, burst_server in servers.items():
                    if tracer is not None:
                        tracer.phase = label
                    picks = rng.integers(0, SERVE_POOL, BURST)
                    burst = run_rung(
                        burst_server, pool[picks], np.zeros(BURST),
                        check=checker(label, picks), sleep=sleep,
                    )
                    ops.add(burst.attempted, burst.failed, f"{label} burst")
                    rates[label].append(BURST / max(burst.latencies_s or [float("inf")]))
            if tracer is not None:
                tracer.phase = "trunc5"

        started = time.perf_counter()
        server = servers["trunc5"]
        rungs, server_ms, gen_lag_ms, depth_max = [], [], [], 0
        counters = dict.fromkeys(("batches", "served_samples", "rejected"), 0)
        per_rung = max(
            MIN_REQUESTS_PER_RUNG, round(LADDER_SHARE * seconds / sum(1 / r for r in LADDER_RPS))
        )
        # Bursts go before, between and after the rungs, so the throughput
        # medians sample the whole run rather than its first seconds.
        for rate in LADDER_RPS:
            burst_rounds()
            picks = rng.integers(0, SERVE_POOL, per_rung)
            swap_to = weights[(server.weights_version + 1) % len(weights)]
            before = server.stats()
            rung = run_rung(
                server,
                pool[picks],
                poisson_schedule(rate, per_rung, rng),
                check=checker("trunc5", picks),
                on_midpoint=lambda w=swap_to: server.swap_weights(w),
                queue_depth=(lambda: server.stats()["queue_depth"]) if tracer is not None else None,
                sleep=sleep,
            )
            after = server.stats()
            for key in counters:
                counters[key] += after[key] - before[key]
            ops.add(rung.attempted, rung.failed, f"rung {rate:g}/s")
            latency = summarize([s * 1e3 for s in rung.latencies_s])
            backlog = growing_backlog(rung.latencies_s, P99_LIMIT_MS / 1e3)
            rungs.append({
                "rate": rate, "attempted": rung.attempted, "failed": rung.failed,
                "latency_ms": latency, "backlog": backlog,
                "meets": rung.failed == 0 and not backlog and latency["tail"] <= P99_LIMIT_MS,
            })
            server_ms += [s * 1e3 for s in rung.server_latencies_s]
            gen_lag_ms += [s * 1e3 for s in rung.gen_lag_s]
            depth_max = max(depth_max, rung.queue_depth_max)
        burst_rounds()
        wall_s = time.perf_counter() - started
        if tracer is not None:
            tracer.phase = None
        sps = {label: statistics.median(r) for label, r in rates.items()}
        batches = counters["batches"]
        by_rate = {r["rate"]: r["latency_ms"] for r in rungs}
        low, high = by_rate[LOW_RPS], by_rate[HIGH_RPS]
        return {
            "e2e": {"sps.trunc5": sps["trunc5"], "sps.evo228": sps["evo228"],
                    "p50_ms": high["p50"]},
            "wall_s": wall_s,
            "passes": 1,
            "serve": {
                "server_ms": server_ms,
                "gen_lag_ms": gen_lag_ms,
                "batch_size_mean": counters["served_samples"] / batches if batches else 0.0,
                "batches": batches,
                "rejected": counters["rejected"],
                "queue_depth_max": depth_max,
            },
            "detail": {
                "sps.exact": sps["exact"],
                "serve_p50_ms.low": low["p50"], "serve_p99_ms.low": low["tail"],
                "serve_p50_ms.high": high["p50"], "serve_p99_ms.high": high["tail"],
                "serve_max_rps": max((r["rate"] for r in rungs if r["meets"]), default=0.0),
                "p99_limit_ms": P99_LIMIT_MS,
                "rungs": rungs,
            },
        }

    def close(self, ctx: dict) -> None:
        for server in ctx["servers"].values():
            server.stop()


WORKLOADS = {w.name: w for w in (Algo1(), ServeOpen())}
