#!/usr/bin/env python
"""Wall-time benchmarks seeding the perf trajectory.

Times the parallel sweep (``docs/PERFORMANCE.md``) serially and at
``--workers`` workers, plus the weight-stationary kernel-plan cache
(cached vs uncached), and writes the measurements to a JSON file
(default ``BENCH_pr5.json``) for trend tracking across PRs:

- **sweep** — ``run_sweep`` over a multiplier × method grid on a small
  quantized CNN (process pool, one cell per task);
- **eval** — warm ResNet20 (width 0.25, 16x16 inputs) evaluation with
  the exact, truncated5 and evoapprox228 multipliers at batch 16 and 64:
  wall time, minor page faults and the approximate/exact ratios, plus
  truncated5 with the per-layer plan cache on vs off
  (``repro.approx.plan``); outputs are asserted bitwise identical. The
  full run is committed as ``BENCH_eval.json``; ``--baseline`` embeds an
  earlier run of the same bench (e.g. on the parent commit) in it.
- **train** — repeated-batch retraining (forward + backward + SGD step)
  of an approximate MLP and CNN, uncached (``plan_cache_disabled``) and
  with the cached training path (plans plus revalidation/repair across
  optimizer steps); weights and logits are asserted bitwise identical
  across the two.
- **analytic** — closed-form error models vs Monte-Carlo
  characterization over the multiplier registry (``repro.ge.analytic``),
  with per-candidate cross-validation of the two fitted models; the
  full run is committed as ``BENCH_analytic.json``.

``--smoke`` shrinks every workload for CI. The sweep speedup is
hardware-bound: on a single-core runner it is expected to be ~1x or
below (the report records ``cpu_count`` so trends stay interpretable).
The **eval**, **train** and **analytic** speedups are
hardware-independent — the fast paths strictly remove work — so CI gates
on them via ``--require-cached-speedup`` / ``--require-train-speedup`` /
``--require-analytic-speedup``.

Usage::

    PYTHONPATH=src python scripts/bench.py [--smoke] [--workers 4] \
        [--out BENCH_pr5.json] [--require-cached-speedup 1.0] \
        [--require-train-speedup 1.0]
    PYTHONPATH=src python scripts/bench.py --analytic \
        --out BENCH_analytic.json --require-analytic-speedup 10
    PYTHONPATH=src python scripts/bench.py --only eval \
        --baseline parent_eval.json --out BENCH_eval.json
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time

import numpy as np


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _result(name: str, serial_s: float, parallel_s: float, workers: int, **extra) -> dict:
    return {
        "bench": name,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "workers": workers,
        "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
        **extra,
    }


def bench_sweep(workers: int, smoke: bool) -> dict:
    from repro.data import make_synthetic_cifar
    from repro.models import simplecnn
    from repro.pipeline import quantization_stage, run_sweep
    from repro.train import TrainConfig, cross_entropy_loss, train_model

    data = make_synthetic_cifar(
        num_train=128 if smoke else 400,
        num_test=64 if smoke else 200,
        image_size=16,
        seed=7,
    )
    model = simplecnn(base_width=8, rng=0)
    train_model(
        model, data, cross_entropy_loss(),
        TrainConfig(epochs=1 if smoke else 3, batch_size=64, lr=0.05, seed=0),
    )
    quant_model, _ = quantization_stage(
        model, data, train_config=TrainConfig(epochs=1, batch_size=64, lr=0.01, seed=0)
    )
    quant_model.eval()

    multipliers = ["truncated3", "truncated4"] if smoke else [
        "truncated3", "truncated4", "evoapprox29", "evoapprox470"
    ]
    config = TrainConfig(epochs=1, batch_size=64, lr=0.005, grad_clip=1.0, seed=0)

    def sweep(n: int):
        return run_sweep(
            quant_model, data, multipliers,
            methods=("normal",) if smoke else ("normal", "approxkd"),
            train_config=config, workers=n,
        )

    serial_s = _timed(lambda: sweep(1))
    parallel_s = _timed(lambda: sweep(workers))
    return _result(
        "sweep", serial_s, parallel_s, workers,
        cells=len(multipliers) * (1 if smoke else 2),
    )


def bench_eval(workers: int, smoke: bool) -> dict:
    """Warm ResNet20 eval: exact, truncated5 and evoapprox228 at batch 16 and 64.

    ResNet20 at width 0.25 on 16x16 inputs, 512 samples (64 with
    ``--smoke``), every plan built before timing. Each (multiplier, batch)
    cell reports the median wall time and minor page faults
    (``ru_minflt``) over its repeats, which take turns with the other
    cells; ``ratios`` gives each approximate multiplier's time over exact
    at the same batch. The CI gate compares cached against uncached
    (``plan_cache_disabled``) truncated5 eval at batch 16, whose logits
    must be bitwise identical.
    """
    import copy
    import resource

    from repro.approx import get_multiplier, plan_cache_disabled
    from repro.autograd.grad_mode import no_grad
    from repro.autograd.tensor import Tensor
    from repro.models import resnet20
    from repro.quant import calibrate_model, quantize_model
    from repro.sim import attach_multiplier

    samples = 64 if smoke else 512
    repeats = 1 if smoke else 7
    batches = (16, 64)
    names = ("exact", "truncated5", "evoapprox228")
    rng = np.random.default_rng(0)
    base = quantize_model(resnet20(width_mult=0.25, rng=0))
    calibrate_model(base, [rng.normal(size=(32, 3, 16, 16)).astype(np.float32)])
    x = rng.normal(size=(samples, 3, 16, 16)).astype(np.float32)
    # One model per multiplier, so every plan stays warm while the cells
    # take turns: each repeat times every cell once, which spreads drift
    # in machine load evenly over the cells.
    models = {}
    for name in names:
        models[name] = copy.deepcopy(base).eval()
        attach_multiplier(models[name], get_multiplier(name))

    def run(model, batch: int) -> np.ndarray:
        with no_grad():
            return np.concatenate(
                [model(Tensor(x[i : i + batch])).data for i in range(0, samples, batch)]
            )

    def minflt() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    keys = [(name, batch) for name in names for batch in batches]
    times = {key: [] for key in keys}
    faults = {key: [] for key in keys}
    for name, batch in keys:
        run(models[name], batch)  # builds the plans and warms the LUT caches
    for _ in range(repeats):
        for name, batch in keys:
            before = minflt()
            times[name, batch].append(_timed(lambda: run(models[name], batch)))
            faults[name, batch].append(minflt() - before)
    cells = [
        {
            "multiplier": name,
            "batch_size": batch,
            "eval_s": round(float(np.median(times[name, batch])), 4),
            "minflt": int(np.median(faults[name, batch])),
        }
        for name, batch in keys
    ]
    eval_s = {(c["multiplier"], c["batch_size"]): c["eval_s"] for c in cells}
    ratios = {
        f"{name}/exact@{batch}": round(eval_s[name, batch] / eval_s["exact", batch], 3)
        for name in ("truncated5", "evoapprox228")
        for batch in batches
    }

    model = models["truncated5"]
    cached_out = run(model, batches[0])
    cached_s = eval_s["truncated5", batches[0]]
    with plan_cache_disabled():
        reference = run(model, batches[0])
        uncached_s = _timed(lambda: run(model, batches[0]))
    if not np.array_equal(cached_out, reference):
        raise AssertionError("cached eval is not bitwise identical to uncached")
    return {
        "bench": "eval",
        "model": "resnet20(width_mult=0.25), 16x16",
        "samples": samples,
        "repeats": repeats,
        "cells": cells,
        "ratios": ratios,
        "uncached_s": round(uncached_s, 4),
        "cached_s": cached_s,
        "speedup": round(uncached_s / cached_s, 3) if cached_s > 0 else None,
        "bitwise_identical": True,
    }


def bench_train(workers: int, smoke: bool) -> dict:
    """Repeated-batch retraining: the cached training path vs uncached.

    Two configurations train the same model from the same initial state
    on the same batches:

    - **uncached** — ``plan_cache_disabled()``, the reference GEMM;
    - **cached** — the training path: weight-stationary plans, kept
      across optimizer steps by code-level revalidation and repaired in
      place when a few codes change.

    ``speedup`` is uncached over cached time, for the MLP and (under
    ``conv``) the CNN. Final weights and logits must be bitwise identical.
    """
    from contextlib import nullcontext

    from repro.approx import get_multiplier, plan_cache_disabled
    from repro.autograd.tensor import Tensor
    from repro.ge.error_model import PiecewiseLinearErrorModel
    from repro.quant import QuantConv2d, QuantLinear
    from repro.train import SGD

    mult = get_multiplier("truncated4")
    # Non-constant error model so gradient estimation runs its exact GEMM
    # alongside every approximate one (the paper's GE training mode).
    error_model = PiecewiseLinearErrorModel(0.01, 0.0, -4.0, 4.0)
    dims = [512, 1024, 10]
    batch = 32 if smoke else 128
    steps = 8 if smoke else 20
    reps = 2 if smoke else 5
    lr = 1e-3

    def build_mlp():
        rng = np.random.default_rng(0)
        layers = []
        for din, dout in zip(dims[:-1], dims[1:]):
            layer = QuantLinear(din, dout, rng=rng)
            layer.act_step, layer.weight_step = 1 / 16, 1 / 8
            layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
            layer.set_multiplier(mult, error_model)
            layers.append(layer)
        return layers

    def build_conv():
        rng = np.random.default_rng(1)
        layers = [
            QuantConv2d(8, 16, 3, padding=1, rng=rng),
            QuantConv2d(16, 16, 3, stride=2, padding=1, rng=rng),
        ]
        for layer in layers:
            layer.act_step, layer.weight_step = 1 / 16, 1 / 8
            layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
            layer.set_multiplier(mult)
        return layers

    rng = np.random.default_rng(42)
    mlp_xs = [rng.normal(size=(batch, dims[0])).astype(np.float32) for _ in range(steps)]
    mlp_gs = [
        (rng.normal(size=(batch, dims[-1])) * 1e-3).astype(np.float32)
        for _ in range(steps)
    ]
    conv_batch = max(4, batch // 4)
    conv_xs = [
        rng.normal(size=(conv_batch, 8, 12, 12)).astype(np.float32)
        for _ in range(steps)
    ]
    conv_gs = [
        (rng.normal(size=(conv_batch, 16, 6, 6)) * 1e-3).astype(np.float32)
        for _ in range(steps)
    ]

    def train(layers, xs, gs):
        opt = SGD([p for layer in layers for p in layer.parameters()], lr=lr)
        for xb, gb in zip(xs, gs):
            opt.zero_grad()
            h = Tensor(xb)
            for layer in layers:
                h = layer(h)
            h.backward(gb)
            opt.step()

    contexts = {"uncached": plan_cache_disabled, "cached": nullcontext}

    def measure(build, xs, gs):
        # The modes take turns within each repeat, so drift in machine load
        # spreads evenly over both; each mode keeps its best repeat.
        times = {mode: float("inf") for mode in contexts}
        trained = {}
        for _ in range(reps):
            for mode, ctx in contexts.items():
                layers = trained[mode] = build()
                with ctx():
                    times[mode] = min(times[mode], _timed(lambda: train(layers, xs, gs)))
        finals = {}
        for mode, ctx in contexts.items():
            layers = trained[mode]
            with ctx():
                h = Tensor(xs[0])
                for layer in layers:
                    h = layer(h)
            finals[mode] = ([layer.weight.data.copy() for layer in layers], h.data.copy())
        ws_ref, logits_ref = finals["uncached"]
        ws, logits = finals["cached"]
        if len(ws) != len(ws_ref) or not all(
            np.array_equal(a, b) for a, b in zip(ws, ws_ref)
        ):
            raise AssertionError("cached training run diverged from the uncached weights")
        if not np.array_equal(logits, logits_ref):
            raise AssertionError("cached training run diverged from the uncached logits")
        return times

    # warm the multiplier LUT caches out of every timed region
    warm = build_mlp()
    with plan_cache_disabled():
        train(warm, mlp_xs[:1], mlp_gs[:1])
    mlp_t = measure(build_mlp, mlp_xs, mlp_gs)
    warm = build_conv()
    with plan_cache_disabled():
        train(warm, conv_xs[:1], conv_gs[:1])
    conv_t = measure(build_conv, conv_xs, conv_gs)

    def ratio(num, den):
        return round(num / den, 3) if den > 0 else None

    return {
        "bench": "train",
        "uncached_s": round(mlp_t["uncached"], 4),
        "cached_s": round(mlp_t["cached"], 4),
        "speedup": ratio(mlp_t["uncached"], mlp_t["cached"]),
        "steps": steps,
        "batch_size": batch,
        "layer_dims": dims,
        "bitwise_identical": True,
        "conv": {
            "uncached_s": round(conv_t["uncached"], 4),
            "cached_s": round(conv_t["cached"], 4),
            "speedup": ratio(conv_t["uncached"], conv_t["cached"]),
            "batch_size": conv_batch,
            "bitwise_identical": True,
        },
    }


def bench_analytic(workers: int, smoke: bool) -> dict:
    """Closed-form analytic error models vs Monte-Carlo characterization.

    Times both engines over the multiplier registry on identical model
    settings — the paper's 50-simulation sampling protocol against the
    O(LUT) closed form (``docs/PERFORMANCE.md``) — and cross-validates the
    two fitted models per candidate. Likewise hardware-independent: the
    analytic engine strictly removes the sampled-GEMM work, so the ratio
    is gateable in CI via ``--require-analytic-speedup``. Also times
    moments-only zoo ranking of the same candidates (``repro zoo``).
    """
    from repro.approx import available_multipliers, get_multiplier
    from repro.ge import cross_validate, rank_multipliers
    from repro.ge.analytic import analytic_error_model
    from repro.ge.montecarlo import montecarlo_error_model

    names = available_multipliers()
    if smoke:
        names = names[:5]
    sims = 50  # the paper's characterization protocol
    # First call builds the shared operand priors and the first LUT out of
    # the timed region (every later candidate still pays its own LUT).
    analytic_error_model(get_multiplier(names[0]))

    candidates = []
    mc_total = analytic_total = 0.0
    for name in names:
        mult = get_multiplier(name)
        analytic_error_model(mult)  # warm this candidate's LUT for both engines
        analytic_s = min(_timed(lambda: analytic_error_model(mult)) for _ in range(3))
        mc_s = _timed(
            lambda: montecarlo_error_model(mult, num_simulations=sims, rng=0)
        )
        validation = cross_validate(mult, num_simulations=sims, rng=0)
        mc_total += mc_s
        analytic_total += analytic_s
        candidates.append({
            "name": name,
            "analytic_s": round(analytic_s, 5),
            "montecarlo_s": round(mc_s, 5),
            "speedup": round(mc_s / analytic_s, 2) if analytic_s > 0 else None,
            "normalized_disagreement": round(validation.normalized_disagreement, 4),
            "agrees": validation.agrees(),
        })

    zoo_s = _timed(lambda: rank_multipliers(names))
    per_candidate = sorted(c["speedup"] for c in candidates)
    return {
        "bench": "analytic",
        "simulations": sims,
        "candidates": candidates,
        "montecarlo_total_s": round(mc_total, 4),
        "analytic_total_s": round(analytic_total, 4),
        "speedup": round(mc_total / analytic_total, 2) if analytic_total > 0 else None,
        "median_candidate_speedup": per_candidate[len(per_candidate) // 2],
        "min_candidate_speedup": per_candidate[0],
        "all_agree": all(c["agrees"] for c in candidates),
        "zoo_rank_s": round(zoo_s, 4),
    }


BENCHES = {
    "sweep": bench_sweep,
    "eval": bench_eval,
    "train": bench_train,
    "analytic": bench_analytic,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pr5.json", help="output JSON path")
    parser.add_argument("--workers", type=int, default=4, help="parallel worker count")
    parser.add_argument("--smoke", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--only", choices=sorted(BENCHES), action="append",
        help="run a subset (repeatable; default: all)",
    )
    parser.add_argument(
        "--analytic", action="store_true",
        help="shorthand for --only analytic (the closed-form-vs-Monte-Carlo "
             "characterization bench behind BENCH_analytic.json)",
    )
    parser.add_argument(
        "--require-cached-speedup", type=float, default=None, metavar="MIN",
        help="exit nonzero unless the eval bench's cached-vs-uncached "
             "speedup is at least MIN (CI regression gate)",
    )
    parser.add_argument(
        "--require-train-speedup", type=float, default=None, metavar="MIN",
        help="exit nonzero unless the train bench's cached-vs-uncached "
             "speedup is at least MIN for both the MLP and the CNN (CI "
             "regression gate)",
    )
    parser.add_argument(
        "--require-analytic-speedup", type=float, default=None, metavar="MIN",
        help="exit nonzero unless the analytic bench's median per-candidate "
             "analytic-vs-Monte-Carlo speedup is at least MIN and every "
             "candidate's models cross-validate (CI regression gate)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="embed an earlier bench JSON (same benches, e.g. run on the "
             "parent commit) under the output's 'baseline' key",
    )
    args = parser.parse_args(argv)
    if args.analytic:
        args.only = (args.only or []) + ["analytic"]

    from repro.utils.serialization import load_results, save_results

    results = []
    for name in args.only or sorted(BENCHES):
        print(f"bench: {name} (workers={args.workers})", flush=True)
        entry = BENCHES[name](args.workers, args.smoke)
        if name == "eval":
            for cell in entry["cells"]:
                print(
                    f"  {cell['multiplier']:>12} batch {cell['batch_size']:>2}"
                    f"  {cell['eval_s'] * 1e3:7.1f} ms  {cell['minflt']:>7} minor faults",
                    flush=True,
                )
            print(
                "  " + "  ".join(f"{k} {v}x" for k, v in entry["ratios"].items()),
                flush=True,
            )
            print(
                f"  truncated5 uncached {entry['uncached_s']:.2f}s  cached "
                f"{entry['cached_s']:.2f}s  speedup {entry['speedup']}x",
                flush=True,
            )
        elif name == "train":
            conv = entry["conv"]
            print(
                f"  mlp uncached {entry['uncached_s']:.2f}s  cached "
                f"{entry['cached_s']:.2f}s  speedup {entry['speedup']}x\n"
                f"  conv uncached {conv['uncached_s']:.2f}s  cached "
                f"{conv['cached_s']:.2f}s  speedup {conv['speedup']}x",
                flush=True,
            )
        elif name == "analytic":
            print(
                f"  montecarlo {entry['montecarlo_total_s']:.3f}s  analytic "
                f"{entry['analytic_total_s']:.3f}s over {len(entry['candidates'])} "
                f"candidates  speedup {entry['speedup']}x (median per-candidate "
                f"{entry['median_candidate_speedup']}x), zoo rank "
                f"{entry['zoo_rank_s'] * 1e3:.1f}ms, "
                f"all_agree={entry['all_agree']}",
                flush=True,
            )
        else:
            print(
                f"  serial {entry['serial_s']:.2f}s  parallel {entry['parallel_s']:.2f}s"
                f"  speedup {entry['speedup']}x",
                flush=True,
            )
        results.append(entry)

    from repro.obs.runmeta import provenance

    payload = {
        "meta": {
            "workers": args.workers,
            "smoke": args.smoke,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {
                k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "provenance": provenance(),
        },
        "results": results,
    }
    if args.baseline:
        payload["baseline"] = load_results(args.baseline)
    save_results(payload, args.out)
    print(f"wrote {args.out}")

    if args.require_cached_speedup is not None:
        evals = [r for r in results if r["bench"] == "eval"]
        if not evals:
            print("error: --require-cached-speedup needs the eval bench to run")
            return 1
        speedup = evals[0]["speedup"] or 0.0
        if speedup < args.require_cached_speedup:
            print(
                f"error: cached eval speedup {speedup}x is below the required "
                f"{args.require_cached_speedup}x"
            )
            return 1
        print(
            f"cached eval speedup {speedup}x meets the required "
            f"{args.require_cached_speedup}x"
        )

    if args.require_train_speedup is not None:
        trains = [r for r in results if r["bench"] == "train"]
        if not trains:
            print("error: --require-train-speedup needs the train bench to run")
            return 1
        entry = trains[0]
        # Cached vs uncached training: the gate catches a cached training
        # path that has become slower than the reference it must equal.
        for label, value in (("mlp", entry["speedup"]), ("conv", entry["conv"]["speedup"])):
            if (value or 0.0) < args.require_train_speedup:
                print(
                    f"error: {label} train speedup {value}x is below the required "
                    f"{args.require_train_speedup}x"
                )
                return 1
        print(
            f"train speedup {entry['speedup']}x (mlp), "
            f"{entry['conv']['speedup']}x (conv) meets the required "
            f"{args.require_train_speedup}x"
        )

    if args.require_analytic_speedup is not None:
        analytics = [r for r in results if r["bench"] == "analytic"]
        if not analytics:
            print("error: --require-analytic-speedup needs the analytic bench to run")
            return 1
        entry = analytics[0]
        # The median per-candidate ratio is gated (robust to one noisy
        # cell on a loaded runner); the total and minimum are reported.
        value = entry["median_candidate_speedup"] or 0.0
        if value < args.require_analytic_speedup:
            print(
                f"error: analytic median per-candidate speedup {value}x is below "
                f"the required {args.require_analytic_speedup}x"
            )
            return 1
        if not entry["all_agree"]:
            bad = [c["name"] for c in entry["candidates"] if not c["agrees"]]
            print(f"error: analytic model disagrees with Monte-Carlo for: {bad}")
            return 1
        print(
            f"analytic median per-candidate speedup {value}x meets the required "
            f"{args.require_analytic_speedup}x (total {entry['speedup']}x, "
            f"min {entry['min_candidate_speedup']}x), all models cross-validate"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
