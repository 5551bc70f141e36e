"""Load generator and SLO reporting for :mod:`repro.serve`.

Drives a :class:`~repro.serve.server.Server` with a mix of single-sample
and batch requests drawn from any :class:`repro.data.DatasetProtocol`
implementation (the generator never reaches into loader internals), and
reports the numbers ``BENCH_serve.json`` is built from: client-observed
latency quantiles (p50/p95/p99), throughput, whether the p95 SLO held,
batch occupancy from the server's own stats, and — when reference models
are supplied — a bitwise comparison of every response against direct
unbatched evaluation under the weight version it was served with.

Two load models are supported (``mode=``):

- ``"closed"`` (default) — a fixed pool of client threads, each issuing
  its next request as soon as the previous one returns. Throughput is
  self-limiting: a slow server slows the clients down.
- ``"open"`` — requests arrive on a Poisson process at ``offered_rps``,
  independent of how fast the server answers: one dispatcher thread
  hands each request to the non-blocking ``Server.submit``/
  ``submit_batch`` at its due time and collects the futures. This is how
  real traffic behaves: latency under an offered rate the server can't
  absorb shows up as queueing, not as a politely throttled client. Each
  request is timed from the moment it was *due*, so a dispatcher that
  falls behind shows up in the latencies of the requests it delayed. A
  refused request (``BackpressureError``) counts as failed and is not
  retried — retrying would hide the overload. The report carries
  ``offered_rps`` and the ``achieved_rps`` the dispatcher actually
  sustained.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.data.protocol import DatasetProtocol
from repro.errors import ServeError
from repro.nn.module import Module
from repro.serve.client import Client
from repro.serve.server import Prediction, Server
from repro.utils.rng import new_rng


@dataclass
class LoadReport:
    """What one load run measured (JSON-safe via :meth:`to_dict`)."""

    requests: int
    samples: int
    duration_s: float
    throughput_rps: float
    throughput_sps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    slo_p95_ms: float
    slo_met: bool
    rejected_retries: int  # server rejections: retried (closed) or failed (open)
    failed_requests: int
    bitwise_checked: int
    bitwise_mismatches: int
    mode: str = "closed"
    offered_rps: float | None = None
    achieved_rps: float | None = None
    server_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def dataset_samples(dataset: DatasetProtocol, limit: int | None = None) -> np.ndarray:
    """Held-out samples drawn through the dataset protocol, stacked."""
    rows = []
    for x, _ in dataset.test_batches(64):
        rows.append(np.asarray(x, dtype=np.float32))
        if limit is not None and sum(r.shape[0] for r in rows) >= limit:
            break
    stacked = np.concatenate(rows)
    return stacked[:limit] if limit is not None else stacked


def run_load(
    server: Server,
    dataset: DatasetProtocol,
    *,
    requests: int = 128,
    concurrency: int = 4,
    batch_fraction: float = 0.0,
    batch_size: int = 8,
    slo_p95_ms: float = 250.0,
    timeout_s: float = 60.0,
    reference_models: dict[int, Module] | None = None,
    seed: int = 0,
    mode: str = "closed",
    offered_rps: float | None = None,
) -> LoadReport:
    """Drive ``server`` under load and measure latency/throughput/SLO.

    In the default closed loop, ``concurrency`` client threads issue
    ``requests`` total requests, each starting its next as the previous
    returns; latency is measured client-side around the blocking call,
    so it includes queueing, batching wait and backpressure retries —
    what a caller experiences. With ``mode="open"``, requests instead
    arrive on a Poisson process at ``offered_rps`` requests/second
    regardless of server speed (``concurrency`` is ignored): one
    dispatcher submits each at its scheduled time without blocking, and
    latency runs from the scheduled time to completion. A rejected open
    request is a failure, never retried. Each request is a batch of
    ``batch_size`` samples with probability ``batch_fraction``, else a
    single sample. Samples come from the dataset's held-out split via
    the protocol.

    ``reference_models`` maps weight version → a model holding exactly
    those weights; every successful response is then re-evaluated alone
    on the matching reference and compared bitwise
    (``np.array_equal``). Responses whose version has no reference are
    skipped, not failed.
    """
    if requests < 1:
        raise ServeError(f"requests must be >= 1, got {requests}")
    if mode not in ("closed", "open"):
        raise ServeError(f"load mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (offered_rps is None or offered_rps <= 0):
        raise ServeError(f"open-loop load needs offered_rps > 0, got {offered_rps}")
    pool = dataset_samples(dataset)
    rng = new_rng(seed)
    # Pre-draw the request plan so worker threads only pop.
    plan: list[np.ndarray] = []
    for _ in range(requests):
        if batch_fraction > 0 and rng.random() < batch_fraction:
            idx = rng.integers(0, pool.shape[0], size=batch_size)
            plan.append(pool[idx])
        else:
            plan.append(pool[int(rng.integers(0, pool.shape[0]))])

    lock = threading.Lock()
    latencies: list[float] = []
    outcomes: list[tuple[np.ndarray, Prediction] | None] = [None] * requests
    failures = [0]
    retries_before = server.stats()["rejected"]
    cursor = [0]

    achieved_rps: float | None = None
    if mode == "open":
        # Poisson arrivals: i.i.d. exponential inter-arrival gaps at the
        # offered rate, submitted at their absolute schedule times so a
        # slow server never throttles the arrival process.
        arrivals = np.cumsum(rng.exponential(1.0 / offered_rps, size=requests))
        done_at: list[float | None] = [None] * requests
        pending = []
        wall_start = time.perf_counter()
        for index in range(requests):
            due = wall_start + float(arrivals[index])
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            x = plan[index]
            try:
                if x.ndim == pool.ndim:  # batch request
                    future = server.submit_batch(x)
                else:
                    future = server.submit(x)
            except ServeError:  # BackpressureError included: not retried
                failures[0] += 1
                continue
            future.add_done_callback(
                lambda _f, i=index: done_at.__setitem__(i, time.perf_counter())
            )
            pending.append((index, due, future))
        dispatch_elapsed = time.perf_counter() - wall_start
        achieved_rps = requests / dispatch_elapsed if dispatch_elapsed > 0 else 0.0
        give_up = time.perf_counter() + timeout_s
        for index, due, future in pending:
            try:
                prediction = future.result(timeout=max(0.0, give_up - time.perf_counter()))
            except (FutureTimeout, ServeError):
                failures[0] += 1
                continue
            # The done callback has run by the time result() returns,
            # except in the instant between set_result and the callback.
            finished = done_at[index] if done_at[index] is not None else time.perf_counter()
            latencies.append(finished - due)
            outcomes[index] = (plan[index], prediction)
    else:
        client = Client(server, retries=64, timeout_s=timeout_s)

        def worker() -> None:
            while True:
                with lock:
                    if cursor[0] >= requests:
                        return
                    index = cursor[0]
                    cursor[0] += 1
                x = plan[index]
                start = time.perf_counter()
                try:
                    if x.ndim == pool.ndim:  # batch request
                        prediction = client.predict_batch(x, timeout_s=timeout_s)
                    else:
                        prediction = client.predict(x, timeout_s=timeout_s)
                except Exception:
                    with lock:
                        failures[0] += 1
                    continue
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                    outcomes[index] = (x, prediction)

        threads = [
            threading.Thread(target=worker, name=f"repro-loadgen-{i}", daemon=True)
            for i in range(max(1, concurrency))
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    duration = time.perf_counter() - wall_start

    checked = mismatches = 0
    if reference_models:
        for outcome in outcomes:
            if outcome is None:
                continue
            x, prediction = outcome
            reference = reference_models.get(prediction.weights_version)
            if reference is None:
                continue
            batch = x if x.ndim == pool.ndim else x[None]
            with no_grad():
                expected = np.concatenate(
                    [reference(Tensor(batch[i : i + 1])).data for i in range(len(batch))]
                )
            got = prediction.logits if prediction.logits.ndim == 2 else prediction.logits[None]
            checked += len(batch)
            if not np.array_equal(expected, got):
                mismatches += 1

    done = [o for o in outcomes if o is not None]
    samples = sum(
        (o[0].shape[0] if o[0].ndim == pool.ndim else 1) for o in done
    )
    lat_ms = np.asarray(sorted(latencies)) * 1e3 if latencies else np.array([0.0])
    p50, p95, p99 = (float(np.percentile(lat_ms, q)) for q in (50, 95, 99))
    stats = server.stats()
    return LoadReport(
        requests=len(done),
        samples=samples,
        duration_s=duration,
        throughput_rps=len(done) / duration if duration > 0 else 0.0,
        throughput_sps=samples / duration if duration > 0 else 0.0,
        latency_p50_ms=p50,
        latency_p95_ms=p95,
        latency_p99_ms=p99,
        slo_p95_ms=slo_p95_ms,
        slo_met=p95 <= slo_p95_ms,
        rejected_retries=stats["rejected"] - retries_before,
        failed_requests=failures[0],
        bitwise_checked=checked,
        bitwise_mismatches=mismatches,
        mode=mode,
        offered_rps=offered_rps,
        achieved_rps=achieved_rps,
        server_stats=stats,
    )
