#!/usr/bin/env python
"""Observability smoke gate: overhead budget, trace validity, quantiles.

Exercises the tracing + metrics subsystems end to end and fails loudly
when any acceptance property regresses:

1. **Overhead** — a representative eval workload is timed with all
   observability off and again with span recording + ``--profile`` span
   aggregation + metrics + event logging enabled. Interleaved min-of-N
   timing; the instrumented run must stay within the 5% budget (plus a
   small constant for sub-second runs).
2. **Trace validity** — a run that fans Monte-Carlo error fitting out to
   a two-process pool must export a Chrome ``trace_event`` JSON whose
   spans cover >= 2 worker pids, every ``parallel.task`` span parents
   onto the dispatching span, and every parent_id resolves within the
   trace. The same run aggregates spans as ``--profile`` does; the
   workers' ``parallel.task`` rows must be merged into the parent's
   profile.
3. **Quantile bound** — per-batch eval latencies are recorded both into
   a plain Python list and the streaming histogram; the histogram's
   p50/p95/p99 must match ``numpy.quantile(..., method="inverted_cdf")``
   within the documented ``QUANTILE_REL_ERROR``.

Artifacts (Chrome trace, metrics JSONL event log, summary JSON) land in
``--out-dir`` for CI upload.

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py [--out-dir obs_artifacts]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.approx import get_multiplier
from repro.data import make_synthetic_cifar
from repro.data.dataloader import iterate_batches
from repro.ge import estimate_error_model
from repro.models import create_model
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import fork_available, map_workers
from repro.quant import calibrate_model, quantize_model
from repro.sim import attach_multiplier, evaluate_accuracy

OVERHEAD_BUDGET = 0.05  # the documented 5% ceiling
OVERHEAD_SLACK_S = 0.05  # absolute grace for sub-second workloads
ROUNDS = 3


def _workload():
    """A small quantized model + data, evaluated repeatedly."""
    data = make_synthetic_cifar(num_train=96, num_test=192, image_size=12, seed=3)
    model = create_model("simplecnn", rng=0)
    quantize_model(model)
    calibrate_model(
        model,
        iterate_batches(data.train_x, data.train_y, 32, shuffle=False),
        max_batches=2,
    )
    attach_multiplier(model, "truncated4")
    return model, data


def _run_eval(model, data, repeats: int = 2) -> float:
    for _ in range(repeats):
        acc = evaluate_accuracy(model, data.test_x, data.test_y, batch_size=32)
    return acc


def check_overhead(out_dir: Path) -> dict:
    model, data = _workload()
    _run_eval(model, data, repeats=1)  # warm caches/pools

    def plain_round() -> float:
        t0 = time.perf_counter()
        _run_eval(model, data)
        return time.perf_counter() - t0

    def instrumented_round() -> float:
        log = obs_events.EventLog()
        log.add_sink(obs_events.CollectingSink())
        previous = obs_events.set_event_log(log)
        tr.reset_tracing()
        tr.enable_tracing(record=True, aggregate=True)
        met.reset_metrics()
        met.enable_metrics()
        try:
            t0 = time.perf_counter()
            _run_eval(model, data)
            elapsed = time.perf_counter() - t0
        finally:
            tr.disable_tracing()
            met.disable_metrics()
            obs_events.set_event_log(previous)
        return elapsed

    plain_times, instrumented_times = [], []
    for _ in range(ROUNDS):  # interleave so drift hits both arms equally
        plain_times.append(plain_round())
        instrumented_times.append(instrumented_round())
    plain = min(plain_times)
    instrumented = min(instrumented_times)
    budget = plain * (1 + OVERHEAD_BUDGET) + OVERHEAD_SLACK_S
    ok = instrumented <= budget
    print(
        f"overhead: plain {plain:.3f}s  instrumented {instrumented:.3f}s  "
        f"budget {budget:.3f}s  -> {'OK' if ok else 'FAIL'}"
    )
    return {
        "plain_s": round(plain, 4),
        "instrumented_s": round(instrumented, 4),
        "budget_s": round(budget, 4),
        "ok": ok,
    }


def fit_one(name: str):
    """Module-level so the process pool can pickle it."""
    return name, estimate_error_model(get_multiplier(name), num_simulations=8)


def check_trace(out_dir: Path) -> dict:
    if not fork_available():
        print("trace: fork unavailable, skipping multi-process check")
        return {"skipped": "fork unavailable"}
    log = obs_events.EventLog()
    logfile = out_dir / "obs_smoke_events.jsonl"
    log.add_sink(obs_events.JsonlSink(logfile, max_bytes=64 * 1024))
    previous = obs_events.set_event_log(log)
    tr.reset_tracing()
    tr.enable_tracing(record=True, aggregate=True)
    met.reset_metrics()
    met.enable_metrics()
    try:
        log.run_start(command="obs_smoke", config={})
        with tr.span("fit_error_models"):
            map_workers(
                fit_one,
                ["truncated4", "mitchell"],
                workers=2,
            )
        met.emit_snapshot(log, scope="final")
        log.run_end(status="ok")
    finally:
        tr.disable_tracing()
        met.disable_metrics()
        obs_events.set_event_log(previous)
        log.close()

    spans = tr.get_trace_recorder().spans()
    tracefile = out_dir / "obs_smoke_trace.json"
    tr.write_chrome_trace(tracefile, spans)
    reread = tr.read_chrome_trace(tracefile)
    assert len(reread) == len(spans), "trace did not round-trip"

    by_id = {s.span_id: s for s in spans}
    pids = {s.pid for s in spans}
    import os

    worker_pids = pids - {os.getpid()}
    root = next(s for s in spans if s.name == "fit_error_models")
    tasks = [s for s in spans if s.name == "parallel.task"]
    dangling = [
        s for s in spans if s.parent_id is not None and s.parent_id not in by_id
    ]
    profile_rows = {r["name"]: r for r in tr.profile_summary()["timers"]}
    profiled_tasks = profile_rows.get("parallel.task", {}).get("calls", 0)
    ok = (
        len(worker_pids) >= 2
        and len(tasks) >= 2
        and all(t.parent_id == root.span_id for t in tasks)
        and not dangling
        and profiled_tasks == len(tasks)
    )
    print(
        f"trace: {len(spans)} spans, {len(worker_pids)} worker pid(s), "
        f"{len(tasks)} task span(s), {len(dangling)} dangling parent(s), "
        f"{profiled_tasks} task(s) in the merged profile "
        f"-> {'OK' if ok else 'FAIL'}"
    )
    return {
        "spans": len(spans),
        "worker_pids": sorted(worker_pids),
        "tasks": len(tasks),
        "dangling_parents": len(dangling),
        "profiled_tasks": profiled_tasks,
        "tracefile": str(tracefile),
        "logfile": str(logfile),
        "ok": ok,
    }


def check_quantiles(out_dir: Path) -> dict:
    model, data = _workload()
    met.reset_metrics()
    met.enable_metrics()
    samples: list[float] = []
    try:
        for _ in range(4):
            for xb, yb in iterate_batches(
                data.test_x, data.test_y, 32, shuffle=False
            ):
                t0 = time.perf_counter()
                from repro.autograd.tensor import Tensor

                model(Tensor(xb))
                dt = time.perf_counter() - t0
                samples.append(dt)
                met.observe("eval.batch_seconds", dt)
    finally:
        met.disable_metrics()

    payload = met.get_metrics().snapshot()["histograms"]["eval.batch_seconds"]
    quantiles = met.snapshot_quantiles(payload)
    rows = {}
    ok = True
    for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        exact = float(np.quantile(samples, q, method="inverted_cdf"))
        got = quantiles[label]
        rel = abs(got - exact) / exact
        rows[label] = {"exact": exact, "streaming": got, "rel_error": rel}
        ok = ok and rel <= met.QUANTILE_REL_ERROR
        print(
            f"quantile {label}: exact {exact * 1e3:.3f}ms  streaming "
            f"{got * 1e3:.3f}ms  rel {100 * rel:.2f}% "
            f"(bound {100 * met.QUANTILE_REL_ERROR:.2f}%)"
        )
    print(f"quantiles -> {'OK' if ok else 'FAIL'}")
    return {"samples": len(samples), "rows": rows, "ok": ok}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="obs_artifacts", metavar="DIR")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {
        "overhead": check_overhead(out_dir),
        "trace": check_trace(out_dir),
        "quantiles": check_quantiles(out_dir),
    }
    summary_path = out_dir / "obs_smoke_summary.json"
    summary_path.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {summary_path}")
    failed = [k for k, v in results.items() if v.get("ok") is False]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("obs smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
