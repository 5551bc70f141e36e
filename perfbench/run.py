"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload {algo1,serve-open} --seed N \\
        --seconds S --trace {0,1}

The set-up runs ``SETUP_REPEATS`` times and ``setup_s`` is the median.
With ``--trace 0`` the timed phase runs once and the end-to-end metrics
are printed. With ``--trace 1`` it runs once untraced and once with every
layer entry point wrapped (:mod:`perfbench.tracer`); the per-layer
metrics are printed and the spans are written under ``.perfbench/``.

The last line of standard output is the result object; the line before
it carries the workload's detail and the run's provenance. The exit code
is 0 when every check passed, 1 when an output check failed and 2 when
the program's sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, pinned before numpy is first imported: serve-open
# already keeps a replica thread and the generator busy, and the
# machines this runs on have two cores; single-threaded BLAS also keeps
# the run-to-run spread down.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
SPAN_DIR = ROOT / ".perfbench"

E2E = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sps.trunc5", "samples/s"),
    ("sps.evo228", "samples/s"),
    ("p50_ms", "ms"),
)


def provenance(seed: int) -> dict:
    import numpy as np

    from repro import config
    from repro.approx.backend import default_backend
    from repro.obs.runmeta import git_metadata
    from repro.parallel import cpu_parallelism

    knobs = {
        name: config.resolve(name)
        for name in (
            "cpus", "force_parallel", "error_model_method",
            "serve_deadline_ms", "serve_max_batch", "serve_queue_depth", "serve_replicas",
        )
    }
    knobs["gemm_backend"] = default_backend().name
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_parallelism": cpu_parallelism(),
        "knobs": knobs,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "blas_pinned_before_numpy_import": True,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_metadata(str(ROOT)).get("commit", "unknown"),
    }


def main(argv: list[str] | None = None) -> int:
    os.environ.update(BLAS_THREADS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracer import PER_LAYER, Tracer, layer_metrics
    from perfbench.workloads import WORKLOADS, Ops

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ops = Ops()
    setup_s, ctx = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if ctx is not None:
                workload.close(ctx)
                ctx = None
            started = time.perf_counter()
            ctx = workload.setup(args.seed)
            setup_s.append(time.perf_counter() - started)
        result = workload.timed(ctx, args.seconds, ops)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.timed(ctx, args.seconds, ops, tracer)
            finally:
                tracer.uninstall()
            values = layer_metrics(tracer, result, traced)
            units = dict(PER_LAYER)
            SPAN_DIR.mkdir(exist_ok=True)
            tracer.dump(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            values = {
                **result["e2e"],
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(E2E)
    finally:
        if ctx is not None:
            workload.close(ctx)

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_s_each": setup_s,
        "detail": result["detail"],
        "problems": ops.problems,
        "provenance": provenance(args.seed),
    }
    print(json.dumps(detail, default=float))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
