"""Multi-worker execution of embarrassingly parallel stages.

See ``docs/PERFORMANCE.md``. Entry points:

- :func:`map_workers` — the one fan-out, used by
  ``run_sweep(workers=...)`` (the CLI's ``sweep --workers``): inline for
  one worker, a fork process pool otherwise;
- :func:`amortized_workers` / :func:`cpu_parallelism` /
  :func:`force_parallel` — the can-it-amortize guard and its knobs;
- :func:`fork_available` — platform probing.
"""

from repro.parallel.executor import (
    amortized_workers,
    cpu_parallelism,
    force_parallel,
    fork_available,
    map_workers,
)

__all__ = [
    "amortized_workers",
    "cpu_parallelism",
    "force_parallel",
    "fork_available",
    "map_workers",
]
