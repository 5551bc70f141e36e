"""Multi-worker execution of embarrassingly parallel stages.

See ``docs/PERFORMANCE.md``. Entry points:

- :class:`ParallelConfig` / :func:`map_workers` — the executor layer used
  by ``run_sweep(workers=...)`` (the CLI's ``sweep --workers``);
- :func:`fork_available` / :func:`resolve_backend` — platform probing.
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelConfig,
    amortized_workers,
    cpu_parallelism,
    force_parallel,
    fork_available,
    map_workers,
    persistent_executor,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "ParallelConfig",
    "amortized_workers",
    "cpu_parallelism",
    "force_parallel",
    "fork_available",
    "map_workers",
    "persistent_executor",
    "resolve_backend",
]
