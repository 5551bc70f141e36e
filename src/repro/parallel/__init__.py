"""Multi-worker execution of embarrassingly parallel stages.

See ``docs/PERFORMANCE.md``. Entry points:

- :class:`ParallelConfig` / :func:`map_workers` — the executor layer used
  by ``run_sweep(workers=...)`` (the CLI's ``sweep --workers``);
- :func:`set_default_config` — process-wide worker default;
- :func:`fork_available` / :func:`resolve_backend` — platform probing.
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelConfig,
    amortized_workers,
    cpu_parallelism,
    effective_workers,
    force_parallel,
    fork_available,
    get_default_config,
    map_workers,
    persistent_executor,
    resolve_backend,
    set_default_config,
)

__all__ = [
    "BACKENDS",
    "ParallelConfig",
    "amortized_workers",
    "cpu_parallelism",
    "effective_workers",
    "force_parallel",
    "fork_available",
    "get_default_config",
    "map_workers",
    "persistent_executor",
    "resolve_backend",
    "set_default_config",
]
