"""Multi-worker executor: deterministic fan-out over independent work items.

The sweeps behind Tables 5-7 are embarrassingly parallel — independent
grid cells that take minutes each; this module is the one place that
knows how to spread work over workers (``docs/PERFORMANCE.md``):

- :class:`ParallelConfig` selects a worker count and a backend
  (``process`` via fork for Python-heavy work, ``thread`` for
  BLAS-dominated work, ``serial`` as the always-available fallback);
- :func:`map_workers` runs a function over items and returns results in
  **item order** regardless of completion order, spawning one
  statistically independent RNG per task when a seed is given — the same
  seed yields the same per-task streams at any worker count;
- worker processes capture their event-log records, finished spans and
  metrics (including the ``--profile`` span aggregates) and ship them back
  with each result, so the parent's telemetry covers the whole fleet
  (:meth:`repro.obs.metrics.MetricsRegistry.merge`).

``workers=1`` (the default everywhere) executes inline with zero
overhead and no behaviour change; platforms without ``fork`` degrade to
the thread backend automatically.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, Executor, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import config
from repro.errors import ConfigError
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.utils.rng import spawn_rngs

BACKENDS = ("auto", "process", "thread", "serial")


@dataclass(frozen=True)
class ParallelConfig:
    """How a parallel region should execute.

    Parameters
    ----------
    workers:
        Number of concurrent workers; ``1`` means run serially inline.
    backend:
        ``"auto"`` picks ``process`` when fork is available and ``thread``
        otherwise; the explicit names force a backend, and ``"serial"``
        disables parallelism regardless of ``workers``.
    capture_obs:
        Capture event-log records, spans and metrics inside worker
        processes and merge them back into the parent (process backend
        only; threads share the parent's log and registries directly).
    """

    workers: int = 1
    backend: str = "auto"
    capture_obs: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"unknown parallel backend {self.backend!r}; choose from {BACKENDS}"
            )


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(config: ParallelConfig) -> str:
    """The backend a config actually runs with on this platform."""
    if config.workers <= 1 or config.backend == "serial":
        return "serial"
    if config.backend == "thread":
        return "thread"
    # "process" and "auto" both need fork: the repo's models and datasets
    # pickle fine, but spawn would re-import numpy per worker and lose any
    # monkeypatched state callers rely on.
    return "process" if fork_available() else "thread"


def cpu_parallelism() -> int:
    """Usable hardware parallelism (the ``cpus`` knob overrides detection).

    The override — ``REPRO_CPUS`` or any higher :mod:`repro.config` tier —
    exists for tests and containers whose visible ``os.cpu_count()`` does
    not match the cores actually available.
    """
    value = config.resolve("cpus")
    if value is not None:
        return max(1, int(value))
    return os.cpu_count() or 1


def force_parallel() -> bool:
    """True when the ``force_parallel`` knob disables the small-work guard
    (``REPRO_FORCE_PARALLEL`` or any higher :mod:`repro.config` tier)."""
    return bool(config.resolve("force_parallel"))


def amortized_workers(workers: int | None, tasks: int) -> int:
    """Worker count after the can-it-amortize guard (``docs/PERFORMANCE.md``).

    Pool dispatch has a fixed cost per task and per fork, so fanning out
    cannot win with fewer than two tasks or only one usable CPU
    (:func:`cpu_parallelism`); serial is the faster plan there.

    ``REPRO_FORCE_PARALLEL=1`` bypasses the guard so the concurrency
    test-suite can exercise real pools on single-core CI runners.
    """
    requested = 1 if workers is None else workers
    if requested <= 1:
        return 1
    if force_parallel():
        return requested
    if tasks < 2 or cpu_parallelism() < 2:
        return 1
    return requested


# ----------------------------------------------------------------------
# worker-side wrapper (module-level so the process backend can pickle it)
# ----------------------------------------------------------------------
@dataclass
class _WorkerResult:
    """A task's value plus the telemetry captured alongside it."""

    value: Any
    events: list[dict]
    pid: int
    spans: list | None = None  # finished tr.SpanRecord list (may be empty)
    metrics: dict | None = None  # met.MetricsRegistry.snapshot()


def _call_captured(
    fn: Callable,
    args: tuple,
    trace_ctx: "tr.TraceContext | None" = None,
    capture_metrics: bool = False,
) -> _WorkerResult:
    """Run ``fn(*args)`` in a worker process under a fresh capture scope.

    The forked child inherits the parent's event log *including its open
    sinks* (e.g. a ``--log-json`` file handle), so the first thing the
    wrapper does is swap in a private collecting log — worker records must
    travel back through the result, not race the parent on a shared file
    descriptor.

    Trace context shipped by the parent is adopted so the worker's spans
    parent onto the dispatching span and follow the parent's collection
    modes; finished spans and a fresh-registry metrics snapshot (which
    carries the ``--profile`` span aggregates) travel back with the
    result for exact merge in the parent.
    """
    log = obs_events.EventLog()
    sink = log.add_sink(obs_events.CollectingSink())
    previous_log = obs_events.set_event_log(log)
    if trace_ctx is not None:
        tr.adopt_context(trace_ctx)
    if capture_metrics:
        met.set_metrics(met.MetricsRegistry())
        met.enable_metrics()
    else:
        # Uncaptured observations cannot travel back to the parent; keep
        # the (possibly inherited-enabled) metrics path off in the worker.
        met.disable_metrics()
    try:
        with tr.span("parallel.task"):
            value = fn(*args)
    finally:
        obs_events.set_event_log(previous_log)
    spans = tr.drain_spans()
    metrics = met.get_metrics().snapshot() if capture_metrics else None
    return _WorkerResult(
        value=value,
        events=sink.records,
        pid=os.getpid(),
        spans=spans,
        metrics=metrics,
    )


def _absorb(result: _WorkerResult) -> Any:
    """Merge a worker's captured telemetry into the parent and unwrap."""
    log = obs_events.get_event_log()
    if log.enabled:
        for record in result.events:
            payload = {
                k: v
                for k, v in record.items()
                if k not in ("type", "run", "seq", "t", "level")
            }
            log.emit(
                record.get("type", "event"),
                level=obs_events.level_from_name(record.get("level", "info")),
                worker=result.pid,
                **payload,
            )
    if result.spans:
        tr.get_trace_recorder().merge(result.spans)
    if result.metrics is not None:
        met.get_metrics().merge(result.metrics)
    return result.value


def map_workers(
    fn: Callable,
    items: Iterable,
    config: ParallelConfig | None = None,
    *,
    rng: "int | None" = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list:
    """Run ``fn`` over ``items`` and return the results in item order.

    ``fn`` is called as ``fn(item)`` — or ``fn(item, task_rng)`` when
    ``rng`` is given, with one generator spawned per task from the seed so
    streams are independent of worker count and schedule. For the process
    backend ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` over one).

    ``on_result(index, value)`` fires in the parent in **completion
    order** as each task finishes — the hook sweeps use to persist partial
    state after every cell. Exceptions raised by ``fn`` propagate to the
    caller (pending tasks are cancelled); callers wanting fault isolation
    wrap their cells in :func:`repro.resilience.call_with_retry`.

    Worker-process event records are re-emitted on the parent log stamped
    with a ``worker`` PID (their envelope is restamped; the original
    relative times are worker-local and not comparable), and worker spans
    and metrics are folded into the parent recorder and registry.
    """
    config = ParallelConfig() if config is None else config
    items = list(items)
    rngs = spawn_rngs(rng, len(items)) if rng is not None else None

    def task_args(index: int) -> tuple:
        return (items[index], rngs[index]) if rngs is not None else (items[index],)

    backend = resolve_backend(config)
    if backend == "serial" or len(items) <= 1:
        results = []
        for index in range(len(items)):
            value = fn(*task_args(index))
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results

    workers = min(config.workers, len(items))
    trace_ctx = tr.trace_context()
    executor: Executor
    if backend == "thread":
        # Threads share the parent's (thread-safe) event log, trace
        # recorder and metrics registry; only the span
        # parentage needs installing per task (pool threads start with an
        # empty span stack and would otherwise produce orphan roots).
        executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro")
        if trace_ctx.enabled:
            submit = lambda i: executor.submit(  # noqa: E731
                tr.call_with_parent, trace_ctx.parent_id, fn, *task_args(i)
            )
        else:
            submit = lambda i: executor.submit(fn, *task_args(i))  # noqa: E731
        unwrap = lambda value: value  # noqa: E731
    else:
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("fork")
        )
        # --profile aggregates live in the metrics registry, so they need
        # the metrics snapshot shipped back even when metrics are off.
        capture_metrics = config.capture_obs and (met.enabled or tr.aggregating)
        submit = lambda i: executor.submit(  # noqa: E731
            _call_captured,
            fn,
            task_args(i),
            trace_ctx if config.capture_obs else None,
            capture_metrics,
        )
        unwrap = _absorb if config.capture_obs else lambda r: r.value  # noqa: E731

    results: list = [None] * len(items)
    with executor:
        futures = {submit(index): index for index in range(len(items))}
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in done:
                    index = futures[future]
                    value = unwrap(future.result())
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    return results


def persistent_executor(
    workers: int, *, thread_name_prefix: str = "repro-worker"
) -> Executor:
    """A long-lived thread executor for resident services.

    Unlike :func:`map_workers` — which spins a pool up and down around one
    fan-out — this hands back an executor the caller owns for the life of
    a service. :mod:`repro.serve` runs its model replicas here: inference
    is BLAS-dominated (the GIL is released inside the GEMM), so threads
    scale while sharing the parent's event log, metrics registry and trace
    recorder directly. The caller must ``shutdown()`` it.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix=thread_name_prefix)
