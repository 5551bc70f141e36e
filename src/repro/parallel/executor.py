"""Multi-worker executor: deterministic fan-out over independent work items.

The sweeps behind Tables 5-7 are embarrassingly parallel — independent
grid cells that take minutes each; this module is the one place that
knows how to spread work over workers (``docs/PERFORMANCE.md``):

- :func:`map_workers` runs a function over items and returns results in
  **item order** regardless of completion order — inline for one worker,
  on a fork process pool otherwise;
- worker processes capture their event-log records, finished spans and
  metrics (including the ``--profile`` span aggregates) and ship them back
  with each result, so the parent's telemetry covers the whole fleet
  (:meth:`repro.obs.metrics.MetricsRegistry.merge`).

``workers=1`` (the default everywhere) executes inline with zero
overhead and no behaviour change; platforms without ``fork`` run inline
too.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import config
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr


def fork_available() -> bool:
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def cpu_parallelism() -> int:
    """Usable hardware parallelism (the ``cpus`` knob overrides detection).

    The override — ``REPRO_CPUS`` or :func:`repro.config.configure` —
    exists for tests and containers whose visible ``os.cpu_count()`` does
    not match the cores actually available.
    """
    value = config.resolve("cpus")
    if value is not None:
        return max(1, int(value))
    return os.cpu_count() or 1


def force_parallel() -> bool:
    """True when the ``force_parallel`` knob disables the small-work guard
    (``REPRO_FORCE_PARALLEL`` or :func:`repro.config.configure`)."""
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
# worker-side wrapper (module-level so the process pool can pickle it)
# ----------------------------------------------------------------------
@dataclass
class _WorkerResult:
    """A task's value plus the telemetry captured alongside it."""

    value: Any
    events: list[dict]
    pid: int
    spans: list  # finished tr.SpanRecord list (may be empty)
    metrics: dict | None  # met.MetricsRegistry.snapshot() when captured


def _call_captured(
    fn: Callable, item: Any, trace_ctx: tr.TraceContext, capture_metrics: bool
) -> _WorkerResult:
    """Run ``fn(item)`` in a worker process under a fresh capture scope.

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
            value = fn(item)
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
    workers: int = 1,
    *,
    on_result: Callable[[int, Any], None] | None = None,
) -> list:
    """Run ``fn(item)`` over ``items`` and return the results in item order.

    With ``workers <= 1``, at most one item, or no ``fork`` on this
    platform, the items run inline in order. Otherwise they run on a pool
    of ``min(workers, len(items))`` forked processes, so ``fn`` must be
    picklable (a module-level function or a ``functools.partial`` over
    one); fork, not spawn, keeps any monkeypatched state callers rely on.

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
    items = list(items)
    if workers <= 1 or len(items) <= 1 or not fork_available():
        results = []
        for index, item in enumerate(items):
            value = fn(item)
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results

    trace_ctx = tr.trace_context()
    # --profile aggregates live in the metrics registry, so they need
    # the metrics snapshot shipped back even when metrics are off.
    capture_metrics = met.enabled or tr.aggregating
    results: list = [None] * len(items)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)), mp_context=multiprocessing.get_context("fork")
    ) as executor:
        futures = {
            executor.submit(_call_captured, fn, item, trace_ctx, capture_metrics): index
            for index, item in enumerate(items)
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in done:
                    index = futures[future]
                    value = _absorb(future.result())
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
    return results
