"""Hierarchical spans: the one timer primitive, with two collection modes.

A :func:`span` is a timed, named block with a parent — the span that was
open on the same thread when it started. Every hot path (LUT GEMM, plan
cache, im2col, fake quantization, error-model estimation) and every
pipeline stage is instrumented with spans and nothing else. Spans are
**off by default**: a disabled ``span(...)`` call reads one module flag
and hands back a shared no-op context manager, so span sites live
permanently in the hot paths.

Two collection modes, switched on independently (:func:`enable_tracing`):

- **record** (``--trace``) — every finished span becomes a
  :class:`SpanRecord` (nanosecond wall-anchored monotonic timestamps,
  process/thread ids, attributes) collected by a process-wide
  :class:`TraceRecorder`, exportable as a Chrome trace;
- **aggregate** (``--profile``) — every finished span is folded into
  four per-name counters of the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` (``span.calls``,
  ``span.total_ns``, ``span.self_ns`` and ``span.bytes``, tagged
  ``span=<span name>``) and then discarded, so memory stays bounded by
  the number of distinct span names. Self time subtracts the direct
  children's time, tracked on a per-thread stack. A span's ``nbytes``
  attribute feeds ``span.bytes``. :func:`profile_summary` turns the
  counters into the per-name calls/total/self/MB table.

Cross-process propagation (``repro.parallel``): the parent captures a
:class:`TraceContext` — trace id, the id of the span open at the fan-out
call site and both mode flags — and ships it with each task. Worker
processes adopt it (:func:`adopt_context`), so their root spans parent
onto the dispatching span; finished worker spans travel back with the
task result and are merged into the parent recorder
(:meth:`TraceRecorder.merge`) with their original ids, timestamps and
parentage intact, and aggregated counters merge exactly through
:meth:`~repro.obs.metrics.MetricsRegistry.merge`. Span ids embed the pid,
so they stay unique across the fleet, and timestamps are wall-anchored
(``time_ns`` at recorder creation plus a ``perf_counter_ns`` delta), so
spans from different processes on one machine line up on a shared
timeline.

Export: :func:`to_chrome_trace` renders any span list as Chrome
``trace_event`` JSON — loadable in ``chrome://tracing`` or Perfetto —
and :func:`self_time_summary` folds a span list into the per-name
self-time table behind the ``repro trace`` CLI.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.obs import metrics as met
from repro.obs.runmeta import new_run_id

enabled = False  # record finished spans as SpanRecords (--trace)
aggregating = False  # fold finished spans into span.* counters (--profile)
_on = False  # enabled or aggregating: the one flag a disabled span() reads

_id_lock = threading.Lock()
_id_counter = 0
_local = threading.local()  # .stack: open _Span objects; .inherited: cross-task parent


def _next_span_id() -> str:
    """Process-unique span id; the pid prefix keeps it fleet-unique."""
    global _id_counter
    with _id_lock:
        _id_counter += 1
        n = _id_counter
    return f"{os.getpid():x}-{n:x}"


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (picklable, so workers can ship them back)."""

    name: str
    span_id: str
    parent_id: str | None
    start_ns: int  # wall-anchored monotonic nanoseconds
    dur_ns: int
    pid: int
    tid: int
    attrs: dict = field(default_factory=dict)

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.dur_ns


class TraceRecorder:
    """Thread-safe collector of finished spans for one trace.

    The wall/perf anchor pair taken at construction makes ``now_ns``
    monotonic within the process yet comparable across processes: a
    forked worker's fresh recorder re-anchors against the same wall
    clock, so merged spans share one timeline.
    """

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or new_run_id()
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        # wall anchor minus perf anchor: perf_counter_ns() + offset is wall time
        self._offset = time.time_ns() - time.perf_counter_ns()

    def now_ns(self) -> int:
        """Wall-anchored monotonic nanoseconds."""
        return time.perf_counter_ns() + self._offset

    def add(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    def merge(self, records: list[SpanRecord]) -> None:
        """Fold worker-captured spans in (ids/parentage/times unchanged)."""
        with self._lock:
            self._spans.extend(records)

    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_recorder = TraceRecorder()


def get_trace_recorder() -> TraceRecorder:
    """The process-wide :class:`TraceRecorder`."""
    return _recorder


def enable_tracing(record: bool = True, aggregate: bool = False) -> None:
    """Set the span collection modes (see the module docstring)."""
    global enabled, aggregating, _on
    enabled, aggregating = bool(record), bool(aggregate)
    _on = enabled or aggregating


def disable_tracing() -> None:
    """Turn both collection modes off."""
    enable_tracing(record=False, aggregate=False)


def reset_tracing(trace_id: str | None = None) -> TraceRecorder:
    """Drop collected spans and start a fresh trace id."""
    global _recorder
    _recorder = TraceRecorder(trace_id)
    _stack().clear()
    _local.inherited = None
    return _recorder


class tracing:
    """Set the collection modes for a block and hand back the recorder.

    >>> with tracing() as recorder:
    ...     run_sweep(...)
    >>> write_chrome_trace("trace.json", recorder.spans())

    ``tracing(record=False, aggregate=True)`` is the ``--profile`` mode;
    read the result with :func:`profile_summary`. The previous modes are
    restored on exit.
    """

    def __init__(self, reset: bool = True, record: bool = True, aggregate: bool = False):
        self._reset = reset
        self._modes = (record, aggregate)

    def __enter__(self) -> TraceRecorder:
        if self._reset:
            reset_tracing()
        self._previous = (enabled, aggregating)
        enable_tracing(*self._modes)
        return _recorder

    def __exit__(self, *exc) -> None:
        enable_tracing(*self._previous)


def current_span_id() -> str | None:
    """Id of the innermost open span on this thread (or inherited parent)."""
    stack = _stack()
    if stack:
        return stack[-1]._id
    return getattr(_local, "inherited", None)


def span(name: str, **attrs):
    """Context manager timing one hierarchical span (no-op when disabled).

    Keyword arguments become span attributes, rendered in the Chrome
    trace's ``args`` — keep them JSON-representable scalars. ``nbytes``
    attributes a payload size to the span, reported as the profile's MB
    column.
    """
    if not _on:
        return _OFF
    return _Span(name, attrs)


class _Off:
    """The shared context manager a disabled :func:`span` returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_OFF = _Off()


class _Span:
    """One open span; lives on its thread's stack until it exits."""

    __slots__ = ("name", "attrs", "_id", "_parent", "_start", "_child", "_fold")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = _stack()
        self._id = None
        if enabled:
            self._parent = stack[-1]._id if stack else getattr(_local, "inherited", None)
            self._id = _next_span_id()
        self._fold = aggregating
        self._child = 0  # ns spent in direct children on this thread
        stack.append(self)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter_ns() - self._start
        stack = _stack()
        if not stack or stack[-1] is not self:
            # reset_tracing() ran inside the block; the sample belongs to
            # the discarded trace — drop it rather than corrupt the stack.
            return
        stack.pop()
        if stack:
            stack[-1]._child += dur
        if self._id is not None:
            _recorder.add(
                SpanRecord(
                    name=self.name,
                    span_id=self._id,
                    parent_id=self._parent,
                    start_ns=self._start + _recorder._offset,
                    dur_ns=dur,
                    pid=os.getpid(),
                    tid=threading.get_ident(),
                    attrs=self.attrs,
                )
            )
        if self._fold:
            _fold(self.name, dur, dur - self._child, self.attrs.get("nbytes", 0))


# ----------------------------------------------------------------------
# aggregate mode (--profile): spans folded into metrics counters
# ----------------------------------------------------------------------
_FOLD_SERIES = ("span.calls", "span.total_ns", "span.self_ns", "span.bytes")
_fold_keys: dict[str, tuple[str, ...]] = {}  # span name -> its four series keys


def _fold(name: str, dur_ns: int, self_ns: int, nbytes: int) -> None:
    keys = _fold_keys.get(name)
    if keys is None:
        keys = _fold_keys[name] = tuple(
            met.series_key(series, {"span": name}) for series in _FOLD_SERIES
        )
    met.get_metrics().inc_many(
        zip(keys, (1, dur_ns, max(self_ns, 0), int(nbytes)))
    )


def profile_summary(registry: "met.MetricsRegistry | None" = None) -> dict:
    """The ``profile`` event payload, read from a metrics registry.

    ``timers`` has one row per span name — ``calls``, inclusive
    ``total`` and ``self`` seconds, ``bytes`` — hottest first.
    ``counters`` lists every other counter (``calls`` is its value) and
    every histogram (``calls`` is its count, ``sum`` its total).
    """
    snapshot = (registry or met.get_metrics()).snapshot()
    fields = dict(zip(_FOLD_SERIES, ("calls", "total", "self", "bytes")))
    timers: dict[str, dict] = {}
    counters = []
    for key, value in snapshot["counters"].items():
        series, tags = met.split_series_key(key)
        field = fields.get(series)
        if field is None or "span" not in tags:
            counters.append({"name": key, "calls": value})
            continue
        row = timers.setdefault(
            tags["span"],
            {"name": tags["span"], "calls": 0, "total": 0.0, "self": 0.0, "bytes": 0},
        )
        row[field] = round(value / 1e9, 6) if field in ("total", "self") else value
    for key, payload in snapshot["histograms"].items():
        counters.append({"name": key, "calls": payload["count"], "sum": payload["sum"]})
    return {
        "timers": sorted(timers.values(), key=lambda r: r["total"], reverse=True),
        "counters": sorted(counters, key=lambda r: r["name"]),
    }


def render_profile(summary: dict, top: int = 10) -> str:
    """Fixed-width table of a :func:`profile_summary`: the ``top`` hottest
    span names, then every counter."""
    lines = [
        f"{'timer':32s} {'calls':>9s} {'total[s]':>10s} {'self[s]':>10s} {'MB':>9s}"
    ]
    for row in summary["timers"][:top]:
        lines.append(
            f"{row['name']:32s} {row['calls']:9d} {row['total']:10.4f} "
            f"{row['self']:10.4f} {row['bytes'] / 1e6:9.2f}"
        )
    if summary["counters"]:
        lines.append(f"{'counter':32s} {'count':>9s} {'sum':>32s}")
        for row in summary["counters"]:
            total = f"{row['sum']:32.6g}" if "sum" in row else ""
            lines.append(f"{row['name']:32s} {row['calls']:9d} {total}".rstrip())
    return "\n".join(lines)


def record_span(
    name: str,
    start_ns: int,
    end_ns: int,
    parent_id: str | None = None,
    **attrs,
) -> None:
    """Record one externally-timed span (no-op when tracing is disabled).

    For spans whose start and end live on different threads — e.g. a
    serving request enqueued by a client thread and completed by a
    replica worker — where the ``span`` context manager cannot bracket
    the interval. Timestamps must come from ``get_trace_recorder().now_ns()``
    so they share the recorder's wall-clock anchor.
    """
    if not enabled:
        return
    _recorder.add(
        SpanRecord(
            name=name,
            span_id=_next_span_id(),
            parent_id=parent_id,
            start_ns=int(start_ns),
            dur_ns=max(int(end_ns) - int(start_ns), 0),
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=attrs,
        )
    )


# ----------------------------------------------------------------------
# cross-process / cross-thread propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """What travels with a ``repro.parallel`` task: enough to re-link."""

    trace_id: str
    parent_id: str | None
    enabled: bool
    aggregating: bool = False


def trace_context() -> TraceContext:
    """Capture the current trace identity for hand-off to a worker."""
    return TraceContext(
        trace_id=_recorder.trace_id,
        parent_id=current_span_id(),
        enabled=enabled,
        aggregating=aggregating,
    )


def adopt_context(context: TraceContext) -> None:
    """Adopt a parent-shipped :class:`TraceContext` inside a worker process.

    Starts a fresh recorder under the parent's trace id (pooled workers
    are reused across tasks, so per-task state must not leak) and
    installs ``context.parent_id`` as this thread's inherited parent —
    the worker's root spans link straight onto the dispatching span.
    Both collection modes follow the parent's.
    """
    global _recorder
    _recorder = TraceRecorder(context.trace_id)
    _stack().clear()
    _local.inherited = context.parent_id
    enable_tracing(context.enabled, context.aggregating)


def drain_spans() -> list[SpanRecord]:
    """Snapshot-and-clear the recorder (the worker's per-task capture)."""
    spans = _recorder.spans()
    _recorder.clear()
    return spans


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def to_chrome_trace(
    spans: list[SpanRecord], trace_id: str | None = None, main_pid: int | None = None
) -> dict:
    """Render spans as a Chrome ``trace_event`` JSON object.

    Each span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur``; span/parent ids and attributes land in
    ``args`` so the tree survives the export. Process-name metadata
    events label the main process vs workers for the Perfetto sidebar.

    Timestamps are rebased to the earliest span (the absolute wall
    anchor is kept in ``otherData.base_ns``): relative microseconds stay
    within float64's exact-integer range, so
    :func:`read_chrome_trace` round-trips ``start_ns`` exactly.
    """
    from repro.obs.events import _jsonable

    base_ns = min((s.start_ns for s in spans), default=0)
    events = []
    pids: dict[int, int] = {}
    for s in spans:
        pids.setdefault(s.pid, len(pids))
        args = {"span_id": s.span_id}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        for key, value in s.attrs.items():
            args[str(key)] = _jsonable(value)
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": "repro",
                "ts": (s.start_ns - base_ns) / 1000.0,
                "dur": s.dur_ns / 1000.0,
                "pid": s.pid,
                "tid": s.tid,
                "args": args,
            }
        )
    main_pid = os.getpid() if main_pid is None else main_pid
    for pid in sorted(pids):
        label = "repro (main)" if pid == main_pid else f"repro worker {pid}"
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id or _recorder.trace_id, "base_ns": base_ns},
    }


def write_chrome_trace(
    path: str | Path, spans: list[SpanRecord] | None = None, trace_id: str | None = None
) -> Path:
    """Write the (or the recorder's) spans as a Chrome trace file."""
    if spans is None:
        spans = _recorder.spans()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(spans, trace_id)), encoding="utf-8")
    return path


def read_chrome_trace(path: str | Path) -> list[SpanRecord]:
    """Load span records back from a file written by :func:`write_chrome_trace`."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"trace file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: invalid trace JSON: {exc}") from exc
    events = payload.get("traceEvents", payload if isinstance(payload, list) else [])
    base_ns = 0
    if isinstance(payload, dict):
        base_ns = int(payload.get("otherData", {}).get("base_ns", 0))
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = str(args.pop("span_id", ""))
        parent_id = args.pop("parent_id", None)
        spans.append(
            SpanRecord(
                name=str(event.get("name", "?")),
                span_id=span_id,
                parent_id=str(parent_id) if parent_id is not None else None,
                start_ns=base_ns + int(round(float(event.get("ts", 0.0)) * 1000.0)),
                dur_ns=int(round(float(event.get("dur", 0.0)) * 1000.0)),
                pid=int(event.get("pid", 0)),
                tid=int(event.get("tid", 0)),
                attrs=args,
            )
        )
    return spans


def self_time_summary(spans: list[SpanRecord]) -> list[dict]:
    """Per-name flame summary: calls, total and self wall time, descending.

    Self time subtracts the duration of *direct* children (matched by
    ``parent_id``), so the table answers "where was the time actually
    spent" across the whole fleet of processes.
    """
    child_time: dict[str, int] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0) + s.dur_ns
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(
            s.name, {"name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += s.dur_ns / 1e9
        row["self_s"] += max(s.dur_ns - child_time.get(s.span_id, 0), 0) / 1e9
    out = sorted(rows.values(), key=lambda r: r["self_s"], reverse=True)
    for row in out:
        row["total_s"] = round(row["total_s"], 6)
        row["self_s"] = round(row["self_s"], 6)
    return out


def render_flame_summary(spans: list[SpanRecord], top: int = 15) -> str:
    """Fixed-width text table of :func:`self_time_summary` (``repro trace``)."""
    rows = self_time_summary(spans)
    pids = sorted({s.pid for s in spans})
    lines = [
        f"{len(spans)} span(s) across {len(pids)} process(es): "
        + ", ".join(str(p) for p in pids),
        f"{'span':36s} {'calls':>8s} {'total[s]':>10s} {'self[s]':>10s}",
    ]
    for row in rows[:top]:
        lines.append(
            f"{row['name']:36s} {row['calls']:8d} {row['total_s']:10.4f} "
            f"{row['self_s']:10.4f}"
        )
    return "\n".join(lines)
