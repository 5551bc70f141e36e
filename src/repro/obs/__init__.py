"""Observability: structured run telemetry, spans, metrics and layer statistics.

Cooperating pieces (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.events` — process-wide :class:`EventLog` writing typed
  JSONL records (``run_start``/``stage``/``epoch``/``eval``/
  ``layer_stats``/``profile``/``run_end``) to pluggable sinks;
- :mod:`repro.obs.console` — leveled human console and the event →
  console rendering sink;
- :mod:`repro.obs.stats` — opt-in :class:`StatsHook` recording per-layer
  activation ranges, approximation-error deltas ``ε(y)`` and gradient
  norms;
- :mod:`repro.obs.trace` — hierarchical spans, the one timer primitive
  on the hot paths: recorded with cross-process propagation and exported
  as Chrome ``trace_event`` timelines (``--trace``, ``repro trace``), or
  folded per name into metrics counters (``--profile``);
- :mod:`repro.obs.metrics` — the one counter registry: process-wide
  counters/gauges/streaming histograms with exact cross-worker merge and
  a Prometheus exporter;
- :mod:`repro.obs.report` — offline summarisation of a JSONL log
  (``repro report``).
"""

from repro.obs.console import Console, ConsoleSink, format_event, get_console
from repro.obs.events import (
    DEBUG,
    EPOCH,
    ERROR,
    EVAL,
    EVENT_TYPES,
    INFO,
    LAYER_STATS,
    METRICS,
    PROFILE,
    RUN_END,
    RUN_START,
    STAGE,
    TRACE,
    WARNING,
    CollectingSink,
    EventLog,
    JsonlSink,
    Sink,
    get_event_log,
    iter_events,
    logging_to,
    manifest_path,
    read_events,
    segment_paths,
    set_event_log,
)
from repro.obs.metrics import (
    COUNTER_MAX,
    QUANTILE_REL_ERROR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collecting_metrics,
    disable_metrics,
    emit_snapshot,
    enable_metrics,
    get_metrics,
    reset_metrics,
    set_metrics,
    snapshot_quantiles,
    to_prometheus,
)
from repro.obs.report import RunSummary, StageTime, render_summary, summarize_run
from repro.obs.runmeta import (
    environment_metadata,
    git_metadata,
    new_run_id,
    provenance,
    run_metadata,
)
from repro.obs.stats import (
    LayerStats,
    StatsHook,
    attach_stats_hooks,
    detach_stats_hooks,
)
from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    TraceRecorder,
    adopt_context,
    current_span_id,
    disable_tracing,
    drain_spans,
    enable_tracing,
    get_trace_recorder,
    profile_summary,
    read_chrome_trace,
    record_span,
    render_flame_summary,
    render_profile,
    reset_tracing,
    self_time_summary,
    span,
    to_chrome_trace,
    trace_context,
    tracing,
    write_chrome_trace,
)

__all__ = [
    # events
    "EventLog",
    "Sink",
    "JsonlSink",
    "CollectingSink",
    "get_event_log",
    "set_event_log",
    "logging_to",
    "read_events",
    "iter_events",
    "manifest_path",
    "segment_paths",
    "EVENT_TYPES",
    "RUN_START",
    "RUN_END",
    "STAGE",
    "EPOCH",
    "EVAL",
    "LAYER_STATS",
    "PROFILE",
    "METRICS",
    "TRACE",
    "DEBUG",
    "INFO",
    "WARNING",
    "ERROR",
    # console
    "Console",
    "ConsoleSink",
    "format_event",
    "get_console",
    # stats
    "StatsHook",
    "LayerStats",
    "attach_stats_hooks",
    "detach_stats_hooks",
    # report
    "RunSummary",
    "StageTime",
    "summarize_run",
    "render_summary",
    # runmeta
    "new_run_id",
    "run_metadata",
    "git_metadata",
    "environment_metadata",
    "provenance",
    # trace
    "span",
    "SpanRecord",
    "TraceRecorder",
    "TraceContext",
    "tracing",
    "enable_tracing",
    "disable_tracing",
    "reset_tracing",
    "get_trace_recorder",
    "current_span_id",
    "record_span",
    "trace_context",
    "adopt_context",
    "drain_spans",
    "to_chrome_trace",
    "write_chrome_trace",
    "read_chrome_trace",
    "self_time_summary",
    "render_flame_summary",
    "profile_summary",
    "render_profile",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "QUANTILE_REL_ERROR",
    "COUNTER_MAX",
    "get_metrics",
    "set_metrics",
    "enable_metrics",
    "disable_metrics",
    "reset_metrics",
    "collecting_metrics",
    "emit_snapshot",
    "snapshot_quantiles",
    "to_prometheus",
]
