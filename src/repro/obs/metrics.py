"""Process-wide metrics: counters, gauges and streaming log-bucket histograms.

A :class:`MetricsRegistry` holds three kinds of named series:

- **counters** — monotonically increasing tallies (plan-cache hits,
  Monte-Carlo draws, the ``span.*`` per-name aggregates ``--profile``
  folds spans into — :mod:`repro.obs.trace`), saturating at
  :data:`COUNTER_MAX`;
- **gauges** — last-written values (per-layer ``ε(y)`` mean, grad norms);
- **histograms** — streaming distributions over a **fixed logarithmic
  bucket layout** (:data:`SUBBUCKETS` buckets per power of two between
  ``2**MIN_EXP`` and ``2**MAX_EXP``). Because every histogram in every
  process shares the same layout, worker histograms merge into the
  parent *exactly* — bucket counts, sums and extrema add, with no
  re-binning error — and quantile estimates carry a documented bound:
  :meth:`Histogram.quantile` matches ``numpy.quantile(...,
  method="inverted_cdf")`` within a relative error of
  :data:`QUANTILE_REL_ERROR` (the half-bucket geometric width,
  ``2**(1/(2*SUBBUCKETS)) - 1`` ≈ 4.4%).

Recording is **off by default**: the module-level helpers (:func:`inc`,
:func:`set_gauge`, :func:`observe`) cost one attribute read and a branch
while disabled, so metric sites live permanently in the hot paths.
Optional ``**tags`` qualify a name (``observe("sweep.cell_seconds", dt,
multiplier="mul8s_1kv9")``) and are folded into the series key.

Snapshots are JSON-safe dicts: :func:`emit_snapshot` writes one
``metrics`` event to the event log (the periodic time-series the trainer
emits per epoch and sweeps emit per cell), and
:func:`to_prometheus` renders a registry in the Prometheus text
exposition format for the serving layer.
"""

from __future__ import annotations

import math
import threading
import time

# ----------------------------------------------------------------------
# fixed histogram layout — shared by every process so merges are exact
# ----------------------------------------------------------------------
SUBBUCKETS = 8  # buckets per power of two
MIN_EXP = -30  # 2**-30 ≈ 9.3e-10: smallest resolvable positive value
MAX_EXP = 34  # 2**34 ≈ 1.7e10: largest before the overflow bucket
NUM_BUCKETS = (MAX_EXP - MIN_EXP) * SUBBUCKETS + 2  # + underflow + overflow

# Documented quantile error: estimates are geometric bucket midpoints, so
# vs numpy.quantile(..., method="inverted_cdf") the relative error is at
# most half a bucket's geometric width.
QUANTILE_REL_ERROR = 2.0 ** (1.0 / (2 * SUBBUCKETS)) - 1.0

# int64 saturation bound: counters clamp here instead of growing unbounded,
# so snapshots stay representable as int64 downstream.
COUNTER_MAX = 2**63 - 1

enabled = False


def bucket_index(value: float) -> int:
    """The fixed-layout bucket holding ``value``.

    Bucket 0 is the underflow bucket (zero, negatives, sub-``2**MIN_EXP``);
    bucket ``NUM_BUCKETS - 1`` the overflow bucket; bucket ``i`` in between
    covers ``[2**(MIN_EXP + (i-1)/SUBBUCKETS), 2**(MIN_EXP + i/SUBBUCKETS))``.
    """
    if not value > 0.0 or value < 2.0**MIN_EXP or value != value:
        return 0
    if value >= 2.0**MAX_EXP:
        return NUM_BUCKETS - 1
    index = int((math.log2(value) - MIN_EXP) * SUBBUCKETS) + 1
    return min(max(index, 1), NUM_BUCKETS - 2)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``(low, high)`` value range of one bucket (inf-edged at the ends)."""
    if index <= 0:
        return (0.0, 2.0**MIN_EXP)
    if index >= NUM_BUCKETS - 1:
        return (2.0**MAX_EXP, math.inf)
    lo = 2.0 ** (MIN_EXP + (index - 1) / SUBBUCKETS)
    hi = 2.0 ** (MIN_EXP + index / SUBBUCKETS)
    return (lo, hi)


_LAYOUT = {"subbuckets": SUBBUCKETS, "min_exp": MIN_EXP, "max_exp": MAX_EXP}


class Counter:
    """A monotonically increasing tally, saturating at :data:`COUNTER_MAX`."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value = min(self.value + n, COUNTER_MAX)


class Gauge:
    """A last-write-wins sampled value."""

    __slots__ = ("name", "value", "updated")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None
        self.updated = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated = time.time()


class Histogram:
    """Streaming distribution over the fixed log-bucket layout.

    Tracks exact ``count``/``sum``/``min``/``max`` alongside the bucket
    counts; only quantiles are approximate (within
    :data:`QUANTILE_REL_ERROR`).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> dict[int, int]:
        """Sparse ``{bucket_index: count}`` view (a copy)."""
        return dict(self._buckets)

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (inverted-CDF semantics).

        Returns the geometric midpoint of the bucket containing the
        order statistic of rank ``ceil(q * count)``, clamped into the
        observed ``[min, max]`` — within :data:`QUANTILE_REL_ERROR`
        (relative) of ``numpy.quantile(data, q, method="inverted_cdf")``
        for positive in-range data.
        """
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        index = NUM_BUCKETS - 1
        for i in sorted(self._buckets):
            cumulative += self._buckets[i]
            if cumulative >= rank:
                index = i
                break
        lo, hi = bucket_bounds(index)
        if index <= 0:
            estimate = self.min if self.min < hi else hi
        elif index >= NUM_BUCKETS - 1:
            estimate = self.max if self.max > lo else lo
        else:
            estimate = math.sqrt(lo * hi)
        return min(max(estimate, self.min), self.max)

    def merge(self, other: "Histogram | dict") -> None:
        """Fold another histogram (or its snapshot) in — exactly."""
        if isinstance(other, Histogram):
            other = other.to_dict()
        layout = other.get("layout", _LAYOUT)
        if layout != _LAYOUT:
            raise ValueError(
                f"histogram {self.name!r}: incompatible bucket layout {layout}"
            )
        self.count += int(other.get("count", 0))
        self.total += float(other.get("sum", 0.0))
        self.min = min(self.min, float(other.get("min", math.inf)))
        self.max = max(self.max, float(other.get("max", -math.inf)))
        for key, value in other.get("buckets", {}).items():
            index = int(key)
            self._buckets[index] = self._buckets.get(index, 0) + int(value)

    def to_dict(self) -> dict:
        payload = {
            "count": self.count,
            "sum": self.total,
            "buckets": {str(i): c for i, c in sorted(self._buckets.items())},
            "layout": dict(_LAYOUT),
        }
        if self.count:
            payload["min"] = self.min
            payload["max"] = self.max
        return payload


def histogram_from_dict(name: str, payload: dict) -> Histogram:
    """Rebuild a :class:`Histogram` from a snapshot dict."""
    hist = Histogram(name)
    hist.merge(payload)
    return hist


def series_key(name: str, tags: dict) -> str:
    """Fold tags into one series key: ``("a", {"x": 1})`` → ``"a{x=1}"``."""
    if not tags:
        return name
    inner = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of the tag folding: ``"a{x=1}"`` → ``("a", {"x": "1"})``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    tags = {}
    for part in inner[:-1].split(","):
        if "=" in part:
            tag, _, value = part.partition("=")
            tags[tag] = value
    return name, tags


class MetricsRegistry:
    """Thread-safe home of every counter/gauge/histogram in a process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording (lock-held so concurrent emitters never lose updates) --
    def _bump(self, key: str, n: int | float) -> None:
        # caller holds self._lock
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter(key)
        series.inc(n)

    def inc(self, name: str, n: int | float = 1, **tags) -> None:
        key = series_key(name, tags)
        with self._lock:
            self._bump(key, n)

    def inc_many(self, increments) -> None:
        """Bump several counters, given as ``(series_key, n)`` pairs, under
        one lock acquisition (the span fold behind ``--profile``)."""
        with self._lock:
            for key, n in increments:
                self._bump(key, n)

    def set_gauge(self, name: str, value: float, **tags) -> None:
        key = series_key(name, tags)
        with self._lock:
            series = self._gauges.get(key)
            if series is None:
                series = self._gauges[key] = Gauge(key)
            series.set(value)

    def observe(self, name: str, value: float, **tags) -> None:
        key = series_key(name, tags)
        with self._lock:
            series = self._histograms.get(key)
            if series is None:
                series = self._histograms[key] = Histogram(key)
            series.observe(value)

    # -- snapshot / merge ------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe view of every series (histograms keep exact buckets)."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {
                    k: g.value
                    for k, g in sorted(self._gauges.items())
                    if g.value is not None
                },
                "histograms": {
                    k: h.to_dict() for k, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a worker's snapshot in: counters/histograms add exactly;
        gauges take the incoming (more recent) value."""
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        with self._lock:
            for key, value in counters.items():
                self._bump(key, value)
            for key, value in gauges.items():
                series = self._gauges.get(key)
                if series is None:
                    series = self._gauges[key] = Gauge(key)
                series.set(value)
        # Histogram merge validates layout; do it outside the dict loop
        # but inside the lock for atomicity.
        with self._lock:
            for key, payload in histograms.items():
                series = self._histograms.get(key)
                if series is None:
                    series = self._histograms[key] = Histogram(key)
                series.merge(payload)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# process-wide default registry + cheap-guard helpers
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


def enable_metrics() -> None:
    global enabled
    enabled = True


def disable_metrics() -> None:
    global enabled
    enabled = False


def reset_metrics() -> None:
    _registry.reset()


def inc(name: str, n: int | float = 1, **tags) -> None:
    """Bump a counter on the default registry (no-op while disabled)."""
    if not enabled:
        return
    _registry.inc(name, n, **tags)


def set_gauge(name: str, value: float, **tags) -> None:
    """Set a gauge on the default registry (no-op while disabled)."""
    if not enabled:
        return
    _registry.set_gauge(name, value, **tags)


def observe(name: str, value: float, **tags) -> None:
    """Observe a histogram sample on the default registry (no-op while
    disabled)."""
    if not enabled:
        return
    _registry.observe(name, value, **tags)


class collecting_metrics:
    """Enable metrics for a block and hand back a fresh registry.

    >>> with collecting_metrics() as registry:
    ...     run_sweep(...)
    >>> snapshot_quantiles(registry.snapshot()["histograms"]["sweep.cell_seconds"])["p95"]
    """

    def __init__(self, reset: bool = True):
        self._reset = reset

    def __enter__(self) -> MetricsRegistry:
        if self._reset:
            reset_metrics()
        self._was_enabled = enabled
        enable_metrics()
        return _registry

    def __exit__(self, *exc) -> None:
        if not self._was_enabled:
            disable_metrics()


# ----------------------------------------------------------------------
# snapshots to the event log (time series) and Prometheus exposition
# ----------------------------------------------------------------------
def emit_snapshot(log=None, **payload) -> dict | None:
    """Emit one ``metrics`` event carrying the registry snapshot.

    The trainer calls this per epoch and sweeps per cell, turning the
    registry into a JSONL time series alongside the other run events.
    Returns the record, or None when metrics or the log are disabled.
    """
    if not enabled:
        return None
    from repro.obs import events as obs_events

    log = log or obs_events.get_event_log()
    if not log.enabled:
        return None
    return log.emit(obs_events.METRICS, metrics=_registry.snapshot(), **payload)


_DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def snapshot_quantiles(
    histogram_payload: dict, quantiles: tuple[float, ...] = _DEFAULT_QUANTILES
) -> dict[str, float]:
    """p50/p95/p99 (by default) of one snapshot histogram payload."""
    hist = histogram_from_dict("snapshot", histogram_payload)
    out = {}
    for q in quantiles:
        value = hist.quantile(q)
        if value is not None:
            out[f"p{int(round(q * 100))}"] = value
    return out


def _prometheus_name(key: str) -> tuple[str, str]:
    """Sanitized metric name and a ``{label="v"}`` suffix for one series key."""
    name, tags = split_series_key(key)
    clean = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not tags:
        return clean, ""
    labels = ",".join(f'{k}="{v}"' for k, v in sorted(tags.items()))
    return clean, "{" + labels + "}"


def to_prometheus(registry: MetricsRegistry | None = None, prefix: str = "repro_") -> str:
    """Render a registry in the Prometheus text exposition format.

    Histograms export cumulative ``_bucket{le=...}`` series over the
    fixed layout (only populated edges plus ``+Inf``), with ``_sum`` and
    ``_count`` — the format the future ``repro.serve`` scrape endpoint
    returns.
    """
    registry = registry or _registry
    snapshot = registry.snapshot()
    lines: list[str] = []
    seen_types: set[str] = set()

    def typeline(metric: str, kind: str) -> None:
        if metric not in seen_types:
            seen_types.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for key, value in snapshot["counters"].items():
        name, labels = _prometheus_name(key)
        metric = f"{prefix}{name}_total"
        typeline(metric, "counter")
        lines.append(f"{metric}{labels} {value}")
    for key, value in snapshot["gauges"].items():
        name, labels = _prometheus_name(key)
        metric = f"{prefix}{name}"
        typeline(metric, "gauge")
        lines.append(f"{metric}{labels} {value}")
    for key, payload in snapshot["histograms"].items():
        name, labels = _prometheus_name(key)
        metric = f"{prefix}{name}"
        typeline(metric, "histogram")
        inner = labels[1:-1] if labels else ""
        cumulative = 0
        for index in sorted(int(i) for i in payload.get("buckets", {})):
            cumulative += int(payload["buckets"][str(index)])
            le = bucket_bounds(index)[1]
            if math.isinf(le):
                continue  # folded into the final +Inf bucket below
            label = f'le="{le!r}"' + (f",{inner}" if inner else "")
            lines.append(f"{metric}_bucket{{{label}}} {cumulative}")
        label = 'le="+Inf"' + (f",{inner}" if inner else "")
        lines.append(f"{metric}_bucket{{{label}}} {payload.get('count', 0)}")
        lines.append(f"{metric}_sum{labels} {payload.get('sum', 0.0)}")
        lines.append(f"{metric}_count{labels} {payload.get('count', 0)}")
    return "\n".join(lines) + "\n"
