"""Summary statistics the benchmark reports; no dependency on the program.

Timings are reported as a median plus the highest percentile that still
has at least ``MIN_BEYOND`` samples beyond it, together with the sample
count, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
import re
import statistics

# Candidate tail percentiles, highest last.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tail_level(n: int) -> float | None:
    """The highest of :data:`TAIL_LEVELS` with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    beyond it (``n < 2 * MIN_BEYOND``).
    """
    best = None
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= MIN_BEYOND - 1e-9:
            best = level
    return best


def percentile(values, level: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * level / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, tail percentile and the sample count behind them.

    With fewer samples than the median rule needs, the tail is the median.
    """
    values = list(values)
    level = tail_level(len(values))
    median = statistics.median(values)
    return {
        "n": len(values),
        "p50": median,
        "tail_level": level if level is not None else 50.0,
        "tail": percentile(values, level) if level is not None else median,
    }


def growing_backlog(latencies_s, limit_s: float) -> bool:
    """Whether due-time latencies in due order show a queue that keeps growing.

    Compares the median of the last quarter of a rung with the median of
    its first quarter: a stable queue keeps them close, a server slower
    than the offered rate makes every later request wait longer. Growth
    counts only when it exceeds a quarter of the latency limit, so the
    jitter of a healthy rung is not read as backlog.
    """
    n = len(latencies_s)
    if n < 8:
        return False
    quarter = n // 4
    first = statistics.median(latencies_s[:quarter])
    last = statistics.median(latencies_s[-quarter:])
    return last - first > 0.25 * limit_s


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None
