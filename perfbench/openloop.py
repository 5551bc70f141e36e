"""Single-threaded open-loop load generator over ``Server.submit``.

Requests go out on a schedule fixed before the rung starts, whether or
not earlier ones have finished, and each request is timed from the
moment it was *due*, not from when the generator got round to sending
it. A generator that falls behind therefore shows up in the latencies
of the requests it delayed, and its lateness is recorded separately as
``gen_lag_s``. A refused request (``BackpressureError``), one that does
not finish in time, and one whose response fails ``check`` all count as
failed and as missing any latency limit; none is retried.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field

import numpy as np


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from the rung start) of a Poisson arrival stream."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class RungResult:
    """What one rung of the ladder measured. Latency lists are in due order."""

    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    latencies_s: list[float] = field(default_factory=list)
    server_latencies_s: list[float] = field(default_factory=list)
    gen_lag_s: list[float] = field(default_factory=list)
    queue_depth_max: int = 0
    wall_s: float = 0.0


def run_rung(
    server,
    inputs,
    schedule,
    *,
    check=None,
    on_midpoint=None,
    timeout_s: float = 10.0,
    queue_depth=None,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> RungResult:
    """Offer ``inputs[i]`` at ``schedule[i]`` seconds after the start.

    ``check(i, prediction) -> bool`` validates each response;
    ``on_midpoint()`` runs once, after half the requests went out (the
    workload swaps weights there); ``queue_depth()``, when given, is
    sampled at every submission.
    """
    from repro.errors import BackpressureError, ServeError

    result = RungResult()
    count = len(schedule)
    done_at = [None] * count
    pending = []
    start = clock()
    for i, offset in enumerate(schedule):
        due = start + float(offset)
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        result.gen_lag_s.append(max(0.0, clock() - due))
        if on_midpoint is not None and i == count // 2:
            on_midpoint()
        result.attempted += 1
        try:
            future = server.submit(inputs[i])
        except BackpressureError:
            result.failed += 1
            result.rejected += 1
            continue
        future.add_done_callback(lambda _f, i=i: done_at.__setitem__(i, clock()))
        pending.append((i, due, future))
        if queue_depth is not None:
            result.queue_depth_max = max(result.queue_depth_max, queue_depth())
    give_up = clock() + timeout_s
    for i, due, future in pending:
        try:
            prediction = future.result(timeout=max(0.0, give_up - clock()))
        except (FutureTimeout, ServeError):
            result.failed += 1
            continue
        if check is not None and not check(i, prediction):
            result.failed += 1
            continue
        # The callback has run by the time result() returns, except in the
        # instant between set_result and the callback; fall back to now.
        finished = done_at[i] if done_at[i] is not None else clock()
        result.latencies_s.append(finished - due)
        result.server_latencies_s.append(prediction.latency_s)
    result.wall_s = clock() - start
    return result
