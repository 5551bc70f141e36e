"""Request queue and dynamic micro-batching for :mod:`repro.serve`.

The queue is the serving system's admission-control point and its batch
former. Requests are indivisible units of one or more samples; replica
workers pull *micro-batches* — runs of queued requests coalesced up to
``max_batch`` samples — waiting at most the configured deadline measured
from the oldest queued request's arrival. The deadline math
(``docs/SERVING.md``): a request admitted at time ``t`` starts executing
no later than ``t + deadline`` as long as a replica is free, because the
batch containing it is released the moment its oldest member's deadline
expires, full or not.

Admission control is a bound on queued *samples*: a submit that would
push the queue past ``max_samples`` raises
:class:`~repro.errors.BackpressureError` immediately (reject-with-
retry-after, never a hang), with a retry hint computed by the server
from its recent throughput.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable

import numpy as np

from repro.errors import BackpressureError, ServeError


class Request:
    """One queued inference request: samples plus the future to resolve.

    ``single`` marks requests submitted as one bare sample — their future
    resolves to a single logits row rather than a batch.
    """

    __slots__ = ("x", "future", "samples", "single", "enqueued_perf", "enqueued_ns")

    def __init__(self, x: np.ndarray, single: bool, enqueued_ns: int = 0):
        self.x = x
        self.future: Future = Future()
        self.samples = int(x.shape[0])
        self.single = single
        self.enqueued_perf = time.perf_counter()
        self.enqueued_ns = enqueued_ns  # trace-anchored; 0 when tracing is off


class RequestQueue:
    """Bounded FIFO of :class:`Request` with micro-batch extraction.

    ``retry_after_hint`` supplies the backpressure hint (seconds) at
    rejection time — the server wires in a throughput-based estimate.
    """

    def __init__(self, max_samples: int, retry_after_hint: Callable[[], float] | None = None):
        if max_samples < 1:
            raise ServeError(f"queue depth must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._retry_after_hint = retry_after_hint
        self._cond = threading.Condition()
        self._items: deque[Request] = deque()
        self._samples = 0
        self._closed = False

    # -- producer side ----------------------------------------------------
    def put(self, request: Request) -> None:
        """Admit ``request`` or reject it; never blocks.

        Raises :class:`~repro.errors.ServeError` once the queue is closed
        and :class:`~repro.errors.BackpressureError` when admission would
        exceed the sample bound. A single oversize request (more samples
        than the bound) is rejected outright — it could never be admitted.
        """
        with self._cond:
            if self._closed:
                raise ServeError("serving queue is closed; the server is stopping")
            if self._samples + request.samples > self.max_samples:
                hint = self._retry_after_hint() if self._retry_after_hint else 0.05
                raise BackpressureError(
                    f"serving queue at depth {self._samples}/{self.max_samples} "
                    f"samples cannot admit {request.samples} more; retry in "
                    f"~{hint:.3f}s",
                    retry_after_s=hint,
                )
            self._items.append(request)
            self._samples += request.samples
            self._cond.notify()

    # -- consumer side ----------------------------------------------------
    def next_batch(self, max_batch: int, deadline_s: float) -> list[Request] | None:
        """The next micro-batch, or ``None`` once closed and drained.

        Blocks until at least one request is queued, then coalesces whole
        requests while the batch stays within ``max_batch`` samples and
        the oldest member's deadline has not expired. A first request
        larger than ``max_batch`` ships alone (requests are indivisible).
        Closing the queue releases partial batches immediately.
        """
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait()
            first = self._items.popleft()
            batch = [first]
            total = first.samples
            release_at = first.enqueued_perf + deadline_s
            while total < max_batch:
                if self._items:
                    if total + self._items[0].samples > max_batch:
                        break
                    request = self._items.popleft()
                    batch.append(request)
                    total += request.samples
                    continue
                if self._closed:
                    break
                remaining = release_at - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            self._samples -= total
            self._cond.notify()
            return batch

    # -- lifecycle / introspection ----------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop admission. ``drain=False`` also fails every queued future."""
        with self._cond:
            self._closed = True
            if not drain:
                while self._items:
                    request = self._items.popleft()
                    self._samples -= request.samples
                    if request.future.set_running_or_notify_cancel():
                        request.future.set_exception(
                            ServeError("server stopped before the request ran")
                        )
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def depth_samples(self) -> int:
        """Samples currently queued (the admission-control quantity)."""
        with self._cond:
            return self._samples
