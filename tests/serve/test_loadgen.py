"""Load generator: open-loop (Poisson) arrivals and report plumbing.

The open-loop guarantee: the arrival process is driven by the offered
rate alone — the dispatcher issues requests on its pre-drawn exponential
schedule regardless of how fast the server answers, and the report's
``achieved_rps`` stays within sampling tolerance of ``offered_rps``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import BackpressureError, ServeError
from repro.serve import Server, run_load
from repro.serve.server import Prediction

pytestmark = pytest.mark.serve


@pytest.fixture()
def server(quantized_model):
    srv = Server(quantized_model)
    srv.start()
    yield srv
    srv.stop()


class TestOpenLoop:
    def test_offered_rate_is_respected(self, server, tiny_dataset):
        offered = 300.0
        report = run_load(
            server, tiny_dataset, requests=150, mode="open", offered_rps=offered, seed=3
        )
        assert report.mode == "open"
        assert report.offered_rps == offered
        assert report.failed_requests == 0
        assert report.requests == 150
        # The dispatcher realizes one draw of the Poisson schedule; over
        # n arrivals the realized rate fluctuates by ~1/sqrt(n) (~8% at
        # n=150), so a 25% band is a real assertion, not a tautology.
        assert report.achieved_rps == pytest.approx(offered, rel=0.25)

    def test_slow_server_does_not_throttle_arrivals(self, server, tiny_dataset):
        """Unlike the closed loop, latency must not feed back into the
        offered rate: even when every request queues behind a batch, the
        dispatch rate tracks the schedule."""
        report = run_load(
            server,
            tiny_dataset,
            requests=80,
            mode="open",
            offered_rps=500.0,
            batch_fraction=0.5,
            batch_size=16,
            seed=7,
        )
        assert report.achieved_rps == pytest.approx(500.0, rel=0.3)
        # every arrival was issued exactly once: answered, or refused by
        # backpressure and counted as failed (open loop never retries)
        assert report.requests + report.failed_requests == 80
        assert report.failed_requests == report.rejected_retries

    def test_open_loop_requires_positive_rate(self, server, tiny_dataset):
        with pytest.raises(ServeError):
            run_load(server, tiny_dataset, requests=4, mode="open")
        with pytest.raises(ServeError):
            run_load(server, tiny_dataset, requests=4, mode="open", offered_rps=0.0)

    def test_unknown_mode_rejected(self, server, tiny_dataset):
        with pytest.raises(ServeError):
            run_load(server, tiny_dataset, requests=4, mode="poisson")


class _StallingServer:
    """Answers instantly, but every ``submit`` stalls its caller first;
    every ``reject_every``-th submit is refused with backpressure."""

    def __init__(self, stall_s: float, reject_every: int = 0):
        self.stall_s = stall_s
        self.reject_every = reject_every
        self.calls = 0
        self.rejected = 0

    def submit(self, x):
        self.calls += 1
        time.sleep(self.stall_s)
        if self.reject_every and self.calls % self.reject_every == 0:
            self.rejected += 1
            raise BackpressureError("queue full", retry_after_s=0.001)
        future = Future()
        future.set_result(Prediction(np.zeros(10), 0, 0, 0.0))
        return future

    def stats(self):
        return {"rejected": self.rejected}


class TestOpenLoopTiming:
    def test_latency_counts_from_due_time_through_a_stalled_dispatcher(
        self, tiny_dataset
    ):
        """The server answers at once, but each submit stalls 40 ms while
        arrivals are due every ~1 ms: request i goes out ~40·(i+1) ms
        after it was due, and that wait must show up in the latencies."""
        server = _StallingServer(stall_s=0.04)
        report = run_load(
            server, tiny_dataset, requests=8, mode="open", offered_rps=1000.0, seed=0
        )
        assert report.failed_requests == 0
        assert report.requests == 8
        # timing from dispatch would report ~40 ms; from the due time the
        # median request waited behind four stalls or more
        assert report.latency_p50_ms >= 4 * 40 * 0.9
        assert report.achieved_rps < 100.0

    def test_backpressure_fails_without_retry(self, tiny_dataset):
        server = _StallingServer(stall_s=0.0, reject_every=3)
        report = run_load(
            server, tiny_dataset, requests=9, mode="open", offered_rps=2000.0, seed=1
        )
        assert server.calls == 9  # one submit per request: nothing retried
        assert report.failed_requests == 3
        assert report.requests == 6
        assert report.rejected_retries == 3


class TestClosedLoopReport:
    def test_closed_loop_reports_no_rate_fields(self, server, tiny_dataset):
        report = run_load(server, tiny_dataset, requests=16, concurrency=4, seed=0)
        assert report.mode == "closed"
        assert report.offered_rps is None
        assert report.achieved_rps is None
        assert report.requests == 16
        payload = report.to_dict()
        assert payload["mode"] == "closed"
        assert np.isfinite(payload["latency_p95_ms"])
