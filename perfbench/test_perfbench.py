"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.openloop import run_rung
from perfbench.stats import growing_backlog, summarize, tail_level, valid_metric_name
from perfbench.tracer import PER_LAYER, Tracer
from perfbench.workloads import WORKLOADS, Ops, check_logits

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TestTailPercentile:
    @pytest.mark.parametrize(
        ("n", "level"),
        [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
         (999, 95.0), (1000, 99.0), (10_000, 99.9)],
    )
    def test_highest_level_with_ten_samples_beyond(self, n, level):
        assert tail_level(n) == level

    def test_summary_records_count_and_level(self):
        summary = summarize(range(1000))
        assert summary["n"] == 1000
        assert summary["tail_level"] == 99.0
        assert summary["tail"] == pytest.approx(np.percentile(np.arange(1000), 99))
        assert summary["p50"] == pytest.approx(499.5)

    def test_too_few_samples_fall_back_to_the_median(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary["tail_level"] == 50.0
        assert summary["tail"] == summary["p50"] == 2.0


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class _Prediction:
    def __init__(self, weights_version: int = 0):
        self.logits = np.zeros(10, dtype=np.float32)
        self.weights_version = weights_version
        self.latency_s = 0.0


class _StallingServer:
    """Answers instantly, except that submitting request ``stall_at`` blocks."""

    def __init__(self, clock: _FakeClock, stall_at: int, stall_s: float):
        self.clock, self.stall_at, self.stall_s = clock, stall_at, stall_s
        self.submitted = 0

    def submit(self, x) -> Future:
        if self.submitted == self.stall_at:
            self.clock.sleep(self.stall_s)
        self.submitted += 1
        future = Future()
        future.set_result(_Prediction())
        return future


class _RefusingServer:
    def __init__(self, refuse_at: int):
        self.refuse_at = refuse_at
        self.submitted = 0

    def submit(self, x) -> Future:
        from repro.errors import BackpressureError

        self.submitted += 1
        if self.submitted - 1 == self.refuse_at:
            raise BackpressureError("full")
        future = Future()
        future.set_result(_Prediction())
        return future


class TestOpenLoop:
    def test_latency_is_timed_from_the_due_time_across_a_stall(self):
        clock = _FakeClock()
        server = _StallingServer(clock, stall_at=2, stall_s=0.5)
        schedule = [0.0, 0.01, 0.02, 0.03, 0.04]
        result = run_rung(server, [None] * 5, schedule, clock=clock, sleep=clock.sleep)
        assert result.failed == 0
        assert result.latencies_s[:2] == pytest.approx([0.0, 0.0])
        # Request 2 was held 0.5 s inside submit; 3 and 4 were due while it
        # blocked, so they wait too, although the server answers instantly.
        assert result.latencies_s[2:] == pytest.approx([0.5, 0.49, 0.48])
        assert result.gen_lag_s[3:] == pytest.approx([0.49, 0.48])
        assert result.server_latencies_s == [0.0] * 5

    def test_refusal_counts_as_failure_and_is_not_retried(self):
        clock = _FakeClock()
        server = _RefusingServer(refuse_at=1)
        result = run_rung(server, [None] * 4, [0.0, 0.1, 0.2, 0.3], clock=clock, sleep=clock.sleep)
        assert server.submitted == 4
        assert (result.attempted, result.failed, result.rejected) == (4, 1, 1)
        assert len(result.latencies_s) == 3

    def test_wrong_response_counts_as_failure(self):
        clock = _FakeClock()
        server = _StallingServer(clock, stall_at=-1, stall_s=0.0)
        result = run_rung(
            server, [None] * 3, [0.0, 0.1, 0.2], check=lambda i, p: i != 1,
            clock=clock, sleep=clock.sleep,
        )
        assert (result.attempted, result.failed) == (3, 1)


class TestBacklog:
    def test_steady_queue_is_not_backlog(self):
        rng = np.random.default_rng(0)
        latencies = list(0.010 + rng.exponential(0.004, size=1000))
        assert not growing_backlog(latencies, limit_s=0.05)

    def test_growing_queue_is_backlog(self):
        latencies = list(np.linspace(0.010, 0.200, 1000))
        assert growing_backlog(latencies, limit_s=0.05)

    def test_one_late_spike_is_not_backlog(self):
        latencies = [0.01] * 999 + [0.5]
        assert not growing_backlog(latencies, limit_s=0.05)


class TestMetricNames:
    def test_every_name_matches_the_pattern(self):
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        assert names and all(valid_metric_name(n) for n in names)
        assert len(names) == len(set(names))

    def test_benchmark_file_matches_the_code(self):
        assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.E2E)
        assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


class TestChecks:
    def test_corrupted_reference_logit_is_a_failed_operation(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(8, 10)).astype(np.float32)
        ops = Ops()
        assert check_logits(ops, "clean", logits.copy(), logits)
        corrupted = logits.copy()
        corrupted[3, 7] = np.nextafter(corrupted[3, 7], np.float32(np.inf))
        assert not check_logits(ops, "corrupted", logits.copy(), corrupted)
        assert (ops.attempted, ops.failed) == (2, 1)
        assert "1 logit rows differ" in ops.problems[0]


class TestTracer:
    def test_self_times_add_up_to_the_outer_span(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.02))

        def outer_body():
            time.sleep(0.01)
            inner()

        outer = tracer.wrap("outer", outer_body)
        outer()
        (_, _, start, end), = [s for s in tracer.spans if s[0] == "outer"]
        assert tracer.self_ns["inner"] >= 0.02e9
        assert tracer.self_ns["outer"] + tracer.self_ns["inner"] == end - start
        assert tracer.self_ns["outer"] < end - start - 0.02e9 + 1

    def test_uninstall_restores_every_binding(self):
        import repro.approx.gemm as gemm
        import repro.quant.qfunction as qfunction
        from repro.serve.server import Server

        originals = (qfunction.approx_matmul, gemm.approx_matmul, Server.submit)
        tracer = Tracer()
        tracer.install()
        try:
            assert qfunction.approx_matmul is not originals[0]
            assert gemm.approx_matmul is qfunction.approx_matmul
        finally:
            tracer.uninstall()
        assert (qfunction.approx_matmul, gemm.approx_matmul, Server.submit) == originals
