"""``--profile`` span aggregation: per-name timers, self time, counters, saturation."""

import time

import pytest

from repro.obs import metrics as met
from repro.obs import trace as tr

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_state():
    tr.reset_tracing()
    tr.disable_tracing()
    met.reset_metrics()
    met.disable_metrics()
    yield
    tr.reset_tracing()
    tr.disable_tracing()
    met.reset_metrics()
    met.disable_metrics()


def _aggregate():
    tr.enable_tracing(record=False, aggregate=True)


def _timer(name):
    rows = {row["name"]: row for row in tr.profile_summary()["timers"]}
    return rows.get(name)


def _counter(name):
    rows = {row["name"]: row for row in tr.profile_summary()["counters"]}
    return rows.get(name)


class TestTimer:
    def test_disabled_timer_records_nothing(self):
        with tr.span("idle"):
            pass
        assert tr.profile_summary()["timers"] == []
        assert len(tr.get_trace_recorder()) == 0

    def test_aggregation_by_name(self):
        _aggregate()
        for _ in range(3):
            with tr.span("work", nbytes=100):
                pass
        stat = _timer("work")
        assert stat["calls"] == 3
        assert stat["bytes"] == 300
        assert stat["total"] >= 0.0

    def test_nesting_parent_includes_child(self):
        _aggregate()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.02)
        outer, inner = _timer("outer"), _timer("inner")
        assert inner["total"] >= 0.02
        assert outer["total"] >= inner["total"]
        # self time excludes the directly nested child
        assert outer["self"] <= outer["total"] - inner["total"] + 1e-3

    def test_sibling_children_both_subtracted(self):
        _aggregate()
        with tr.span("parent"):
            with tr.span("child"):
                time.sleep(0.01)
            with tr.span("child"):
                time.sleep(0.01)
        child, parent = _timer("child"), _timer("parent")
        assert child["calls"] == 2
        assert parent["self"] <= parent["total"] - child["total"] + 1e-3

    def test_enable_mid_block_does_not_crash(self):
        with tr.span("late"):
            _aggregate()
        # the block started disabled, so nothing was recorded
        assert _timer("late") is None


class TestCounters:
    def test_count_accumulates(self):
        met.enable_metrics()
        met.inc("items", 5)
        met.inc("items", 2)
        met.observe("alloc", 10)
        met.observe("alloc", 20)
        assert _counter("items")["calls"] == 7
        # a sized event is a histogram: its count and its summed size
        assert _counter("alloc")["calls"] == 2
        assert _counter("alloc")["sum"] == 30

    def test_disabled_count_is_noop(self):
        met.inc("items", 5)
        assert tr.profile_summary()["counters"] == []

    def test_counter_saturates_instead_of_overflowing(self):
        met.enable_metrics()
        met.inc("big", met.COUNTER_MAX - 1)
        met.inc("big", 12345)
        assert _counter("big")["calls"] == met.COUNTER_MAX  # clamped to int64 max
        counter = met.Counter("direct")
        counter.inc(met.COUNTER_MAX + 10**9)
        assert counter.value == met.COUNTER_MAX

    def test_timer_call_saturation(self):
        registry = met.get_metrics()
        registry.inc("span.calls", met.COUNTER_MAX, span="x")
        registry.inc("span.bytes", met.COUNTER_MAX, span="x")
        _aggregate()
        with tr.span("x", nbytes=met.COUNTER_MAX):
            pass
        stat = _timer("x")
        assert stat["calls"] == met.COUNTER_MAX
        assert stat["bytes"] == met.COUNTER_MAX


class TestReport:
    def test_top_orders_by_total(self):
        _aggregate()
        with tr.span("slow"):
            time.sleep(0.02)
        with tr.span("fast"):
            pass
        top = tr.profile_summary()["timers"][:2]
        assert [row["name"] for row in top] == ["slow", "fast"]

    def test_to_table_and_dict(self):
        _aggregate()
        met.enable_metrics()
        with tr.span("t1", nbytes=1_000_000):
            pass
        met.inc("c1", 3)
        payload = tr.profile_summary()
        table = tr.render_profile(payload)
        assert "t1" in table and "c1" in table
        assert payload["timers"][0]["name"] == "t1"
        assert payload["timers"][0]["bytes"] == 1_000_000
        assert payload["counters"][0]["calls"] == 3

    def test_profiled_context_resets_and_fills_report(self):
        _aggregate()
        with tr.span("stale"):
            pass
        with met.collecting_metrics() as registry, tr.tracing(
            record=False, aggregate=True
        ):
            with tr.span("fresh"):
                pass
        rows = {row["name"]: row for row in tr.profile_summary(registry)["timers"]}
        assert "stale" not in rows
        assert rows["fresh"]["calls"] == 1
        # aggregation was on before the block, so it stays on afterwards
        assert tr.aggregating

    def test_profiled_restores_disabled_state(self):
        with tr.tracing(record=False, aggregate=True):
            with tr.span("x"):
                pass
        assert not tr.aggregating and not tr.enabled
        assert _timer("x")["calls"] == 1


class TestBoundedMemory:
    def test_spans_under_profile_keep_no_records(self):
        _aggregate()
        for i in range(1000):
            with tr.span(f"name{i % 3}", nbytes=1):
                pass
        # every span was folded into counters and dropped
        assert len(tr.get_trace_recorder()) == 0
        timers = tr.profile_summary()["timers"]
        assert sorted(row["name"] for row in timers) == ["name0", "name1", "name2"]
        assert sum(row["calls"] for row in timers) == 1000
        # memory is bounded by distinct names: four series per name
        assert len(met.get_metrics().snapshot()["counters"]) == 3 * 4


class TestHotPathsAreInstrumented:
    def test_approx_matmul_hits_timers_and_counters(self, profiled):
        import numpy as np

        from repro.approx import get_multiplier
        from repro.approx.gemm import approx_matmul

        rng = np.random.default_rng(0)
        a = rng.integers(-100, 100, size=(8, 12)).astype(np.int32)
        b = rng.integers(-7, 8, size=(12, 4)).astype(np.int32)
        with profiled() as rows:
            approx_matmul(a, b, get_multiplier("truncated4"))
        assert rows["approx.lut_gather"]["calls"] == 1
        assert rows["approx.matmul_blas"]["calls"] == 1
        assert rows["approx.lut_gathered_values"]["calls"] >= 1

    def test_im2col_and_lut_gather_hit_timers(self, profiled):
        import numpy as np

        from repro.approx import get_multiplier
        from repro.approx.gemm import approx_matmul
        from repro.autograd.im2col import im2col

        a = np.arange(-12, 12, dtype=np.int32).reshape(4, 6)
        b = np.tile(np.array([1, -1, 2], dtype=np.int32), (6, 1))  # |w| in {1, 2}
        with profiled() as rows:
            im2col(np.zeros((1, 2, 6, 6), dtype=np.float32), (3, 3))
            approx_matmul(a, b, get_multiplier("truncated4"))
        assert rows["autograd.im2col"]["calls"] == 1
        # one (4, 6) gather per distinct nonzero weight magnitude
        assert rows["approx.lut_gathered_elems"]["calls"] == 4 * 6 * 2

    def test_montecarlo_hits_timer(self, profiled):
        from repro.approx import get_multiplier
        from repro.ge.montecarlo import profile_multiplier_error

        with profiled() as rows:
            profile_multiplier_error(
                get_multiplier("truncated4"), num_simulations=2, gemm_rows=4,
                reduce_dim=6, out_dim=2,
            )
        assert rows["ge.montecarlo_profile"]["calls"] == 1
        assert rows["ge.montecarlo_simulations"]["calls"] == 2
        # nested exact/approx GEMM spans attribute into the MC profile
        assert rows["approx.exact_matmul"]["calls"] >= 2
