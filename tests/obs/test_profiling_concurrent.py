"""Concurrency safety of span aggregation and the metrics registry.

``--profile`` folds every finished span into per-name counters from
whatever thread it ran on: no increment may be lost under thread
contention, self time must be attributed per thread, and a reset inside
an open span must drop that sample instead of crashing in ``__exit__``.
"""

import sys
import threading

import pytest

from repro.obs import metrics as met
from repro.obs import trace as tr

pytestmark = [pytest.mark.obs, pytest.mark.parallel]


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


def _profile_on():
    tr.enable_tracing(record=False, aggregate=True)
    met.enable_metrics()


def _reset():
    """What a fresh ``--profile`` epoch does: drop spans and counters."""
    tr.reset_tracing()
    met.reset_metrics()


def _rows(registry=None):
    summary = tr.profile_summary(registry)
    return {row["name"]: row for row in summary["timers"] + summary["counters"]}


@pytest.fixture
def fast_thread_switching():
    """Force frequent GIL handoffs so races surface deterministically."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


class TestConcurrentStress:
    def test_no_lost_or_corrupt_stats_under_contention(self, fast_thread_switching):
        """N threads x nested spans x counters: every sample lands exactly once."""
        _profile_on()
        num_threads, iterations = 8, 2000
        failures: list[BaseException] = []

        def work():
            try:
                for _ in range(iterations):
                    with tr.span("stress.outer", nbytes=10):
                        with tr.span("stress.inner"):
                            pass
                    met.inc("stress.items", 2)
                    met.observe("stress.sized", 5)
            except BaseException as exc:  # noqa: BLE001 — recorded for the assert
                failures.append(exc)

        threads = [threading.Thread(target=work) for _ in range(num_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not failures, failures
        expected = num_threads * iterations
        rows = _rows()
        outer, inner = rows["stress.outer"], rows["stress.inner"]
        assert outer["calls"] == expected
        assert outer["bytes"] == 10 * expected
        assert inner["calls"] == expected
        assert rows["stress.items"]["calls"] == 2 * expected
        assert rows["stress.sized"]["calls"] == expected
        assert rows["stress.sized"]["sum"] == 5 * expected
        # nesting attribution stays sane: child time never exceeds the parent
        assert 0.0 <= outer["self"] <= outer["total"] + 1e-6
        assert inner["total"] <= outer["total"] + 1e-6

    def test_per_thread_nesting_attribution(self):
        """A child on one thread never attributes into a parent on another."""
        _profile_on()
        barrier = threading.Barrier(2)

        def outer_only():
            barrier.wait()
            with tr.span("attr.parent"):
                barrier.wait()  # hold the parent open while the peer times

        def inner_only():
            barrier.wait()
            with tr.span("attr.unrelated"):
                pass
            barrier.wait()

        threads = [threading.Thread(target=outer_only), threading.Thread(target=inner_only)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        parent = _rows()["attr.parent"]
        # with a shared stack the unrelated span would subtract from the
        # parent's self time; per-thread stacks keep it untouched
        assert parent["self"] == pytest.approx(parent["total"])


class TestResetDuringTimer:
    def test_reset_inside_open_block_does_not_crash(self):
        _profile_on()
        with tr.span("stale"):
            _reset()
        # the open block's sample belonged to the discarded epoch
        assert "stale" not in _rows()

    def test_reset_inside_nested_blocks(self):
        _profile_on()
        with tr.span("outer"):
            with tr.span("inner"):
                _reset()
        rows = _rows()
        assert "outer" not in rows
        assert "inner" not in rows

    def test_fresh_timers_after_mid_block_reset_record_normally(self):
        _profile_on()
        with tr.span("old"):
            _reset()
            with tr.span("new"):
                pass
        rows = _rows()
        assert rows["new"]["calls"] == 1
        assert "old" not in rows


class TestMergeReport:
    """Worker rows reach the parent through ``MetricsRegistry.merge``."""

    def test_merge_aggregates_same_names(self):
        _profile_on()
        with tr.span("m.t", nbytes=4):
            pass
        met.inc("m.c", 3)
        registry = met.get_metrics()
        registry.merge(registry.snapshot())
        rows = _rows()
        assert rows["m.t"]["calls"] == 2
        assert rows["m.t"]["bytes"] == 8
        assert rows["m.c"]["calls"] == 6

    def test_merge_creates_missing_names(self):
        worker = met.MetricsRegistry()
        previous = met.set_metrics(worker)
        try:
            with tr.tracing(record=False, aggregate=True):
                with tr.span("w.only", nbytes=7):
                    pass
            worker.inc("w.count", 9)
        finally:
            met.set_metrics(previous)
        met.get_metrics().merge(worker.snapshot())
        rows = _rows()
        assert rows["w.only"]["calls"] == 1
        assert rows["w.only"]["bytes"] == 7
        assert rows["w.count"]["calls"] == 9

    def test_merge_saturates(self):
        snapshot = {"counters": {"sat": met.COUNTER_MAX}}
        registry = met.get_metrics()
        registry.merge(snapshot)
        registry.merge(snapshot)
        assert registry.snapshot()["counters"]["sat"] == met.COUNTER_MAX
