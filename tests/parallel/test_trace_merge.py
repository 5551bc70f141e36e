"""Cross-process observability: span merge with parentage, exact metrics."""

import os

import pytest

from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import fork_available, map_workers

pytestmark = [pytest.mark.obs, pytest.mark.parallel]

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the process pool needs fork"
)


@pytest.fixture(autouse=True)
def clean_obs():
    tr.reset_tracing()
    met.reset_metrics()
    yield
    tr.disable_tracing()
    tr.reset_tracing()
    met.disable_metrics()
    met.reset_metrics()


def traced_work(i: int) -> int:
    """Worker body (module-level: process-picklable)."""
    with tr.span("work.item", item=i):
        met.observe("work.seconds", 0.001 * (i + 1))
        met.inc("work.items")
    return i * i


class TestProcessBackendSpans:
    @needs_fork
    def test_worker_spans_merge_with_correct_parentage(self):
        tr.enable_tracing()
        met.enable_metrics()
        with tr.span("dispatch"):
            results = map_workers(
                traced_work,
                list(range(4)),
                workers=2,
            )
        assert results == [0, 1, 4, 9]

        spans = tr.get_trace_recorder().spans()
        by_id = {s.span_id: s for s in spans}
        dispatch = next(s for s in spans if s.name == "dispatch")
        tasks = [s for s in spans if s.name == "parallel.task"]
        items = [s for s in spans if s.name == "work.item"]
        assert len(tasks) == 4 and len(items) == 4

        # every worker task parents onto the dispatch-site span, and every
        # work.item onto its surrounding parallel.task
        assert all(t.parent_id == dispatch.span_id for t in tasks)
        task_ids = {t.span_id for t in tasks}
        assert all(s.parent_id in task_ids for s in items)
        # no parent_id dangles outside the merged trace
        assert all(
            s.parent_id is None or s.parent_id in by_id for s in spans
        )
        # worker spans carry worker pids, not the parent's
        assert {s.pid for s in items} - {os.getpid()}
        assert sorted(s.attrs["item"] for s in items) == [0, 1, 2, 3]

    @needs_fork
    def test_worker_timestamps_are_wall_anchored(self):
        tr.enable_tracing()
        with tr.span("dispatch"):
            map_workers(
                traced_work,
                list(range(2)),
                workers=2,
            )
        spans = tr.get_trace_recorder().spans()
        dispatch = next(s for s in spans if s.name == "dispatch")
        for task in (s for s in spans if s.name == "parallel.task"):
            # worker clocks share the wall anchor: tasks start after the
            # dispatch span opened and end before it closed
            assert task.start_ns >= dispatch.start_ns
            assert task.end_ns <= dispatch.end_ns


class TestProcessBackendMetrics:
    @needs_fork
    def test_histogram_merge_matches_serial_exactly(self):
        met.enable_metrics()
        map_workers(
            traced_work,
            list(range(6)),
            workers=2,
        )
        merged = met.get_metrics().snapshot()

        met.reset_metrics()
        map_workers(traced_work, list(range(6)), workers=1)
        serial = met.get_metrics().snapshot()

        assert merged["counters"]["work.items"] == 6
        assert merged["counters"] == serial["counters"]
        m_hist, s_hist = (
            snap["histograms"]["work.seconds"] for snap in (merged, serial)
        )
        assert m_hist["buckets"] == s_hist["buckets"]
        assert m_hist["count"] == s_hist["count"] == 6
        assert m_hist["sum"] == pytest.approx(s_hist["sum"])
        assert m_hist["min"] == s_hist["min"]
        assert m_hist["max"] == s_hist["max"]

    @needs_fork
    def test_metrics_disabled_ships_nothing(self):
        map_workers(
            traced_work,
            list(range(2)),
            workers=2,
        )
        assert met.get_metrics().snapshot()["counters"] == {}
