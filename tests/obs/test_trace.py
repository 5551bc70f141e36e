"""repro.obs.trace: spans, parentage, export, self-time summaries."""

import os
import threading

import pytest

from repro.errors import ReproError
from repro.obs import metrics as met
from repro.obs import trace as tr

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_tracing():
    tr.reset_tracing()
    yield
    tr.disable_tracing()
    tr.reset_tracing()


class TestSpanBasics:
    def test_disabled_span_records_nothing(self):
        with tr.span("a"):
            pass
        assert len(tr.get_trace_recorder()) == 0

    def test_enabled_span_records(self):
        tr.enable_tracing()
        with tr.span("a", layer="conv1"):
            pass
        spans = tr.get_trace_recorder().spans()
        assert [s.name for s in spans] == ["a"]
        assert spans[0].attrs == {"layer": "conv1"}
        assert spans[0].parent_id is None
        assert spans[0].pid == os.getpid()
        assert spans[0].dur_ns >= 0

    def test_nesting_sets_parent(self):
        tr.enable_tracing()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        inner, outer = tr.get_trace_recorder().spans()
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # child is contained within the parent's interval
        assert inner.start_ns >= outer.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_current_span_id_tracks_stack(self):
        tr.enable_tracing()
        assert tr.current_span_id() is None
        with tr.span("a") as a:
            assert tr.current_span_id() == a._id
        assert tr.current_span_id() is None

    def test_span_ids_unique(self):
        tr.enable_tracing()
        for _ in range(10):
            with tr.span("x"):
                pass
        ids = [s.span_id for s in tr.get_trace_recorder().spans()]
        assert len(set(ids)) == 10

    def test_reset_inside_block_drops_sample(self):
        tr.enable_tracing()
        with tr.span("outer"):
            tr.reset_tracing()
            tr.enable_tracing()
        assert len(tr.get_trace_recorder()) == 0

    def test_tracing_context_manager_restores(self):
        assert not tr.enabled
        with tr.tracing() as recorder:
            assert tr.enabled
            with tr.span("a"):
                pass
            assert len(recorder) == 1
        assert not tr.enabled

    def test_exception_still_closes_span(self):
        tr.enable_tracing()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert [s.name for s in tr.get_trace_recorder().spans()] == ["boom"]


class TestThreads:
    def test_threads_get_independent_stacks(self):
        tr.enable_tracing()
        seen = []

        def worker():
            with tr.span("thread_root"):
                seen.append(tr.current_span_id())

        with tr.span("main_root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        spans = {s.name: s for s in tr.get_trace_recorder().spans()}
        # a new thread's root span does not inherit the spawning thread's span
        assert spans["thread_root"].parent_id is None
        assert spans["thread_root"].tid != spans["main_root"].tid


class TestProfilingBridge:
    """The two collection modes: record (--trace) and aggregate (--profile)."""

    def test_timer_opens_matching_span(self):
        # both modes on: the span is recorded and folded into counters
        with met.collecting_metrics() as registry:
            tr.enable_tracing(record=True, aggregate=True)
            with tr.span("approx.lut_gather", nbytes=8):
                pass
        assert [s.name for s in tr.get_trace_recorder().spans()] == [
            "approx.lut_gather"
        ]
        (row,) = tr.profile_summary(registry)["timers"]
        assert (row["name"], row["calls"], row["bytes"]) == ("approx.lut_gather", 1, 8)

    def test_timer_without_tracing_opens_nothing(self):
        # aggregate only (--profile without --trace): N spans, 0 records
        with met.collecting_metrics() as registry:
            tr.enable_tracing(record=False, aggregate=True)
            for _ in range(50):
                with tr.span("approx.lut_gather"):
                    with tr.span("approx.matmul_blas"):
                        pass
        assert len(tr.get_trace_recorder()) == 0
        rows = {r["name"]: r for r in tr.profile_summary(registry)["timers"]}
        assert rows["approx.lut_gather"]["calls"] == 50
        assert rows["approx.matmul_blas"]["calls"] == 50

    def test_context_carries_both_modes(self):
        tr.enable_tracing(record=False, aggregate=True)
        ctx = tr.trace_context()
        tr.disable_tracing()
        tr.adopt_context(ctx)  # simulates the forked worker
        assert tr.aggregating and not tr.enabled


class TestContextPropagation:
    def test_trace_context_captures_parent(self):
        tr.enable_tracing()
        with tr.span("root") as r:
            ctx = tr.trace_context()
        assert ctx.enabled
        assert ctx.parent_id == r._id
        assert ctx.trace_id == tr.get_trace_recorder().trace_id

    def test_adopt_and_drain(self):
        tr.enable_tracing()
        with tr.span("root"):
            ctx = tr.trace_context()
        parent_recorder = tr.get_trace_recorder()
        root = parent_recorder.spans()[0]

        tr.adopt_context(ctx)  # simulates the forked worker
        with tr.span("work"):
            pass
        shipped = tr.drain_spans()
        assert [s.name for s in shipped] == ["work"]
        assert shipped[0].parent_id == root.span_id
        assert tr.get_trace_recorder().trace_id == ctx.trace_id


class TestExport:
    def _sample_spans(self):
        tr.enable_tracing()
        with tr.span("outer", epoch=1):
            with tr.span("inner"):
                pass
            with tr.span("inner"):
                pass
        tr.disable_tracing()
        return tr.get_trace_recorder().spans()

    def test_chrome_round_trip(self, tmp_path):
        spans = self._sample_spans()
        path = tmp_path / "trace.json"
        tr.write_chrome_trace(path, spans)
        doc = __import__("json").loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == 3
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        reread = tr.read_chrome_trace(path)
        assert {s.span_id for s in reread} == {s.span_id for s in spans}
        by_id = {s.span_id: s for s in reread}
        for original in spans:
            back = by_id[original.span_id]
            assert back.name == original.name
            assert back.parent_id == original.parent_id
            assert back.start_ns == original.start_ns
            assert back.dur_ns == original.dur_ns

    def test_read_chrome_trace_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            tr.read_chrome_trace(tmp_path / "absent.json")

    def test_read_chrome_trace_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ReproError):
            tr.read_chrome_trace(bad)

    def test_self_time_subtracts_direct_children(self):
        # Synthetic whole-microsecond durations: the summary rounds its
        # seconds to 6 decimals, so measured (sub-µs) spans would make
        # "self == total - children" hold only when the roundings happen
        # to commute. Fixed durations keep the arithmetic exact.
        pid, tid = 1234, 1
        spans = [
            tr.SpanRecord("outer", "1234-1", None, 0, 5_000_000, pid, tid),
            tr.SpanRecord("inner", "1234-2", "1234-1", 1_000, 1_000_000, pid, tid),
            tr.SpanRecord("inner", "1234-3", "1234-1", 2_000_000, 2_000_000, pid, tid),
        ]
        rows = {r["name"]: r for r in tr.self_time_summary(spans)}
        assert rows["inner"]["calls"] == 2
        assert rows["outer"]["calls"] == 1
        assert rows["inner"]["total_s"] == pytest.approx(0.003, abs=1e-9)
        assert rows["outer"]["total_s"] == pytest.approx(0.005, abs=1e-9)
        assert rows["outer"]["self_s"] == pytest.approx(0.002, abs=1e-9)

    def test_render_flame_summary(self):
        spans = self._sample_spans()
        text = tr.render_flame_summary(spans, top=5)
        assert "outer" in text and "inner" in text
        assert "3 span(s)" in text
