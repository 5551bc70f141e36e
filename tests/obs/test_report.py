"""`repro report`: summarising a synthetic JSONL event stream."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import events as ev
from repro.obs import metrics as met
from repro.obs.report import render_summary, summarize_run

pytestmark = pytest.mark.obs


@pytest.fixture
def run_log(tmp_path):
    """A synthetic but fully representative pipeline run."""
    path = tmp_path / "run.jsonl"
    ticks = iter([float(i) for i in range(100)])
    log = ev.EventLog(run_id="synth", clock=lambda: next(ticks))
    log.add_sink(ev.JsonlSink(path))
    log.run_start(command="approximate", config={"multiplier": "truncated4"})
    log.stage("quantization", "start")
    log.epoch(epoch=1, epochs=2, loss=2.0, accuracy=0.50, epoch_time=1.5)
    log.epoch(epoch=2, epochs=2, loss=1.0, accuracy=0.60, epoch_time=2.5)
    log.eval("quantization/after_ft", 0.60)
    log.stage("quantization", "end", accuracy_before=0.40, accuracy_after=0.60,
              duration=12.5)
    log.stage("approximation", "start")
    log.eval("approximation/after_ft", 0.5833)
    log.stage("approximation", "end", accuracy_before=0.10, accuracy_after=0.5833)
    log.emit(
        ev.PROFILE,
        timers=[{"name": "approx.lut_gather", "calls": 7, "total": 0.25}],
        counters=[
            {"name": "plan_cache.hit", "calls": 30},
            {"name": "plan_cache.miss", "calls": 10},
            {"name": "plan_cache.build", "calls": 10, "sum": 4096.0},
            {"name": "plan_cache.repair", "calls": 2, "sum": 8192.0},
            {"name": "ge.montecarlo_simulations", "calls": 50},
        ],
    )
    log.run_end(status="ok", exit_code=0)
    log.close()
    return path


class TestSummarize:
    def test_core_fields(self, run_log):
        summary = summarize_run(run_log)
        assert summary.run_id == "synth"
        assert summary.command == "approximate"
        assert summary.status == "ok"
        assert summary.num_events == 11
        assert summary.wall_time == 11.0  # t of the last record

    def test_accuracy_and_epoch_times(self, run_log):
        summary = summarize_run(run_log)
        assert summary.accuracy_trajectory == [0.50, 0.60]
        assert summary.epoch_times == [1.5, 2.5]
        assert summary.train_loss == [2.0, 1.0]

    def test_final_accuracy_is_last_eval(self, run_log):
        summary = summarize_run(run_log)
        assert summary.final_accuracy == 0.5833
        assert summary.final_accuracy_name == "approximation/after_ft"
        assert summary.evals == [
            ("quantization/after_ft", 0.60),
            ("approximation/after_ft", 0.5833),
        ]

    def test_stage_durations(self, run_log):
        summary = summarize_run(run_log)
        by_name = {s.name: s for s in summary.stages}
        # explicit duration wins over the timestamp difference
        assert by_name["quantization"].duration == 12.5
        # no explicit duration -> end.t - start.t (events at t=7..9 -> 2.0)
        assert by_name["approximation"].duration == 2.0
        assert by_name["approximation"].accuracy_after == 0.5833

    def test_profile_rows(self, run_log):
        summary = summarize_run(run_log)
        assert summary.hottest[0]["name"] == "approx.lut_gather"

    def test_fallback_to_epoch_accuracy(self, tmp_path):
        path = tmp_path / "train.jsonl"
        with ev.logging_to(path) as log:
            log.run_start(command="train", config={})
            log.epoch(epoch=1, epochs=1, loss=0.1, accuracy=0.75)
            log.run_end(status="ok")
        summary = summarize_run(path)
        assert summary.final_accuracy == 0.75
        assert summary.final_accuracy_name == "last epoch"

    def test_empty_log_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            summarize_run(path)


class TestTruncatedLog:
    """A crashed run leaves a half-written final line; see docs/RESILIENCE.md."""

    @pytest.fixture
    def truncated_log(self, run_log):
        text = run_log.read_text()
        run_log.write_text(text + '{"type": "epoch", "run": "synth", "se')
        return run_log

    def test_tolerant_mode_skips_final_line(self, truncated_log):
        with pytest.warns(UserWarning, match="truncated final record"):
            summary = summarize_run(truncated_log)
        assert summary.skipped_records == 1
        assert summary.num_events == 11  # the complete records still count

    def test_strict_mode_raises(self, truncated_log):
        with pytest.raises(ReproError, match="invalid JSON"):
            summarize_run(truncated_log, strict=True)

    def test_mid_file_corruption_always_raises(self, run_log):
        lines = run_log.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # corrupt a middle record
        run_log.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReproError):
            summarize_run(run_log)

    def test_render_mentions_skipped_records(self, truncated_log):
        with pytest.warns(UserWarning):
            text = render_summary(summarize_run(truncated_log))
        assert "skipped 1 truncated record" in text

    def test_read_events_collects_skipped_lines(self, truncated_log):
        skipped = []
        with pytest.warns(UserWarning):
            records = ev.read_events(truncated_log, strict=False, skipped=skipped)
        assert len(records) == 11
        assert skipped == ['{"type": "epoch", "run": "synth", "se']


class TestRender:
    def test_mentions_every_section(self, run_log):
        text = render_summary(summarize_run(run_log))
        assert "run synth: approximate" in text
        assert "status: ok" in text
        assert "quantization/after_ft" in text
        assert "accuracy by epoch [%]: 50.00  60.00" in text
        assert "epoch wall time [s]: 1.50  2.50  (total 4.00, mean 2.00)" in text
        assert "approx.lut_gather" in text
        # identical formatting to the `repro approximate` result line
        assert "final accuracy:   58.33% (approximation/after_ft)" in text

    def test_minimal_log_renders(self, tmp_path):
        path = tmp_path / "min.jsonl"
        with ev.logging_to(path) as log:
            log.emit("custom")
        text = render_summary(summarize_run(path))
        assert "(no run_end event)" in text


class TestPlanCacheCounters:
    def test_counters_are_parsed_from_the_profile_event(self, run_log):
        summary = summarize_run(run_log)
        assert len(summary.counters) == 5
        cache = summary.plan_cache
        assert cache["hit"] == 30
        assert cache["miss"] == 10
        assert cache["build"] == 10
        assert cache["build_bytes"] == 4096
        assert cache["repair_bytes"] == 8192
        # non-plan counters are kept out of the plan-cache view
        assert "montecarlo_simulations" not in cache

    def test_render_includes_plan_cache_section(self, run_log):
        text = render_summary(summarize_run(run_log))
        assert "plan cache:" in text
        assert "hits 30  misses 10" in text
        assert "repaired 2  (75.0% hit)" in text

    def test_render_counts_bitplane_builds(self, tmp_path):
        path = tmp_path / "bitplane.jsonl"
        with ev.logging_to(path) as log:
            log.emit(
                ev.PROFILE,
                counters=[
                    {"name": "plan_cache.build", "calls": 4, "sum": 512.0},
                    {"name": "plan_cache.build_bitplane", "calls": 3},
                ],
            )
        summary = summarize_run(path)
        assert summary.plan_cache["build_bitplane"] == 3
        assert "plans built 4 (512 bytes, 3 bit-plane)" in render_summary(summary)

    def test_render_omits_section_without_plan_counters(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        log = ev.EventLog(run_id="bare")
        log.add_sink(ev.JsonlSink(path))
        log.run_start(command="x")
        log.run_end(status="ok", exit_code=0)
        log.close()
        text = render_summary(summarize_run(path))
        assert "plan cache:" not in text


def _histogram_payload(values):
    hist = met.Histogram("h")
    for value in values:
        hist.observe(value)
    return hist.to_dict()


@pytest.fixture
def metrics_log(tmp_path):
    """A run whose log carries metrics snapshots and a trace event."""
    path = tmp_path / "metrics.jsonl"
    ticks = iter([float(i) for i in range(100)])
    log = ev.EventLog(run_id="synth", clock=lambda: next(ticks))
    log.add_sink(ev.JsonlSink(path))
    log.run_start(command="approximate", config={})
    log.emit(
        ev.METRICS,
        scope="epoch",
        metrics={
            "counters": {"plan_cache.hit": 10, "plan_cache.miss": 10},
            "gauges": {},
            "histograms": {},
        },
    )
    log.emit(
        ev.METRICS,
        scope="final",
        metrics={
            "counters": {"plan_cache.hit": 90, "plan_cache.miss": 10},
            "gauges": {"layer.eps_mean{layer=conv1}": 0.25},
            "histograms": {
                "eval.batch_seconds": _histogram_payload(
                    [0.010, 0.011, 0.012, 0.013, 0.050]
                )
            },
        },
    )
    log.emit(
        ev.TRACE,
        path="trace.json",
        spans=42,
        top_self_time=[
            {"name": "approx.matmul", "calls": 12, "total_s": 0.5, "self_s": 0.4}
        ],
    )
    log.run_end(status="ok", exit_code=0)
    log.close()
    return path


class TestMetricsSections:
    def test_last_snapshot_wins(self, metrics_log):
        summary = summarize_run(metrics_log)
        assert summary.metrics_snapshots == 2
        assert summary.metrics["counters"]["plan_cache.hit"] == 90

    def test_latency_quantiles_match_numpy_bound(self, metrics_log):
        import numpy as np

        summary = summarize_run(metrics_log)
        quantiles = summary.latency_quantiles()["eval.batch_seconds"]
        samples = [0.010, 0.011, 0.012, 0.013, 0.050]
        for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
            exact = float(np.quantile(samples, q, method="inverted_cdf"))
            assert abs(quantiles[label] - exact) / exact <= met.QUANTILE_REL_ERROR

    def test_hit_rate_series(self, metrics_log):
        summary = summarize_run(metrics_log)
        series = summary.plan_cache_hit_rate()
        assert [rate for _, rate in series] == [0.5, 0.9]

    def test_trace_event_is_summarized(self, metrics_log):
        summary = summarize_run(metrics_log)
        assert summary.trace["path"] == "trace.json"
        assert summary.trace["spans"] == 42

    def test_render_sections(self, metrics_log):
        text = render_summary(summarize_run(metrics_log))
        assert "metrics (2 snapshot(s), quantile error <= 4.4%):" in text
        assert "eval.batch_seconds" in text
        assert "layer.eps_mean{layer=conv1}" in text
        assert "plan cache hit rate over time [%]: 50.0  90.0" in text
        assert "chrome trace: trace.json (42 span(s))" in text
        assert "approx.matmul" in text

    def test_to_dict_is_json_complete(self, metrics_log):
        summary = summarize_run(metrics_log)
        payload = summary.to_dict()
        json.dumps(payload)  # the --format json path must serialize
        assert "_hit_rate_series" not in payload
        assert payload["quantile_rel_error"] == met.QUANTILE_REL_ERROR
        assert "p95" in payload["latency_quantiles"]["eval.batch_seconds"]
        assert payload["plan_cache_hit_rate"][-1][1] == 0.9
        assert payload["metrics_snapshots"] == 2
        assert {e["name"] for e in payload["evals"]} == set()

    def test_render_omits_metrics_without_events(self, run_log):
        text = render_summary(summarize_run(run_log))
        assert "quantile error" not in text
        assert "hit rate over time" not in text
