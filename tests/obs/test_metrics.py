"""repro.obs.metrics: buckets, exact merge, quantile bounds, exporters."""

import json
import math

import numpy as np
import pytest

from repro.obs import events as obs_events
from repro.obs import metrics as met

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_metrics():
    met.reset_metrics()
    yield
    met.disable_metrics()
    met.reset_metrics()


class TestBucketLayout:
    def test_underflow_bucket(self):
        for value in (0.0, -1.0, 2.0**met.MIN_EXP / 2, float("nan")):
            assert met.bucket_index(value) == 0

    def test_overflow_bucket(self):
        assert met.bucket_index(2.0**met.MAX_EXP) == met.NUM_BUCKETS - 1
        assert met.bucket_index(float("inf")) == met.NUM_BUCKETS - 1

    def test_value_falls_inside_its_bounds(self):
        rng = np.random.default_rng(0)
        for value in 10.0 ** rng.uniform(-8, 9, size=200):
            lo, hi = met.bucket_bounds(met.bucket_index(value))
            assert lo <= value < hi

    def test_bounds_ratio_matches_error_bound(self):
        lo, hi = met.bucket_bounds(met.bucket_index(1.0))
        # geometric midpoint of a bucket is within QUANTILE_REL_ERROR of
        # both edges: sqrt(hi/lo) == 1 + QUANTILE_REL_ERROR
        assert math.sqrt(hi / lo) == pytest.approx(1.0 + met.QUANTILE_REL_ERROR)


class TestSeriesKey:
    def test_round_trip(self):
        key = met.series_key("lat", {"layer": "conv1", "op": "gemm"})
        assert key == "lat{layer=conv1,op=gemm}"
        assert met.split_series_key(key) == ("lat", {"layer": "conv1", "op": "gemm"})

    def test_untagged(self):
        assert met.series_key("lat", {}) == "lat"
        assert met.split_series_key("lat") == ("lat", {})


class TestRegistry:
    def test_disabled_helpers_are_noops(self):
        met.inc("c")
        met.set_gauge("g", 1.0)
        met.observe("h", 1.0)
        snap = met.get_metrics().snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_enabled_helpers_record(self):
        met.enable_metrics()
        met.inc("c", 2)
        met.inc("c")
        met.set_gauge("g", 1.5, layer="fc")
        met.observe("h", 0.25)
        snap = met.get_metrics().snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g{layer=fc}": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_histogram_exact_stats(self):
        hist = met.Histogram("h")
        for value in (0.5, 1.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == pytest.approx(7.5)
        assert hist.mean == pytest.approx(7.5 / 4)
        assert hist.min == 0.5
        assert hist.max == 4.0

    def test_collecting_metrics_restores(self):
        assert not met.enabled
        with met.collecting_metrics() as registry:
            assert met.enabled
            met.observe("h", 1.0)
            assert registry.snapshot()["histograms"]["h"]["count"] == 1
        assert not met.enabled


class TestMerge:
    def test_merge_counters_add_gauges_overwrite(self):
        a, b = met.MetricsRegistry(), met.MetricsRegistry()
        a.inc("c", 2)
        a.set_gauge("g", 1.0)
        b.inc("c", 3)
        b.set_gauge("g", 9.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 9.0

    def test_histogram_merge_is_exact(self):
        rng = np.random.default_rng(1)
        values = 10.0 ** rng.uniform(-4, 2, size=300)
        whole = met.Histogram("h")
        parts = [met.Histogram("h") for _ in range(3)]
        for i, value in enumerate(values):
            whole.observe(value)
            parts[i % 3].observe(value)
        merged = met.Histogram("h")
        for part in parts:
            merged.merge(part)
        assert merged.buckets() == whole.buckets()
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert merged.min == whole.min and merged.max == whole.max

    def test_merge_rejects_foreign_layout(self):
        hist = met.Histogram("h")
        payload = met.Histogram("h").to_dict()
        payload["layout"] = {"subbuckets": 4, "min_exp": -10, "max_exp": 10}
        with pytest.raises(ValueError, match="incompatible bucket layout"):
            hist.merge(payload)

    def test_histogram_from_dict_round_trip(self):
        hist = met.Histogram("h")
        for value in (0.1, 0.2, 0.4):
            hist.observe(value)
        back = met.histogram_from_dict("h", hist.to_dict())
        assert back.buckets() == hist.buckets()
        assert back.quantile(0.5) == hist.quantile(0.5)


class TestQuantiles:
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_within_documented_bound_of_numpy(self, q):
        rng = np.random.default_rng(2)
        # lognormal latencies: the shape the streaming histogram targets
        samples = rng.lognormal(mean=-5.0, sigma=1.2, size=2000)
        hist = met.Histogram("h")
        for value in samples:
            hist.observe(value)
        exact = float(np.quantile(samples, q, method="inverted_cdf"))
        streamed = hist.quantile(q)
        assert abs(streamed - exact) / exact <= met.QUANTILE_REL_ERROR

    def test_empty_histogram_has_no_quantile(self):
        assert met.Histogram("h").quantile(0.5) is None

    def test_single_sample_is_exact(self):
        hist = met.Histogram("h")
        hist.observe(0.125)
        assert hist.quantile(0.5) == pytest.approx(0.125, rel=1e-12)

    def test_snapshot_quantiles_labels(self):
        hist = met.Histogram("h")
        for value in np.linspace(0.01, 1.0, 50):
            hist.observe(float(value))
        q = met.snapshot_quantiles(hist.to_dict())
        assert set(q) == {"p50", "p95", "p99"}
        assert q["p50"] <= q["p95"] <= q["p99"]


class TestEmitSnapshot:
    def test_emits_metrics_event(self):
        met.enable_metrics()
        met.inc("c")
        sink = obs_events.CollectingSink()
        log = obs_events.EventLog(run_id="synth")
        log.add_sink(sink)
        record = met.emit_snapshot(log, scope="epoch", epoch=3)
        assert record["type"] == obs_events.METRICS
        assert record["epoch"] == 3
        assert record["metrics"]["counters"] == {"c": 1}
        assert sink.records[-1] is record
        json.dumps(record)  # must stay JSONL-serializable

    def test_disabled_returns_none(self):
        assert met.emit_snapshot(obs_events.EventLog(run_id="synth")) is None


class TestPrometheus:
    def test_exposition_format(self):
        registry = met.MetricsRegistry()
        registry.inc("plan_cache.hit", 7)
        registry.set_gauge("eps_mean", 0.25, layer="conv1")
        for value in (0.1, 0.2, 0.4, 100.0):
            registry.observe("lat", value)
        text = met.to_prometheus(registry)
        assert "# TYPE repro_plan_cache_hit_total counter" in text
        assert "repro_plan_cache_hit_total 7" in text
        assert 'repro_eps_mean{layer="conv1"} 0.25' in text
        assert "# TYPE repro_lat histogram" in text
        assert "repro_lat_sum 100.7" in text
        assert "repro_lat_count 4" in text
        # exactly one +Inf bucket and it carries the full count
        inf_lines = [
            line for line in text.splitlines() if 'le="+Inf"' in line
        ]
        assert len(inf_lines) == 1
        assert inf_lines[0].endswith(" 4")

    def test_bucket_lines_are_cumulative(self):
        registry = met.MetricsRegistry()
        for value in (0.1, 0.1, 0.4):
            registry.observe("lat", value)
        counts = []
        for line in met.to_prometheus(registry).splitlines():
            if line.startswith("repro_lat_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 3
