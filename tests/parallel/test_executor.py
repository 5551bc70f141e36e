"""The repro.parallel executor layer: ordering, inline fallback, capture."""

import pytest

from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import executor, fork_available, map_workers

pytestmark = pytest.mark.parallel

# inline (one worker) and a fork process pool (inline, too, without fork)
BOTH_PATHS = pytest.mark.parametrize("workers", [1, 4], ids=["serial", "process"])


# module-level so the process pool can pickle them
def _square(x):
    return x * x


def _emit_and_time(x):
    obs_events.get_event_log().eval(f"task{x}", 0.25)
    with tr.span("executor.task"):
        pass
    return x


def _maybe_boom(x):
    if x == 2:
        raise ValueError("injected")
    return x


@pytest.fixture
def events():
    log = obs_events.EventLog(run_id="test")
    sink = log.add_sink(obs_events.CollectingSink())
    previous = obs_events.set_event_log(log)
    yield sink
    obs_events.set_event_log(previous)


class TestMapWorkers:
    @BOTH_PATHS
    def test_results_in_item_order(self, workers):
        assert map_workers(_square, range(9), workers) == [x * x for x in range(9)]

    def test_on_result_sees_every_index(self):
        seen = {}
        map_workers(_square, range(6), 3, on_result=lambda i, v: seen.__setitem__(i, v))
        assert seen == {i: i * i for i in range(6)}

    @BOTH_PATHS
    def test_exceptions_propagate(self, workers):
        with pytest.raises(ValueError, match="injected"):
            map_workers(_maybe_boom, range(4), workers)

    def test_empty_items(self):
        assert map_workers(_square, [], 4) == []

    def test_no_fork_runs_inline_in_item_order(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built without fork")

        monkeypatch.setattr(executor, "fork_available", lambda: False)
        monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
        order = []
        results = map_workers(
            _square, range(5), 4, on_result=lambda i, v: order.append((i, v))
        )
        assert results == [x * x for x in range(5)]
        assert order == [(x, x * x) for x in range(5)]


@pytest.mark.skipif(not fork_available(), reason="the process pool needs fork")
class TestWorkerCapture:
    def test_worker_events_merge_into_parent_log(self, events):
        map_workers(_emit_and_time, range(5), 2)
        evals = [r for r in events.records if r["type"] == "eval"]
        assert {r["name"] for r in evals} == {f"task{i}" for i in range(5)}
        assert all("worker" in r for r in evals)
        # the parent restamps the envelope with its own run id and seq
        assert {r["run"] for r in evals} == {"test"}

    def test_worker_profile_merges_into_parent(self, events):
        # span aggregation alone (metrics recording off) still ships the
        # workers' span.* counters back through the metrics merge
        with met.collecting_metrics() as registry:
            met.disable_metrics()
            with tr.tracing(record=False, aggregate=True) as recorder:
                map_workers(_emit_and_time, range(4), 2)
            assert len(recorder) == 0
        rows = {r["name"]: r for r in tr.profile_summary(registry)["timers"]}
        assert rows["executor.task"]["calls"] == 4
        assert rows["parallel.task"]["calls"] == 4
