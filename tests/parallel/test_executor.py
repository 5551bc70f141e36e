"""The repro.parallel executor layer: ordering, determinism, capture."""

import pytest

from repro.errors import ConfigError
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import (
    BACKENDS,
    ParallelConfig,
    fork_available,
    map_workers,
    resolve_backend,
)

pytestmark = pytest.mark.parallel

ALL_BACKENDS = pytest.mark.parametrize(
    "backend", ["serial", "thread", "process"] if fork_available() else ["serial", "thread"]
)


# module-level so the process backend can pickle them
def _square(x):
    return x * x


def _draw(x, rng):
    return (x, float(rng.normal()))


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


class TestConfig:
    def test_defaults_are_serial(self):
        assert ParallelConfig().workers == 1
        assert resolve_backend(ParallelConfig()) == "serial"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigError):
            ParallelConfig(backend="gpu")
        assert set(BACKENDS) >= {"auto", "process", "thread", "serial"}

    def test_serial_backend_wins_over_workers(self):
        assert resolve_backend(ParallelConfig(workers=8, backend="serial")) == "serial"


class TestMapWorkers:
    @ALL_BACKENDS
    def test_results_in_item_order(self, backend):
        config = ParallelConfig(workers=4, backend=backend)
        assert map_workers(_square, range(9), config) == [x * x for x in range(9)]

    @ALL_BACKENDS
    def test_rng_spawning_is_schedule_independent(self, backend):
        config = ParallelConfig(workers=4, backend=backend)
        serial = map_workers(_draw, range(8), ParallelConfig(workers=1), rng=7)
        assert map_workers(_draw, range(8), config, rng=7) == serial
        # per-task streams are distinct
        assert len({value for _, value in serial}) == 8

    def test_on_result_sees_every_index(self):
        seen = {}
        map_workers(
            _square,
            range(6),
            ParallelConfig(workers=3, backend="thread"),
            on_result=lambda i, v: seen.__setitem__(i, v),
        )
        assert seen == {i: i * i for i in range(6)}

    @ALL_BACKENDS
    def test_exceptions_propagate(self, backend):
        with pytest.raises(ValueError, match="injected"):
            map_workers(_maybe_boom, range(4), ParallelConfig(workers=2, backend=backend))

    def test_empty_items(self):
        assert map_workers(_square, [], ParallelConfig(workers=4, backend="thread")) == []


@pytest.mark.skipif(not fork_available(), reason="process backend needs fork")
class TestWorkerCapture:
    def test_worker_events_merge_into_parent_log(self, events):
        map_workers(_emit_and_time, range(5), ParallelConfig(workers=2, backend="process"))
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
                map_workers(
                    _emit_and_time, range(4), ParallelConfig(workers=2, backend="process")
                )
            assert len(recorder) == 0
        rows = {r["name"]: r for r in tr.profile_summary(registry)["timers"]}
        assert rows["executor.task"]["calls"] == 4
        assert rows["parallel.task"]["calls"] == 4

    def test_capture_disabled_skips_merge(self, events):
        config = ParallelConfig(workers=2, backend="process", capture_obs=False)
        out = map_workers(_emit_and_time, range(3), config)
        assert out == [0, 1, 2]
        assert [r for r in events.records if r["type"] == "eval"] == []
