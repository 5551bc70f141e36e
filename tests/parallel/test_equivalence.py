"""Parallel execution must not change results — only wall time.

The parallel sweep is checked against its serial twin point-for-point on
a fixed seed.
"""

from dataclasses import asdict

import pytest

from repro.parallel import fork_available
from repro.pipeline import run_sweep
from repro.train import TrainConfig

pytestmark = pytest.mark.parallel

FAST = TrainConfig(epochs=1, batch_size=64, lr=0.005, grad_clip=1.0, seed=0)


@pytest.fixture(autouse=True)
def _force_parallel(monkeypatch):
    """Bypass the small-work amortization guard (repro.parallel).

    These tests assert parallel-vs-serial equivalence; on a single-core CI
    runner the guard would silently serialise every 'parallel' run and the
    assertions would compare the serial path against itself.
    """
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")


def _comparable(point) -> dict:
    """A SweepPoint as a dict minus fields that legitimately vary per run."""
    payload = asdict(point)
    payload.pop("wall_time")  # timing is the one thing parallelism changes
    return payload


@pytest.mark.skipif(not fork_available(), reason="parallel sweep needs fork")
class TestSweepEquivalence:
    def test_parallel_sweep_matches_serial_point_for_point(
        self, quantized_model, tiny_dataset
    ):
        kwargs = dict(
            multipliers=["truncated3", "truncated4"],
            methods=("normal",),
            train_config=FAST,
        )
        serial = run_sweep(quantized_model, tiny_dataset, **kwargs)
        parallel = run_sweep(quantized_model, tiny_dataset, workers=4, **kwargs)
        assert len(parallel.points) == len(serial.points) == 2
        for expected, got in zip(serial.points, parallel.points):
            assert _comparable(got) == _comparable(expected)

    def test_parallel_sweep_persists_and_resumes(
        self, quantized_model, tiny_dataset, tmp_path
    ):
        state = tmp_path / "sweep.partial.json"
        first = run_sweep(
            quantized_model,
            tiny_dataset,
            ["truncated3"],
            methods=("normal",),
            train_config=FAST,
            state_path=state,
            workers=2,
        )
        assert state.exists()
        resumed = run_sweep(
            quantized_model,
            tiny_dataset,
            ["truncated3", "truncated4"],
            methods=("normal",),
            train_config=FAST,
            state_path=state,
            resume=True,
            workers=2,
        )
        assert len(resumed.points) == 2
        # the already-completed cell was reloaded, not re-run
        assert _comparable(resumed.points[0]) == _comparable(first.points[0])
