"""run_sweep's one fan-out: resolve failures in the parent, cells on the pool."""

import pytest

from repro.errors import ConfigError
from repro.parallel import fork_available
from repro.pipeline import run_sweep
from tests.parallel.test_equivalence import FAST, _comparable

pytestmark = pytest.mark.parallel


@pytest.mark.skipif(not fork_available(), reason="parallel sweep needs fork")
def test_forced_parallel_sweep_with_unresolvable_name_matches_serial(
    quantized_model, tiny_dataset, monkeypatch
):
    kwargs = dict(
        multipliers=["truncated3", "no_such_multiplier", "truncated4"],
        methods=("normal",),
        train_config=FAST,
    )
    serial = run_sweep(quantized_model, tiny_dataset, **kwargs)
    monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
    parallel = run_sweep(quantized_model, tiny_dataset, workers=2, **kwargs)
    assert [p.multiplier for p in parallel.points] == kwargs["multipliers"]
    assert [p.status for p in parallel.points] == ["ok", "failed", "ok"]
    assert [_comparable(p) for p in parallel.points] == [
        _comparable(p) for p in serial.points
    ]


def test_zero_workers_raises(quantized_model, tiny_dataset):
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(quantized_model, tiny_dataset, ["truncated3"], workers=0)
