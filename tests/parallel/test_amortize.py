"""The amortization guard: fan-out only when it can win.

On one usable CPU, or with fewer than two tasks, pool dispatch and fork
cost cannot be recovered, so ``amortized_workers`` keeps the work serial;
these tests pin that policy.
"""

import pytest

from repro import parallel as par
from repro.errors import ConfigError

pytestmark = pytest.mark.parallel


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_CPUS", raising=False)
    monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)


class TestCpuParallelism:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "6")
        assert par.cpu_parallelism() == 6

    def test_override_is_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "0")
        assert par.cpu_parallelism() == 1

    def test_bad_override_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "many")
        with pytest.raises(ConfigError):
            par.cpu_parallelism()

    def test_default_is_positive(self):
        assert par.cpu_parallelism() >= 1


class TestAmortizedWorkers:
    def test_single_worker_requests_stay_serial(self):
        assert par.amortized_workers(1, tasks=100) == 1
        assert par.amortized_workers(None, tasks=100) == 1

    def test_one_core_machines_stay_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "1")
        assert par.amortized_workers(4, tasks=100) == 1

    def test_too_few_tasks_stay_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "8")
        assert par.amortized_workers(4, tasks=1) == 1
        assert par.amortized_workers(4, tasks=2) == 4

    def test_force_parallel_bypasses_every_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "1")
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        assert par.amortized_workers(4, tasks=1) == 4

    def test_force_parallel_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "1")
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "0")
        assert par.amortized_workers(4, tasks=100) == 1
