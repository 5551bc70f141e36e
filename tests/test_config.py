"""Unified runtime configuration: precedence, overrides, validation."""

from __future__ import annotations

import pytest

from repro import config
from repro.errors import ConfigError


@pytest.fixture(autouse=True)
def _clean_config_state():
    """Each test starts and ends with an empty configure() tier."""
    previous = config.configure(**{name: None for name in config.knob_names()})
    yield
    config.configure(**{name: None for name in config.knob_names()})
    config.configure(**previous)


class TestPrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_MAX_BATCH", raising=False)
        assert config.resolve("serve_max_batch") == 32

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "8")
        assert config.resolve("serve_max_batch") == 8

    def test_cli_beats_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_ERROR_MODEL_METHOD", "analytic")
        argv = ["profile", "--multiplier", "truncated5", "--error-model-method", "montecarlo"]
        assert main(argv) == 0
        assert "method montecarlo" in capsys.readouterr().out
        # the flag lasts one run: the environment wins again once main() returns
        assert config.resolve("error_model_method") == "analytic"

    def test_configure_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "8")
        config.configure(serve_max_batch=24)
        assert config.resolve("serve_max_batch") == 24

    def test_call_beats_configure(self):
        config.configure(serve_max_batch=48)
        assert config.resolve("serve_max_batch", call=64) == 64


class TestTiers:
    def test_configure_returns_previous_and_none_clears(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_REPLICAS", raising=False)
        previous = config.configure(serve_replicas=3)
        assert previous == {"serve_replicas": None}
        assert config.resolve("serve_replicas") == 3
        config.configure(serve_replicas=None)
        assert config.resolve("serve_replicas") is None


class TestValidation:
    def test_unknown_knob_raises_everywhere(self):
        with pytest.raises(ConfigError, match="unknown config knob"):
            config.resolve("no_such_knob")
        with pytest.raises(ConfigError, match="unknown config knob"):
            config.configure(no_such_knob=1)

    def test_malformed_env_raises_config_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "not-a-number")
        with pytest.raises(ConfigError, match="REPRO_SERVE_MAX_BATCH"):
            config.resolve("serve_max_batch")

    def test_flag_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        assert config.resolve("force_parallel") is True
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "0")
        assert config.resolve("force_parallel") is False


class TestIntrospection:
    def test_perf_env_vars_cover_all_knobs(self):
        env_vars = config.perf_env_vars()
        assert len(env_vars) == len(config.knob_names())
        assert all(v.startswith("REPRO_") for v in env_vars)


class TestConsumersRouteThroughConfig:
    def test_cpu_parallelism_honours_configure(self):
        from repro.parallel import cpu_parallelism

        config.configure(cpus=3)
        assert cpu_parallelism() == 3

    def test_force_parallel_honours_configure(self, monkeypatch):
        from repro.parallel import force_parallel

        monkeypatch.delenv("REPRO_FORCE_PARALLEL", raising=False)
        assert force_parallel() is False
        config.configure(force_parallel=True)
        assert force_parallel() is True
