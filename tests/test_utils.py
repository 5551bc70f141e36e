"""Utilities: registry and RNG helpers."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils import Registry, new_rng, spawn_rngs


class TestRegistry:
    def test_register_and_create(self):
        reg = Registry("widget")
        reg.register("a", lambda **kw: ("a", kw))
        name, kwargs = reg.create("a", x=1)
        assert name == "a" and kwargs == {"x": 1}

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("b")
        def make_b():
            return "b"

        assert reg.create("b") == "b"

    def test_duplicate_rejected(self):
        reg = Registry("widget")
        reg.register("a", lambda: None)
        with pytest.raises(KeyError):
            reg.register("A", lambda: None)  # case-insensitive collision

    def test_unknown_lists_known(self):
        reg = Registry("widget")
        reg.register("only", lambda: None)
        with pytest.raises(ConfigError, match="only"):
            reg.create("missing")

    def test_contains_and_iter(self):
        reg = Registry("widget")
        reg.register("z", lambda: None)
        reg.register("a", lambda: None)
        assert "Z" in reg
        assert list(reg) == ["a", "z"]
        assert reg.names() == ["a", "z"]


class TestRng:
    def test_accepts_int_seed(self):
        assert new_rng(0).integers(10) == new_rng(0).integers(10)

    def test_passes_generator_through(self):
        gen = np.random.default_rng(1)
        assert new_rng(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(1000) != b.integers(1000) or a.integers(1000) != b.integers(1000)

    def test_spawn_deterministic(self):
        xs = [g.integers(1000) for g in spawn_rngs(7, 3)]
        ys = [g.integers(1000) for g in spawn_rngs(7, 3)]
        assert xs == ys

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
