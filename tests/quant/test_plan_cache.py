"""Layer-level kernel-plan caching: bitwise identity and invalidation.

The cached weight-stationary path must be indistinguishable from the
uncached reference at the output level, and any weight or step mutation
must invalidate the cached state by construction (version counters), so
a stale plan cannot be reused.
"""

import copy

import numpy as np
import pytest

from repro.approx import get_multiplier, plan_cache_disabled
from repro.autograd import Tensor
from repro.nn.parameter import Parameter
from repro.quant import QuantConv2d, QuantLinear
from repro.sim import attach_multiplier, evaluate_accuracy
from repro.train import SGD


def _calibrated(layer, x):
    layer.begin_calibration()
    layer(Tensor(x))
    layer.finalize_calibration()
    return layer


def _layers(rng):
    mult = get_multiplier("truncated3")
    xl = rng.normal(size=(6, 12)).astype(np.float32)
    lin = _calibrated(QuantLinear(12, 5, rng=rng), xl)
    xc = rng.normal(size=(3, 4, 8, 8)).astype(np.float32)
    conv = _calibrated(QuantConv2d(4, 6, 3, padding=1, rng=rng), xc)
    grouped = _calibrated(QuantConv2d(4, 8, 3, padding=1, groups=2, rng=rng), xc)
    depthwise = _calibrated(QuantConv2d(4, 4, 3, padding=1, groups=4, rng=rng), xc)
    for layer in (lin, conv, grouped, depthwise):
        layer.set_multiplier(mult)
    return [(lin, xl), (conv, xc), (grouped, xc), (depthwise, xc)]


class TestBitwiseIdentity:
    def test_cached_forward_matches_uncached_reference(self, rng):
        for layer, x in _layers(rng):
            cached = layer(Tensor(x)).data
            again = layer(Tensor(x)).data
            layer._plan_cache.clear()
            with plan_cache_disabled():
                reference = layer(Tensor(x)).data
            np.testing.assert_array_equal(cached, again)
            np.testing.assert_array_equal(cached, reference)

    def test_model_eval_is_bitwise_identical(self, quantized_model, tiny_dataset):
        model = copy.deepcopy(quantized_model)
        attach_multiplier(model, get_multiplier("truncated4"))
        x, y = tiny_dataset.test_x, tiny_dataset.test_y
        cached = evaluate_accuracy(model, x, y, batch_size=64)
        cached2 = evaluate_accuracy(model, x, y, batch_size=64)
        with plan_cache_disabled():
            reference = evaluate_accuracy(model, x, y, batch_size=64)
        assert cached == cached2 == reference

    def test_exact_layers_never_build_plans(self, rng, profiled):
        lin = _calibrated(QuantLinear(8, 3, rng=rng), rng.normal(size=(4, 8)).astype(np.float32))
        x = rng.normal(size=(4, 8)).astype(np.float32)
        with profiled() as rows:
            lin(Tensor(x))
        assert "plan_cache.build" not in rows


class TestInvalidation:
    def test_parameter_version_counts_every_rebind(self):
        p = Parameter(np.zeros((2, 2), dtype=np.float32))
        assert p.version == 0
        p.data = np.ones((2, 2), dtype=np.float32)
        p.data = p.data * 2.0
        assert p.version == 2
        # in-place mutation of the same array does not rebind -- callers
        # (optimizer, load_state_dict, fault injection) all assign .data
        p.data[0, 0] = 5.0
        assert p.version == 2

    def test_optimizer_step_invalidates_the_plan(self, rng, profiled):
        mult = get_multiplier("truncated3")
        x = rng.normal(size=(6, 12)).astype(np.float32)
        layer = _calibrated(QuantLinear(12, 5, rng=rng), x)
        layer.set_multiplier(mult)
        with profiled() as rows:
            out = layer(Tensor(x))
            out.backward(np.ones_like(out.data))
            SGD(layer.parameters(), lr=0.5).step()
            layer.refresh_weight_step()
            layer(Tensor(x))
        # two distinct keys -> two misses, zero (stale) hits
        assert rows["plan_cache.miss"]["calls"] == 2
        assert "plan_cache.hit" not in rows
        assert rows["plan_cache.build"]["calls"] == 2

    def test_training_step_changes_key_so_stale_reuse_is_impossible(self, rng):
        mult = get_multiplier("truncated3")
        x = rng.normal(size=(6, 12)).astype(np.float32)
        layer = _calibrated(QuantLinear(12, 5, rng=rng), x)
        layer.set_multiplier(mult)
        _, key_before = layer._plan_state()
        out = layer(Tensor(x))
        out.backward(np.ones_like(out.data))
        SGD(layer.parameters(), lr=0.5).step()
        _, key_after = layer._plan_state()
        assert key_after != key_before
        # the post-step cached forward equals the uncached one on the new weights
        stepped = layer(Tensor(x)).data
        layer._plan_cache.clear()
        with plan_cache_disabled():
            np.testing.assert_array_equal(stepped, layer(Tensor(x)).data)

    def test_refresh_weight_step_changes_key(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)
        layer = _calibrated(QuantLinear(8, 3, rng=rng), x)
        _, before = layer._plan_state()
        layer.refresh_weight_step()
        _, after = layer._plan_state()
        assert after != before

    def test_set_multiplier_clears_the_cache(self, rng):
        mult = get_multiplier("truncated3")
        x = rng.normal(size=(6, 12)).astype(np.float32)
        layer = _calibrated(QuantLinear(12, 5, rng=rng), x)
        layer.set_multiplier(mult)
        layer(Tensor(x))
        assert len(layer._plan_cache) == 1
        layer.set_multiplier(get_multiplier("truncated4"))
        assert len(layer._plan_cache) == 0

    def test_load_state_dict_invalidates_via_parameter_version(self, rng):
        mult = get_multiplier("truncated3")
        x = rng.normal(size=(6, 12)).astype(np.float32)
        layer = _calibrated(QuantLinear(12, 5, rng=rng), x)
        layer.set_multiplier(mult)
        layer(Tensor(x))
        donor = QuantLinear(12, 5, rng=np.random.default_rng(42))
        state = donor.state_dict()
        version_before = layer.weight.version
        layer.load_state_dict(state)
        assert layer.weight.version > version_before
        loaded = layer(Tensor(x)).data
        layer._plan_cache.clear()
        with plan_cache_disabled():
            np.testing.assert_array_equal(loaded, layer(Tensor(x)).data)


class TestCacheHygiene:
    def test_repeated_eval_hits_after_first_miss(self, rng, profiled):
        mult = get_multiplier("truncated3")
        x = rng.normal(size=(6, 12)).astype(np.float32)
        layer = _calibrated(QuantLinear(12, 5, rng=rng), x)
        layer.set_multiplier(mult)
        with profiled() as rows:
            for _ in range(4):
                layer(Tensor(x))
        assert rows["plan_cache.miss"]["calls"] == 1
        assert rows["plan_cache.hit"]["calls"] == 3
        assert rows["plan_cache.build"]["calls"] == 1

    def test_deepcopied_layer_starts_with_an_empty_cache(self, rng):
        mult = get_multiplier("truncated3")
        x = rng.normal(size=(6, 12)).astype(np.float32)
        layer = _calibrated(QuantLinear(12, 5, rng=rng), x)
        layer.set_multiplier(mult)
        layer(Tensor(x))
        clone = copy.deepcopy(layer)
        assert len(clone._plan_cache) == 0
        np.testing.assert_array_equal(clone(Tensor(x)).data, layer(Tensor(x)).data)

    def test_grouped_conv_caches_one_dense_plan(self, rng, profiled):
        mult = get_multiplier("truncated3")
        xc = rng.normal(size=(3, 4, 8, 8)).astype(np.float32)
        layer = _calibrated(QuantConv2d(4, 8, 3, padding=1, groups=2, rng=rng), xc)
        layer.set_multiplier(mult)
        with profiled() as rows:
            layer(Tensor(xc))
            layer(Tensor(xc))
        # One plan of the block-diagonal dense weights, not one per group.
        assert rows["plan_cache.build"]["calls"] == 1
        assert rows["plan_cache.miss"]["calls"] == 1
        assert rows["plan_cache.hit"]["calls"] == 1
