"""Planned convolutions gather LUT products before unfolding them.

``GemmPlan.execute_conv`` gathers each padded activation's products once
and unfolds the products, where the reference path (``im2col`` + the
uncached LUT GEMM) unfolds the codes and gathers every unfolded code.
Every partial sum is an exact integer, so the two must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import get_multiplier, plan_cache_disabled
from repro.approx.gemm import approx_matmul
from repro.approx.plan import GemmPlan, build_plan, conv_plan_operand
from repro.autograd import Tensor
from repro.autograd.grad_mode import no_grad
from repro.autograd.im2col import conv_out_size, im2col
from repro.errors import MultiplierError
from repro.quant import QuantConv2d

MULTIPLIERS = ["truncated5", "evoapprox228"]  # bit-plane and indicator plans


def _random_codes(rng, multiplier, shape):
    xhi = 2 ** (multiplier.x_bits - 1) - 1
    return rng.integers(-xhi, xhi + 1, size=shape, dtype=np.int32)


def _random_weights(rng, multiplier, oc, c, k):
    whi = 2 ** (multiplier.w_bits - 1) - 1
    return rng.integers(-whi, whi + 1, size=(oc, c, k, k), dtype=np.int32)


def _conv(rng, c, oc, k, stride, padding, multiplier):
    conv = QuantConv2d(c, oc, k, stride=stride, padding=padding, rng=rng)
    conv.act_step, conv.weight_step = 1 / 16, 1 / 8
    conv.set_multiplier(multiplier)
    return conv.eval()


geometry = st.fixed_dictionaries({
    "name": st.sampled_from(MULTIPLIERS),
    "k": st.sampled_from([1, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1, 2]),
    "n": st.integers(1, 3),
    "c": st.integers(1, 4),
    "h": st.integers(3, 9),
    "w": st.integers(3, 9),
    "seed": st.integers(0, 2**16),
})


class TestFusedConvBitwise:
    @settings(max_examples=60, deadline=None)
    @given(g=geometry)
    def test_execute_conv_equals_im2col_reference(self, g):
        rng = np.random.default_rng(g["seed"])
        mult = get_multiplier(g["name"])
        k, stride, padding = g["k"], g["stride"], g["padding"]
        codes = _random_codes(rng, mult, (g["n"], g["c"], g["h"], g["w"]))
        wq = _random_weights(rng, mult, 5, g["c"], k)
        plan = build_plan(np.ascontiguousarray(conv_plan_operand(wq)), mult)
        cols, _ = im2col(codes, (k, k), stride, padding)
        reference = approx_matmul(cols, wq.reshape(5, -1).T, mult)
        np.testing.assert_array_equal(
            plan.execute_conv(codes, (k, k), stride, padding), reference
        )

    @settings(max_examples=30, deadline=None)
    @given(g=geometry)
    def test_layer_forward_equals_uncached_reference(self, g):
        rng = np.random.default_rng(g["seed"])
        conv = _conv(rng, g["c"], 4, g["k"], g["stride"], g["padding"],
                     get_multiplier(g["name"]))
        x = Tensor(rng.normal(scale=2.0, size=(g["n"], g["c"], g["h"], g["w"]))
                   .astype(np.float32))
        with no_grad():
            fused = conv(x).data
            with plan_cache_disabled():
                reference = conv(x).data
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("name", MULTIPLIERS)
    def test_exact_blas_backend_runs_the_reference(self, name, rng, monkeypatch):
        conv = _conv(rng, 3, 4, 3, 1, 1, get_multiplier(name))
        x = Tensor(rng.normal(size=(2, 3, 7, 5)).astype(np.float32))
        with no_grad():
            fused = conv(x).data  # builds and caches the plan

            def refuse(*args, **kwargs):
                raise AssertionError("the reference path must not run the planned conv")

            monkeypatch.setattr(GemmPlan, "execute_conv", refuse)
            with plan_cache_disabled():  # the cached plan is still stored
                reference = conv(x).data
        assert len(conv._plan_cache) == 1
        np.testing.assert_array_equal(fused, reference)


class TestFusedConvGather:
    @pytest.mark.parametrize("name", MULTIPLIERS)
    def test_each_padded_activation_is_gathered_once(self, name, rng, profiled):
        mult = get_multiplier(name)
        n, c, h, w = 2, 3, 6, 5
        codes = _random_codes(rng, mult, (n, c, h, w))
        plan = build_plan(
            np.ascontiguousarray(conv_plan_operand(_random_weights(rng, mult, 4, c, 3))),
            mult,
        )
        with profiled() as rows:
            plan.execute_conv(codes, (3, 3), 1, 1)
        gathered = rows["approx.lut_gathered_elems"]["calls"]
        assert gathered == n * c * (h + 2) * (w + 2) * plan.num_values

    def test_strided_1x1_gathers_only_the_positions_it_reads(self, rng, profiled):
        mult = get_multiplier("truncated5")
        n, c, h, w = 2, 4, 7, 6
        codes = _random_codes(rng, mult, (n, c, h, w))
        wq = _random_weights(rng, mult, 5, c, 1)
        plan = build_plan(np.ascontiguousarray(conv_plan_operand(wq)), mult)
        with profiled() as rows:
            out = plan.execute_conv(codes, (1, 1), 2, 0)
        oh, ow = conv_out_size(h, 1, 2, 0), conv_out_size(w, 1, 2, 0)
        assert rows["approx.lut_gathered_elems"]["calls"] == n * c * oh * ow * plan.num_values
        cols, _ = im2col(codes, (1, 1), 2, 0)
        np.testing.assert_array_equal(out, approx_matmul(cols, wq.reshape(5, -1).T, mult))


class TestFusedConvRangeCheck:
    @pytest.mark.parametrize("name", MULTIPLIERS)
    @pytest.mark.parametrize("bad", ["above", "below", "int32_min"])
    def test_out_of_range_codes_raise_before_any_gather(self, name, bad, rng, profiled):
        mult = get_multiplier(name)
        xhi = 2 ** (mult.x_bits - 1) - 1
        codes = _random_codes(rng, mult, (1, 2, 5, 5))
        codes[0, 1, 2, 3] = {
            "above": xhi + 1,
            "below": -(xhi + 1),
            "int32_min": np.iinfo(np.int32).min,
        }[bad]
        plan = build_plan(
            np.ascontiguousarray(conv_plan_operand(_random_weights(rng, mult, 3, 2, 3))),
            mult,
        )
        with profiled() as rows, pytest.raises(MultiplierError):
            plan.execute_conv(codes, (3, 3), 1, 1)
        assert "approx.lut_gather" not in rows
        assert "approx.lut_gathered_elems" not in rows
