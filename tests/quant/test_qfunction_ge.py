"""Gradient-estimation behaviour inside the quantized conv/linear Functions:
region gating, depthwise and grouped paths, Eq. 12 semantics."""

import numpy as np
import pytest

from repro.approx import get_multiplier
from repro.autograd import Tensor
from repro.ge import PiecewiseLinearErrorModel
from repro.quant import QuantConv2d, QuantLinear


def _make_conv(groups=1, in_ch=4, out_ch=4, bias=False):
    conv = QuantConv2d(in_ch, out_ch, 3, padding=1, groups=groups, bias=bias)
    conv.act_step, conv.weight_step = 1 / 32, 1 / 8
    return conv


class TestRegionGating:
    """K is non-zero only where the fitted line is between its saturations
    (Eq. 13): a model saturated everywhere must behave exactly like STE."""

    def test_fully_saturated_model_equals_ste(self, rng):
        mult = get_multiplier("truncated5")
        lin = QuantLinear(8, 4, bias=False, rng=rng)
        lin.act_step, lin.weight_step = 1 / 32, 1 / 8
        x = Tensor(rng.normal(size=(6, 8)).astype(np.float32))

        lin.set_multiplier(mult, None)
        lin(x).sum().backward()
        ste = lin.weight.grad.copy()

        # Saturation bounds so tight the linear region is never active:
        # with c = 0.25, k·y + c is at least 0.25 away from 0 for every
        # integer output y, so no output lands inside (lower, upper).
        saturated = PiecewiseLinearErrorModel(k=-0.5, c=0.25, lower=-1e-6, upper=1e-6)
        lin.set_multiplier(mult, saturated)
        lin.weight.zero_grad()
        lin(x).sum().backward()
        np.testing.assert_allclose(lin.weight.grad, ste, rtol=1e-5)

    def test_output_inside_the_band_is_scaled(self, rng):
        """The gating rule is ``lower < k·y + c < upper``: with c = 0 the
        band (-1e-6, 1e-6) holds exactly the output y = 0, whose gradient
        is scaled by 1 + k."""
        mult = get_multiplier("truncated5")
        lin = QuantLinear(8, 4, bias=False, rng=rng)
        lin.act_step, lin.weight_step = 1 / 32, 1 / 8
        weight = lin.weight.data.copy()
        weight[2] = 0.0  # output feature 2 is exactly y = 0 for every input
        lin.weight.data = weight
        x = Tensor(rng.normal(size=(6, 8)).astype(np.float32))

        lin.set_multiplier(mult, None)
        lin(x).sum().backward()
        ste = lin.weight.grad.copy()

        band = PiecewiseLinearErrorModel(k=-0.5, c=0.0, lower=-1e-6, upper=1e-6)
        lin.set_multiplier(mult, band)
        lin.weight.zero_grad()
        lin(x).sum().backward()
        assert np.abs(ste[2]).max() > 0
        np.testing.assert_allclose(lin.weight.grad[2], 0.5 * ste[2], rtol=1e-5)

    def test_partial_region_mixes_scales(self, rng):
        """With bounds cutting through the output range, some gradient rows
        are scaled and others are not."""
        mult = get_multiplier("truncated5")
        lin = QuantLinear(16, 8, bias=False)
        lin.act_step, lin.weight_step = 1 / 32, 1 / 8
        x = Tensor(rng.normal(size=(16, 16)).astype(np.float32))

        lin.set_multiplier(mult, None)
        lin(x).sum().backward()
        ste = lin.weight.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.5, c=0.0, lower=-30.0, upper=30.0)
        lin.set_multiplier(mult, em)
        lin.weight.zero_grad()
        lin(x).sum().backward()
        mixed = lin.weight.grad
        assert not np.allclose(mixed, ste)
        assert not np.allclose(mixed, 0.5 * ste)


class TestConvGE:
    def test_dense_conv_ge_scales_whole_gradient(self, rng):
        mult = get_multiplier("truncated4")
        conv = _make_conv()
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))

        conv.set_multiplier(mult, None)
        conv(x).sum().backward()
        ste = conv.weight.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.25, c=0.0, lower=-1e9, upper=1e9)
        conv.set_multiplier(mult, em)
        conv.weight.zero_grad()
        conv(x).sum().backward()
        np.testing.assert_allclose(conv.weight.grad, 0.75 * ste, rtol=1e-4, atol=1e-6)

    def test_depthwise_conv_ge(self, rng):
        mult = get_multiplier("truncated4")
        conv = _make_conv(groups=4)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))

        conv.set_multiplier(mult, None)
        conv(x).sum().backward()
        ste = conv.weight.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.5, c=0.0, lower=-1e9, upper=1e9)
        conv.set_multiplier(mult, em)
        conv.weight.zero_grad()
        conv(x).sum().backward()
        np.testing.assert_allclose(conv.weight.grad, 0.5 * ste, rtol=1e-4, atol=1e-6)

    def test_grouped_conv_ge(self, rng):
        mult = get_multiplier("truncated4")
        conv = QuantConv2d(4, 6, 3, padding=0, groups=2, bias=False)
        conv.act_step, conv.weight_step = 1 / 32, 1 / 8
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))

        conv.set_multiplier(mult, None)
        conv(x).sum().backward()
        ste = conv.weight.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.5, c=0.0, lower=-1e9, upper=1e9)
        conv.set_multiplier(mult, em)
        conv.weight.zero_grad()
        conv(x).sum().backward()
        np.testing.assert_allclose(conv.weight.grad, 0.5 * ste, rtol=1e-4, atol=1e-6)

    def test_ge_also_scales_input_gradient(self, rng):
        """Eq. 12 modifies ∂C/∂ỹ, which propagates to both W and X grads."""
        mult = get_multiplier("truncated4")
        conv = _make_conv()
        x1 = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32), requires_grad=True)
        conv.set_multiplier(mult, None)
        conv(x1).sum().backward()
        ste = x1.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.5, c=0.0, lower=-1e9, upper=1e9)
        conv.set_multiplier(mult, em)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        conv(x2).sum().backward()
        np.testing.assert_allclose(x2.grad, 0.5 * ste, rtol=1e-4, atol=1e-6)

    def test_bias_gradient_not_scaled_by_ge(self, rng):
        """The bias is added after the approximate GEMM, outside Eq. 12."""
        mult = get_multiplier("truncated4")
        conv = _make_conv(bias=True)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
        conv.set_multiplier(mult, None)
        conv(x).sum().backward()
        ste_bias = conv.bias.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.9, c=0.0, lower=-1e9, upper=1e9)
        conv.set_multiplier(mult, em)
        conv.bias.zero_grad()
        conv(x).sum().backward()
        np.testing.assert_allclose(conv.bias.grad, ste_bias, rtol=1e-5)
