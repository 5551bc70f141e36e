"""Depthwise convolutions equal the 6-D window formulas.

The float ``conv2d`` and ``QuantConv2d`` depthwise paths share
:func:`~repro.autograd.im2col.depthwise_conv` and
:func:`~repro.autograd.im2col.depthwise_conv_grads`. The references below
are the formulas those helpers replaced: einsums over copied
``(N, C, OH, OW, KH, KW)`` windows, a fancy-indexed LUT product array,
and window gradients transposed into im2col columns for ``col2im``.
Outputs, weight gradients and stride-2 input gradients match bit for
bit. A stride-1 input gradient is the flipped-filter convolution of the
output gradient, which sums in another order than the fold, so it
matches to ``rtol=1e-5`` (plus an atol of 1e-6 of its largest entry).
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from repro.approx import get_multiplier
from repro.autograd import Tensor, col2im, conv2d
from repro.ge import PiecewiseLinearErrorModel
from repro.quant import QuantConv2d
from repro.quant.qfunction import _gradient_scale, _quantize_codes

# Non-constant: the slope is active for exact outputs in (-11.5, 26.9) only.
GE_MODEL = PiecewiseLinearErrorModel(-0.13, 0.5, -3.0, 2.0)

# (N, C, H, stride, padding); the last two are MobileNetV2 smoke shapes.
SHAPES = [
    (2, 5, 7, 1, 0),
    (2, 5, 7, 2, 0),
    (3, 4, 9, 1, 1),
    (3, 4, 9, 2, 1),
    (16, 24, 16, 1, 1),
    (16, 48, 8, 2, 1),
]
SHAPE_IDS = [f"{n}x{c}x{h}-s{s}p{p}" for n, c, h, s, p in SHAPES]


def _windows(x, k, stride, padding):
    n, c, h, w = x.shape
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    return as_strided(
        x, (n, c, oh, ow, k, k), (sn, sc, sh * stride, sw * stride, sh, sw), writeable=False
    )


def _fold(grad_windows, x_shape, k, stride, padding):
    n, c, oh, ow = grad_windows.shape[:4]
    cols = grad_windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k)
    return col2im(cols, x_shape, (k, k), stride, padding)


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()


def _assert_input_grad(actual, expected, stride):
    if stride != 1:
        _assert_bitwise(actual, expected)
        return
    # Sums that cancel to near zero keep an absolute error of a few ulps
    # of their largest terms, hence the small atol.
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-6 * np.abs(expected).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, c, h, stride, padding", SHAPES, ids=SHAPE_IDS)
def test_float_depthwise_equals_window_formulas(n, c, h, stride, padding, dtype):
    rng = np.random.default_rng(c * h + stride)
    x = Tensor(rng.normal(size=(n, c, h, h)).astype(dtype), requires_grad=True)
    w = Tensor((rng.normal(size=(c, 1, 3, 3)) * 0.3).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=c).astype(dtype), requires_grad=True)
    out = conv2d(x, w, b, stride, padding, groups=c)
    g = rng.normal(size=out.shape).astype(dtype)
    out.backward(g)

    windows = _windows(x.data, 3, stride, padding)
    w4 = w.data.reshape(c, 1, 3, 3)
    y = np.einsum("nchwij,cmij->ncmhw", windows, w4, optimize=True).reshape(out.shape)
    g5 = g.reshape(n, c, 1, *out.shape[2:])
    grad_w = np.einsum("ncmhw,nchwij->cmij", g5, windows, optimize=True)
    grad_windows = np.einsum("ncmhw,cmij->nchwij", g5, w4, optimize=True)
    _assert_bitwise(out.data, np.ascontiguousarray(y + b.data.reshape(1, c, 1, 1)))
    _assert_bitwise(w.grad, grad_w.reshape(c, 1, 3, 3))
    _assert_input_grad(x.grad, _fold(grad_windows, x.shape, 3, stride, padding), stride)
    _assert_bitwise(b.grad, g.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("error_model", [None, GE_MODEL], ids=["ste", "ge"])
@pytest.mark.parametrize("name", ["exact", "truncated5", "evoapprox228"])
@pytest.mark.parametrize("n, c, h, stride, padding", SHAPES, ids=SHAPE_IDS)
def test_quant_depthwise_equals_window_formulas(n, c, h, stride, padding, name, error_model):
    rng = np.random.default_rng(c * h + stride)
    layer = QuantConv2d(c, c, 3, stride, padding, groups=c, rng=rng)
    layer.act_step = 0.1
    layer.weight_step = (2.0 ** -rng.integers(2, 5, size=c)).astype(np.float32)
    layer.bias.data = rng.normal(size=c).astype(np.float32)
    layer.set_multiplier(None if name == "exact" else name, error_model)
    relu_x = np.maximum(rng.normal(size=(n, c, h, h)), 0).astype(np.float32)
    x = Tensor(relu_x, requires_grad=True)
    out = layer(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    out.backward(g)

    xq, x_mask = _quantize_codes(x.data, layer.act_step, layer.qconfig.activation_bits)
    wq, w_mask = _quantize_codes(layer.weight.data, layer.weight_step[:, None, None, None], 4)
    windows, w3 = _windows(xq, 3, stride, padding), wq.reshape(c, 3, 3)
    acc = np.einsum(
        "nchwij,cij->nchw", windows.astype(np.float32), w3.astype(np.float32), optimize=True
    )
    y_exact = np.rint(acc).astype(np.int64)
    y_int = y_exact
    if name != "exact":
        mult = get_multiplier(name)
        xhi, whi = 2 ** (mult.x_bits - 1) - 1, 2 ** (mult.w_bits - 1) - 1
        prods = mult.signed_lut()[windows + xhi, w3[None, :, None, None] + whi]
        y_int = prods.sum(axis=(4, 5), dtype=np.int64)
    rescale = np.float32(layer.act_step) * layer.weight_step
    y = y_int.astype(np.float32) * rescale[None, :, None, None]
    _assert_bitwise(out.data, np.ascontiguousarray(y + layer.bias.data.reshape(1, c, 1, 1)))

    g4 = g * _gradient_scale(error_model, y_exact)
    win_fq = windows.astype(np.float32) * np.float32(layer.act_step)
    w_fq = w3.astype(np.float32) * layer.weight_step[:, None, None]
    grad_w = np.einsum("nchw,nchwij->cij", g4, win_fq, optimize=True).reshape(wq.shape)
    grad_windows = np.einsum("nchw,cij->nchwij", g4, w_fq, optimize=True)
    _assert_bitwise(layer.weight.grad, grad_w * w_mask)
    grad_x = _fold(grad_windows, x.shape, 3, stride, padding) * x_mask
    _assert_input_grad(x.grad, grad_x, stride)
    _assert_bitwise(layer.bias.grad, g.sum(axis=(0, 2, 3)))


def test_depthwise_paths_open_their_spans(rng, profiled):
    layer = QuantConv2d(4, 4, 3, padding=1, groups=4, rng=rng)
    layer.act_step, layer.weight_step = 0.1, 0.125
    layer.set_multiplier("evoapprox228")
    x = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32), requires_grad=True)
    with profiled() as rows:
        layer(x).sum().backward()
        out = conv2d(x, layer.weight, None, 1, 1, groups=4)
        out.sum().backward()
    assert rows["approx.lut_gather"]["calls"] == 1
    assert rows["autograd.depthwise"]["calls"] == 1
    assert rows["autograd.depthwise_grad"]["calls"] == 2
    assert "autograd.col2im" not in rows
    assert "autograd.im2col" not in rows
