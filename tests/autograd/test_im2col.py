"""im2col / col2im correctness, including the adjoint property."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import col2im, conv_out_size, im2col, sliding_windows
from repro.autograd.im2col import (
    conv_input_grad,
    depthwise_conv,
    depthwise_conv_grads,
    unfold_nhwc,
)
from repro.errors import ShapeError


class TestConvOutSize:
    def test_basic(self):
        assert conv_out_size(8, 3, 1, 1) == 8
        assert conv_out_size(8, 3, 2, 1) == 4
        assert conv_out_size(5, 3, 1, 0) == 3

    def test_rejects_too_small(self):
        with pytest.raises(ShapeError):
            conv_out_size(2, 5, 1, 0)

    @pytest.mark.parametrize("kernel", [0, -1])
    def test_rejects_kernel_below_one(self, kernel):
        with pytest.raises(ShapeError):
            conv_out_size(8, kernel, 1, 0)


class TestIm2col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        cols, (oh, ow) = im2col(x, (3, 3), stride=2, padding=1)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (2 * 16, 3 * 9)

    def test_1x1_kernel_is_reshape(self, rng):
        x = rng.normal(size=(1, 4, 3, 3)).astype(np.float32)
        cols, _ = im2col(x, (1, 1))
        np.testing.assert_allclose(cols, x.transpose(0, 2, 3, 1).reshape(9, 4))

    def test_values_manual(self):
        x = np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4)
        cols, _ = im2col(x, (2, 2), stride=2)
        np.testing.assert_allclose(cols[0], [0, 1, 4, 5])
        np.testing.assert_allclose(cols[3], [10, 11, 14, 15])

    def test_rejects_non_nchw(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((3, 3)), (2, 2))

    def test_conv_as_gemm_equals_reference(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float64)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float64)
        cols, (oh, ow) = im2col(x, (3, 3), stride=1, padding=1)
        out = (cols @ w.reshape(4, -1).T).reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
        from repro.autograd import Tensor, conv2d

        ref = conv2d(Tensor(x), Tensor(w), None, 1, 1).data
        np.testing.assert_allclose(out, ref, rtol=1e-6)


class TestCol2im:
    def test_adjoint_property(self, rng):
        """col2im is the transpose of im2col: <im2col(x), c> == <x, col2im(c)>."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = im2col(x, (3, 3), stride=2, padding=1)
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, (3, 3), stride=2, padding=1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_rejects_wrong_shape(self, rng):
        with pytest.raises(ShapeError):
            col2im(np.zeros((5, 5)), (1, 1, 4, 4), (2, 2))

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 3), st.integers(1, 4), st.integers(4, 9), st.integers(4, 9)
        ),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        dtype=st.sampled_from(["float64", "float32", "int32"]),
    )
    # Non-square, strided, unpadded, doubly padded and integer inputs.
    @example(shape=(2, 3, 8, 8), k=3, stride=1, padding=1, dtype="float32")
    @example(shape=(1, 2, 9, 7), k=3, stride=2, padding=1, dtype="float32")
    @example(shape=(2, 4, 6, 6), k=2, stride=2, padding=0, dtype="float32")
    @example(shape=(3, 2, 5, 5), k=3, stride=1, padding=2, dtype="int32")
    def test_adjoint_property_randomised(self, shape, k, stride, padding, dtype):
        if min(shape[2:]) + 2 * padding < k:
            return
        rng = np.random.default_rng([*shape, k, stride, padding])
        if dtype == "int32":
            x = rng.integers(-7, 8, size=shape).astype(np.int32)
        else:
            x = rng.normal(size=shape).astype(dtype)
        cols, _ = im2col(x, (k, k), stride, padding)
        assert cols.dtype == x.dtype
        c = rng.normal(size=cols.shape)
        lhs = float((cols * c).sum())
        rhs = float((x * col2im(c, x.shape, (k, k), stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def _to_nhwc_order(cols, c, k):
    """im2col's ``(c, kh, kw)`` columns permuted to ``(kh, kw, c)`` order."""
    return cols.reshape(len(cols), c, k, k).transpose(0, 2, 3, 1).reshape(len(cols), -1)


NHWC_CASES = [
    (k, stride, padding)
    for k in (1, 3)
    for stride in (1, 2)
    for padding in (0, 1, 2)
]


class TestNhwcLayout:
    """The quantized conv's float (kh, kw, c) unfold."""

    @pytest.mark.parametrize("k, stride, padding", NHWC_CASES)
    @pytest.mark.parametrize("dtype", ["float32", "int32"])
    def test_unfold_is_permuted_im2col(self, rng, k, stride, padding, dtype):
        x = rng.normal(size=(2, 3, 9, 7)) * 4
        x = np.rint(x).astype(dtype) if dtype == "int32" else x.astype(dtype)
        cols = unfold_nhwc(x, (k, k), stride, padding)
        ref, _ = im2col(x, (k, k), stride, padding)
        expected = _to_nhwc_order(ref, 3, k).astype(np.float32)
        assert cols.dtype == np.float32
        assert cols.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("k, stride, padding", NHWC_CASES)
    def test_col2im_of_permuted_columns_is_the_adjoint(self, rng, k, stride, padding):
        # The backward folds (kh, kw, c) gradient columns through col2im
        # after permuting them back to (c, kh, kw).
        x = rng.normal(size=(2, 3, 9, 7)).astype(np.float32)
        cols = unfold_nhwc(x, (k, k), stride, padding)
        g = rng.normal(size=cols.shape)
        back = g.reshape(len(g), k, k, 3).transpose(0, 3, 1, 2).reshape(len(g), -1)
        lhs = float((cols * g).sum())
        rhs = float((x * col2im(back, x.shape, (k, k), stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)


def _conv_nhwc(x, w, stride, padding):
    """The dense convolution of NCHW ``x`` with ``w`` as NHWC ``(N, OH, OW, OC)``."""
    cols, (oh, ow) = im2col(x, w.shape[2:], stride, padding)
    return (cols @ w.reshape(len(w), -1).T).reshape(len(x), oh, ow, len(w))


class TestConvInputGrad:
    """A dense conv's input gradient: transposed conv, 1×1 GEMM or col2im fold."""

    @pytest.mark.parametrize("k, stride, padding", NHWC_CASES)
    def test_adjoint_of_the_convolution(self, rng, k, stride, padding):
        # <conv(x, w), g> == <x, conv_input_grad(g, w)> in float64.
        x = rng.normal(size=(2, 3, 9, 7))
        w = rng.normal(size=(4, 3, k, k))
        y = _conv_nhwc(x, w, stride, padding)
        g = rng.normal(size=y.shape)
        lhs = float((y * g).sum())
        rhs = float((x * conv_input_grad(g, w, x.shape, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 5),
        oc=st.sampled_from([1, 2, 7]),
        h=st.integers(3, 9),
        k=st.sampled_from([1, 3]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        depthwise=st.booleans(),
    )
    @example(n=2, c=4, oc=1, h=8, k=3, stride=1, padding=1, depthwise=False)
    @example(n=2, c=4, oc=4, h=8, k=3, stride=1, padding=2, depthwise=True)
    @example(n=2, c=4, oc=4, h=7, k=1, stride=2, padding=0, depthwise=False)
    def test_matches_the_col2im_formula(self, n, c, oc, h, k, stride, padding, depthwise):
        # float32 grad_x within rtol 1e-5 of col2im(g2 @ w), the formula
        # every conv used before; sums that cancel get a few ulps of atol.
        if h + 2 * padding < k:
            return
        rng = np.random.default_rng([n, c, oc, h, k, stride, padding, depthwise])
        x_shape, oh = (n, c, h, h), conv_out_size(h, k, stride, padding)
        if depthwise:
            w = rng.normal(size=(c, k, k)).astype(np.float32)
            g = rng.normal(size=(n, c, oh, oh)).astype(np.float32)
            x = rng.normal(size=x_shape).astype(np.float32)
            actual, _ = depthwise_conv_grads(g, x, w, stride, padding)
            cols = g.transpose(0, 2, 3, 1)[..., None, None] * w  # (n, oh, ow, c, k, k)
            expected = col2im(cols.reshape(-1, c * k * k), x_shape, (k, k), stride, padding)
        else:
            w = rng.normal(size=(oc, c, k, k)).astype(np.float32)
            g = rng.normal(size=(n, oh, oh, oc)).astype(np.float32)
            actual = conv_input_grad(g, w, x_shape, stride, padding)
            cols = g.reshape(-1, oc) @ w.reshape(oc, -1)
            expected = col2im(cols, x_shape, (k, k), stride, padding)
        assert actual.shape == x_shape and actual.dtype == np.float32
        atol = 1e-6 * np.abs(expected).max()
        np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=atol)

    def test_depthwise_input_grad_is_the_flipped_conv_adjoint(self, rng):
        # <depthwise_conv(x, w), g> == <x, grad_x> in float64, stride 1 and 2.
        for stride in (1, 2):
            x, w = rng.normal(size=(2, 4, 9, 9)), rng.normal(size=(4, 3, 3))
            g = rng.normal(size=depthwise_conv(x, w, stride, 1).shape)
            grad_x, _ = depthwise_conv_grads(g, x, w, stride, 1)
            lhs = float((depthwise_conv(x, w, stride, 1) * g).sum())
            assert lhs == pytest.approx(float((x * grad_x).sum()), rel=1e-12)


class TestSlidingWindows:
    def test_shape_and_values(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        win = sliding_windows(x, (3, 3), stride=1, padding=0)
        assert win.shape == (1, 2, 3, 3, 3, 3)
        np.testing.assert_allclose(win[0, 1, 2, 2], x[0, 1, 2:5, 2:5])

    def test_windows_match_im2col(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        win = sliding_windows(x, (2, 2), stride=2, padding=1)
        n, c, oh, ow, kh, kw = win.shape
        cols_from_win = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        cols, _ = im2col(x, (2, 2), stride=2, padding=1)
        np.testing.assert_allclose(cols_from_win, cols)


class TestSlidingWindowsValidation:
    def test_rejects_non_nchw(self):
        with pytest.raises(ShapeError):
            sliding_windows(np.zeros((2, 5, 5)), (3, 3))
        with pytest.raises(ShapeError):
            sliding_windows(np.zeros((5, 5)), (3, 3))
