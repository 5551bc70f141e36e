"""Gradient checks for matmul, linear, convolution and pooling."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    avg_pool2d,
    check_gradients,
    conv2d,
    global_avg_pool,
    linear,
    matmul,
    max_pool2d,
)
from repro.errors import ShapeError


def t64(arr, scale=1.0):
    return Tensor(np.asarray(arr, dtype=np.float64) * scale, requires_grad=True)


class TestMatMul:
    def test_value(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_allclose((a @ b).data, [[11.0]])

    def test_gradient(self, rng):
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(4, 5)))
        check_gradients(matmul, [a, b])


class TestLinear:
    def test_matches_manual(self, rng):
        x = rng.normal(size=(2, 3)).astype(np.float32)
        w = rng.normal(size=(4, 3)).astype(np.float32)
        b = rng.normal(size=(4,)).astype(np.float32)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-5)

    def test_gradient_with_bias(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        w = t64(rng.normal(size=(5, 4)))
        b = t64(rng.normal(size=(5,)))
        check_gradients(lambda x, w, b: linear(x, w, b), [x, w, b])

    def test_gradient_without_bias(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        w = t64(rng.normal(size=(5, 4)))
        check_gradients(lambda x, w: linear(x, w), [x, w])


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32))
        assert conv2d(x, w, stride=1, padding=1).shape == (2, 5, 8, 8)
        assert conv2d(x, w, stride=2, padding=1).shape == (2, 5, 4, 4)
        assert conv2d(x, w, stride=1, padding=0).shape == (2, 5, 6, 6)

    def test_matches_direct_computation(self, rng):
        # Hand-rolled dense conv as the reference.
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float64)
        out = conv2d(Tensor(x), Tensor(w)).data
        ref = np.zeros((1, 3, 3, 3))
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, oc, i, j] = (x[0, :, i : i + 3, j : j + 3] * w[oc]).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_gradient_dense(self, rng):
        x = t64(rng.normal(size=(2, 3, 6, 6)), 0.5)
        w = t64(rng.normal(size=(4, 3, 3, 3)), 0.2)
        b = t64(rng.normal(size=(4,)), 0.1)
        check_gradients(lambda x, w, b: conv2d(x, w, b, 2, 1), [x, w, b])

    @pytest.mark.parametrize("k, stride, padding", [(3, 1, 1), (3, 1, 0), (1, 1, 0), (1, 2, 0)])
    def test_gradient_dense_input_grad_branches(self, rng, k, stride, padding):
        # The transposed convolution, padded and not, the 1×1 GEMM and a
        # strided 1×1 kernel's col2im; test_gradient_dense has a strided 3×3.
        x = t64(rng.normal(size=(2, 3, 6, 6)), 0.5)
        w = t64(rng.normal(size=(4, 3, k, k)), 0.2)
        check_gradients(lambda x, w: conv2d(x, w, None, stride, padding), [x, w])

    def test_gradient_depthwise(self, rng):
        x = t64(rng.normal(size=(2, 4, 5, 5)), 0.5)
        w = t64(rng.normal(size=(4, 1, 3, 3)), 0.3)
        check_gradients(lambda x, w: conv2d(x, w, None, 1, 1, groups=4), [x, w])

    def test_gradient_grouped(self, rng):
        x = t64(rng.normal(size=(2, 6, 5, 5)), 0.5)
        w = t64(rng.normal(size=(4, 3, 3, 3)), 0.3)
        check_gradients(lambda x, w: conv2d(x, w, None, 1, 0, groups=2), [x, w])

    def test_grouped_matches_blockwise_dense(self, rng):
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(6, 2, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), None, 1, 1, groups=2).data
        lo = conv2d(Tensor(x[:, :2]), Tensor(w[:3]), None, 1, 1).data
        hi = conv2d(Tensor(x[:, 2:]), Tensor(w[3:]), None, 1, 1).data
        np.testing.assert_allclose(out, np.concatenate([lo, hi], axis=1), rtol=1e-5)

    def test_rejects_bad_groups(self, rng):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((4, 3, 3, 3), dtype=np.float32))
        for groups in (2, 0, -1):
            with pytest.raises(ShapeError):
                conv2d(x, w, None, 1, 1, groups=groups)

    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, padding",
        [
            ((1, 3, 6, 6), (4, 3, 3, 3), 0, 0),
            ((1, 3, 6, 6), (4, 3, 3, 3), 1, -1),
            ((3, 6, 6), (4, 3, 3, 3), 1, 0),
            ((1, 3, 6, 6), (4, 3, 3), 1, 0),
        ],
        ids=["stride0", "padding-neg", "3d-x", "3d-w"],
    )
    def test_rejects_bad_geometry(self, x_shape, w_shape, stride, padding):
        x = Tensor(np.zeros(x_shape, dtype=np.float32))
        w = Tensor(np.zeros(w_shape, dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w, None, stride, padding)

    def test_rejects_channel_mismatch(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((4, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, w)


class TestPooling:
    def test_avg_pool_value(self):
        x = Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self, rng):
        x = t64(rng.normal(size=(2, 3, 4, 4)))
        check_gradients(lambda x: avg_pool2d(x, 2), [x])

    @pytest.mark.parametrize("kernel, stride", [(3, 2), (2, 3)], ids=["overlap", "gap"])
    def test_avg_pool_grad_matches_strided_add_loop(self, rng, kernel, stride):
        x = Tensor(rng.normal(size=(2, 3, 9, 7)).astype(np.float32), requires_grad=True)
        out = avg_pool2d(x, kernel, stride=stride)
        grad = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad)
        # the per-offset strided-add loop the fold replaces, in (i, j) order
        oh, ow = out.shape[2:]
        expected = np.zeros(x.shape, dtype=np.float32)
        for i in range(kernel):
            for j in range(kernel):
                expected[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                    grad / (kernel * kernel)
                )
        np.testing.assert_array_equal(x.grad, expected)

    def test_max_pool_value(self):
        x = Tensor(np.arange(16.0, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradient(self, rng):
        vals = rng.permutation(32).astype(np.float64).reshape(2, 1, 4, 4)
        check_gradients(lambda x: max_pool2d(x, 2), [t64(vals)])

    def test_max_pool_stride(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float32))
        assert max_pool2d(x, 2, stride=1).shape == (1, 2, 5, 5)

    @pytest.mark.parametrize("pool", [avg_pool2d, max_pool2d], ids=["avg", "max"])
    @pytest.mark.parametrize(
        "kernel, stride", [(2, 0), (0, None), (0, 1), (-1, None)],
        ids=["stride0", "kernel0", "kernel0-stride1", "kernel-neg"],
    )
    def test_rejects_bad_geometry(self, pool, kernel, stride):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            pool(x, kernel, stride=stride)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = global_avg_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), rtol=1e-5)

    def test_global_avg_pool_gradient(self, rng):
        check_gradients(global_avg_pool, [t64(rng.normal(size=(2, 3, 4, 4)))])
