"""Gradient checks for shape and reduction ops."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    flatten,
    getitem,
    max_,
    mean,
    reshape,
    sum_,
    transpose,
)


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        a = t64(rng.normal(size=(2, 6)))
        check_gradients(lambda x: reshape(x, (3, 4)), [a])

    def test_reshape_with_minus_one(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert reshape(a, (2, -1)).shape == (2, 12)

    def test_flatten(self, rng):
        a = t64(rng.normal(size=(2, 3, 4)))
        out = flatten(a)
        assert out.shape == (2, 12)
        check_gradients(lambda x: flatten(x), [a])

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert transpose(a).shape == (4, 3, 2)

    def test_transpose_gradient(self, rng):
        a = t64(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda x: transpose(x, (1, 2, 0)), [a])

    def test_getitem_gradient_scatters(self):
        a = t64(np.arange(6.0).reshape(2, 3))
        out = getitem(a, (0, slice(None)))
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [[1, 1, 1], [0, 0, 0]])


class TestReductions:
    def test_sum_all(self, rng):
        check_gradients(lambda x: sum_(x), [t64(rng.normal(size=(3, 4)))])

    def test_sum_axis(self, rng):
        check_gradients(lambda x: sum_(x, axis=1), [t64(rng.normal(size=(3, 4)))])

    def test_sum_keepdims(self, rng):
        check_gradients(
            lambda x: sum_(x, axis=(0, 2), keepdims=True),
            [t64(rng.normal(size=(2, 3, 4)))],
        )

    def test_mean_all(self, rng):
        check_gradients(lambda x: mean(x), [t64(rng.normal(size=(3, 4)))])

    def test_mean_axis_tuple(self, rng):
        check_gradients(
            lambda x: mean(x, axis=(0, 2)), [t64(rng.normal(size=(2, 3, 4)))]
        )

    def test_mean_value(self):
        assert mean(Tensor([1.0, 2.0, 3.0])).item() == pytest.approx(2.0)

    def test_max_gradient_unique(self, rng):
        vals = rng.permutation(12).astype(np.float64).reshape(3, 4)
        check_gradients(lambda x: max_(x, axis=1), [t64(vals)])

    def test_max_value_and_tie_split(self):
        a = Tensor(np.array([[1.0, 1.0]], dtype=np.float64), requires_grad=True)
        out = max_(a, axis=1)
        out.backward(np.ones(1))
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])

    def test_negative_axis(self, rng):
        check_gradients(lambda x: sum_(x, axis=-1), [t64(rng.normal(size=(2, 3)))])

    def test_tensor_methods(self, rng):
        a = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        assert a.sum().shape == ()
        assert a.mean(axis=0).shape == (3,)
        assert a.max(axis=1).shape == (2,)
