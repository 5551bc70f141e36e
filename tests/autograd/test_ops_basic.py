"""Gradient checks and semantics for elementwise ops."""

import numpy as np

from repro.autograd import (
    Tensor,
    abs_,
    add,
    check_gradients,
    clip,
    div,
    exp,
    log,
    mul,
    pow_scalar,
    sqrt,
    sub,
)


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


class TestForward:
    def test_add(self):
        np.testing.assert_allclose(add([1.0, 2.0], [3.0, 4.0]).data, [4.0, 6.0])

    def test_sub(self):
        np.testing.assert_allclose(sub([5.0], [3.0]).data, [2.0])

    def test_mul(self):
        np.testing.assert_allclose(mul([2.0], [4.0]).data, [8.0])

    def test_div(self):
        np.testing.assert_allclose(div([8.0], [4.0]).data, [2.0])

    def test_operator_overloads(self):
        a, b = Tensor([6.0]), Tensor([2.0])
        np.testing.assert_allclose((a + b).data, [8.0])
        np.testing.assert_allclose((a - b).data, [4.0])
        np.testing.assert_allclose((a * b).data, [12.0])
        np.testing.assert_allclose((a / b).data, [3.0])
        np.testing.assert_allclose((-a).data, [-6.0])
        np.testing.assert_allclose((a**2).data, [36.0])

    def test_reflected_operators(self):
        a = Tensor([2.0])
        np.testing.assert_allclose((3.0 + a).data, [5.0])
        np.testing.assert_allclose((3.0 - a).data, [1.0])
        np.testing.assert_allclose((3.0 * a).data, [6.0])
        np.testing.assert_allclose((3.0 / a).data, [1.5])

    def test_clip_values(self):
        out = clip([-2.0, 0.5, 2.0], -1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.5, 1.0])


class TestGradients:
    def test_add_broadcast(self, rng):
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(4,)))
        check_gradients(add, [a, b])

    def test_sub_broadcast(self, rng):
        a = t64(rng.normal(size=(2, 3)))
        b = t64(rng.normal(size=(1, 3)))
        check_gradients(sub, [a, b])

    def test_mul_broadcast(self, rng):
        a = t64(rng.normal(size=(3, 4)))
        b = t64(rng.normal(size=(3, 1)))
        check_gradients(mul, [a, b])

    def test_div(self, rng):
        a = t64(rng.normal(size=(3,)))
        b = t64(rng.uniform(1.0, 2.0, size=(3,)))
        check_gradients(div, [a, b])

    def test_pow_scalar(self, rng):
        a = t64(rng.uniform(0.5, 2.0, size=(4,)))
        check_gradients(lambda x: pow_scalar(x, 3.0), [a])

    def test_exp(self, rng):
        check_gradients(exp, [t64(rng.normal(size=(4,)))])

    def test_log(self, rng):
        check_gradients(log, [t64(rng.uniform(0.5, 3.0, size=(4,)))])

    def test_sqrt(self, rng):
        check_gradients(sqrt, [t64(rng.uniform(0.5, 3.0, size=(4,)))])

    def test_abs_away_from_zero(self, rng):
        vals = rng.uniform(0.5, 2.0, size=(4,)) * rng.choice([-1.0, 1.0], size=4)
        check_gradients(abs_, [t64(vals)])

    def test_clip_gradient_zero_outside(self):
        a = Tensor(np.array([-2.0, 0.0, 2.0], dtype=np.float64), requires_grad=True)
        out = clip(a, -1.0, 1.0)
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_chain_rule_composition(self, rng):
        a = t64(rng.uniform(0.5, 1.5, size=(3,)))
        check_gradients(lambda x: exp(mul(x, x)), [a])


class TestBroadcastingEdgeCases:
    def test_scalar_plus_matrix(self, rng):
        a = t64(rng.normal(size=()))
        b = t64(rng.normal(size=(2, 3)))
        check_gradients(add, [a, b])

    def test_leading_axis_broadcast(self, rng):
        a = t64(rng.normal(size=(2, 1, 3)))
        b = t64(rng.normal(size=(4, 3)))
        check_gradients(mul, [a, b])
