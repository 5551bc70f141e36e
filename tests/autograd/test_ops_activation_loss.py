"""Gradient checks and semantics for activations and losses."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    cross_entropy_with_probs,
    leaky_relu,
    log_softmax_np,
    relu,
    relu6,
    sigmoid,
    softmax,
    softmax_cross_entropy,
    softmax_np,
    tanh,
)
from repro.errors import ShapeError


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self, rng):
        vals = rng.normal(size=(10,))
        vals = vals[np.abs(vals) > 0.05]  # stay off the kink
        check_gradients(relu, [t64(vals)])

    def test_relu6_clips_both_sides(self):
        out = relu6(Tensor([-1.0, 3.0, 8.0]))
        np.testing.assert_allclose(out.data, [0.0, 3.0, 6.0])

    def test_relu6_gradient(self):
        a = t64([-1.0, 3.0, 8.0])
        out = relu6(a)
        out.backward(np.ones(3))
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_leaky_relu_gradient(self, rng):
        vals = rng.normal(size=(8,))
        vals = vals[np.abs(vals) > 0.05]
        check_gradients(lambda x: leaky_relu(x, 0.1), [t64(vals)])

    def test_sigmoid_gradient(self, rng):
        check_gradients(sigmoid, [t64(rng.normal(size=(5,)))])

    def test_tanh_gradient(self, rng):
        check_gradients(tanh, [t64(rng.normal(size=(5,)))])


class TestSoftmax:
    def test_softmax_np_sums_to_one(self, rng):
        probs = softmax_np(rng.normal(size=(4, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-6)

    def test_softmax_np_stable_for_large_logits(self):
        probs = softmax_np(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_np_consistency(self, rng):
        logits = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            np.exp(log_softmax_np(logits)), softmax_np(logits), rtol=1e-6
        )

    def test_softmax_gradient(self, rng):
        check_gradients(lambda x: softmax(x, axis=1), [t64(rng.normal(size=(3, 4)))])

class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 6))
        labels = rng.integers(0, 6, size=4)
        loss = softmax_cross_entropy(Tensor(logits.astype(np.float32)), labels)
        manual = -log_softmax_np(logits)[np.arange(4), labels].mean()
        assert loss.item() == pytest.approx(manual, rel=1e-5)

    def test_gradient(self, rng):
        logits = t64(rng.normal(size=(5, 8)))
        labels = rng.integers(0, 8, size=5)
        check_gradients(lambda l: softmax_cross_entropy(l, labels), [logits])

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -20.0)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-5

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3))


class TestCrossEntropyWithProbs:
    def test_matches_hard_loss_for_onehot(self, rng):
        logits = rng.normal(size=(4, 5)).astype(np.float64)
        labels = rng.integers(0, 5, size=4)
        onehot = np.eye(5)[labels]
        soft = cross_entropy_with_probs(Tensor(logits), onehot)
        hard = softmax_cross_entropy(Tensor(logits), labels)
        assert soft.item() == pytest.approx(hard.item(), rel=1e-5)

    def test_gradient(self, rng):
        logits = t64(rng.normal(size=(4, 5)))
        targets = softmax_np(rng.normal(size=(4, 5)))
        check_gradients(lambda l: cross_entropy_with_probs(l, targets), [logits])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy_with_probs(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))

    def test_minimised_at_target_distribution(self, rng):
        # Gradient should vanish when softmax(logits) == targets.
        targets = softmax_np(rng.normal(size=(3, 4)))
        logits = Tensor(np.log(targets), requires_grad=True)
        loss = cross_entropy_with_probs(logits, targets)
        loss.backward()
        np.testing.assert_allclose(logits.grad, np.zeros_like(targets), atol=1e-6)
