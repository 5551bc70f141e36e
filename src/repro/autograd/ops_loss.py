"""Softmax and loss ops (Eq. 1 of the paper and building blocks for KD)."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError


def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on a raw array (no autograd)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax on a raw array (no autograd)."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


class Softmax(Function):
    def forward(self, logits, axis: int = -1):
        self.axis = axis
        self.out = softmax_np(np.asarray(logits), axis)
        return self.out

    def backward(self, grad_out):
        dot = (grad_out * self.out).sum(axis=self.axis, keepdims=True)
        return (self.out * (grad_out - dot), None)


class SoftmaxCrossEntropy(Function):
    """Mean cross-entropy between logits and integer class labels (Eq. 1).

    Fuses softmax and NLL for numerical stability; the backward pass is the
    classic ``(softmax - onehot) / N``.
    """

    def forward(self, logits, labels):
        logits = np.asarray(logits)
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ShapeError(f"expected (batch, classes) logits, got {logits.shape}")
        if labels.shape != (logits.shape[0],):
            raise ShapeError(
                f"labels shape {labels.shape} does not match batch size {logits.shape[0]}"
            )
        self.labels = labels.astype(np.int64)
        self.log_probs = log_softmax_np(logits, axis=1)
        n = logits.shape[0]
        nll = -self.log_probs[np.arange(n), self.labels]
        return np.asarray(nll.mean(), dtype=logits.dtype)

    def backward(self, grad_out):
        n = self.log_probs.shape[0]
        grad = np.exp(self.log_probs)
        grad[np.arange(n), self.labels] -= 1.0
        grad *= grad_out / n
        return (grad, None)


class CrossEntropyWithProbs(Function):
    """Mean cross-entropy ``-Σ p log σ(y)`` against a soft target distribution.

    ``targets`` is treated as a constant (teacher outputs are detached), which
    matches the KD formulation in the paper — gradients flow only into the
    student logits.
    """

    def forward(self, logits, targets):
        logits = np.asarray(logits)
        targets = np.asarray(targets)
        if logits.shape != targets.shape:
            raise ShapeError(
                f"logits shape {logits.shape} != targets shape {targets.shape}"
            )
        self.targets = targets
        self.log_probs = log_softmax_np(logits, axis=1)
        n = logits.shape[0]
        loss = -(targets * self.log_probs).sum() / n
        return np.asarray(loss, dtype=logits.dtype)

    def backward(self, grad_out):
        n = self.log_probs.shape[0]
        softmax = np.exp(self.log_probs)
        row_mass = self.targets.sum(axis=1, keepdims=True)
        grad = (softmax * row_mass - self.targets) * (grad_out / n)
        return (grad, None)


# ----------------------------------------------------------------------
# functional wrappers
# ----------------------------------------------------------------------
def softmax(logits, axis: int = -1) -> Tensor:
    return Softmax.apply(as_tensor(logits), axis)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Hard-label loss ``C(y)`` of Eq. 1 (mean over the minibatch)."""
    labels = labels.data if isinstance(labels, Tensor) else labels
    return SoftmaxCrossEntropy.apply(as_tensor(logits), np.asarray(labels))


def cross_entropy_with_probs(logits, targets) -> Tensor:
    """Soft-label cross-entropy; ``targets`` is detached."""
    targets = targets.data if isinstance(targets, Tensor) else targets
    return CrossEntropyWithProbs.apply(as_tensor(logits), np.asarray(targets))
