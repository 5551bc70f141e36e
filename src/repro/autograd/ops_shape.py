"""Shape-manipulation ops: reshape, transpose, slicing."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor


class Reshape(Function):
    def forward(self, a, shape):
        a = np.asarray(a)
        self.in_shape = a.shape
        return a.reshape(shape)

    def backward(self, grad_out):
        return (grad_out.reshape(self.in_shape), None)


class Transpose(Function):
    def forward(self, a, axes):
        a = np.asarray(a)
        self.axes = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
        return a.transpose(self.axes)

    def backward(self, grad_out):
        inverse = np.argsort(self.axes)
        return (grad_out.transpose(inverse), None)


class GetItem(Function):
    def forward(self, a, index):
        a = np.asarray(a)
        self.in_shape = a.shape
        self.index = index
        return np.asarray(a[index])

    def backward(self, grad_out):
        grad = np.zeros(self.in_shape, dtype=grad_out.dtype)
        np.add.at(grad, self.index, grad_out)
        return (grad, None)


# ----------------------------------------------------------------------
# functional wrappers
# ----------------------------------------------------------------------
def reshape(a, shape) -> Tensor:
    return Reshape.apply(as_tensor(a), tuple(shape))


def flatten(a, start_axis: int = 1) -> Tensor:
    """Flatten everything from ``start_axis`` onward into one axis."""
    t = as_tensor(a)
    lead = t.shape[:start_axis]
    return reshape(t, lead + (-1,))


def transpose(a, axes=None) -> Tensor:
    return Transpose.apply(as_tensor(a), axes)


def getitem(a, index) -> Tensor:
    return GetItem.apply(as_tensor(a), index)
