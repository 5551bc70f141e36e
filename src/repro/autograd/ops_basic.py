"""Elementwise arithmetic and math ops."""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function, unbroadcast
from repro.autograd.tensor import Tensor, as_tensor


class Add(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.asarray(a + b)

    def backward(self, grad_out):
        return unbroadcast(grad_out, self.a_shape), unbroadcast(grad_out, self.b_shape)


class Sub(Function):
    def forward(self, a, b):
        self.a_shape, self.b_shape = np.shape(a), np.shape(b)
        return np.asarray(a - b)

    def backward(self, grad_out):
        return unbroadcast(grad_out, self.a_shape), unbroadcast(-grad_out, self.b_shape)


class Mul(Function):
    def forward(self, a, b):
        self.a, self.b = np.asarray(a), np.asarray(b)
        return self.a * self.b

    def backward(self, grad_out):
        return (
            unbroadcast(grad_out * self.b, self.a.shape),
            unbroadcast(grad_out * self.a, self.b.shape),
        )


class Div(Function):
    def forward(self, a, b):
        self.a, self.b = np.asarray(a), np.asarray(b)
        return self.a / self.b

    def backward(self, grad_out):
        grad_a = grad_out / self.b
        grad_b = -grad_out * self.a / (self.b * self.b)
        return unbroadcast(grad_a, self.a.shape), unbroadcast(grad_b, self.b.shape)


class Neg(Function):
    def forward(self, a):
        return -np.asarray(a)

    def backward(self, grad_out):
        return (-grad_out,)


class PowScalar(Function):
    """Raise a tensor to a fixed scalar exponent."""

    def forward(self, a, exponent: float):
        self.a = np.asarray(a)
        self.exponent = float(exponent)
        return self.a**self.exponent

    def backward(self, grad_out):
        return (grad_out * self.exponent * self.a ** (self.exponent - 1.0), None)


class Exp(Function):
    def forward(self, a):
        self.out = np.exp(a)
        return self.out

    def backward(self, grad_out):
        return (grad_out * self.out,)


class Log(Function):
    def forward(self, a):
        self.a = np.asarray(a)
        return np.log(self.a)

    def backward(self, grad_out):
        return (grad_out / self.a,)


class Sqrt(Function):
    def forward(self, a):
        self.out = np.sqrt(a)
        return self.out

    def backward(self, grad_out):
        return (grad_out / (2.0 * self.out),)


class Abs(Function):
    def forward(self, a):
        self.sign = np.sign(a)
        return np.abs(a)

    def backward(self, grad_out):
        return (grad_out * self.sign,)


class Clip(Function):
    """Clamp to ``[lo, hi]``; the gradient is zero outside the active range."""

    def forward(self, a, lo: float | None, hi: float | None):
        a = np.asarray(a)
        self.mask = np.ones_like(a, dtype=bool)
        if lo is not None:
            self.mask &= a >= lo
        if hi is not None:
            self.mask &= a <= hi
        return np.clip(a, lo, hi)

    def backward(self, grad_out):
        return (grad_out * self.mask, None, None)


# ----------------------------------------------------------------------
# functional wrappers
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    return Add.apply(as_tensor(a), as_tensor(b))


def sub(a, b) -> Tensor:
    return Sub.apply(as_tensor(a), as_tensor(b))


def mul(a, b) -> Tensor:
    return Mul.apply(as_tensor(a), as_tensor(b))


def div(a, b) -> Tensor:
    return Div.apply(as_tensor(a), as_tensor(b))


def neg(a) -> Tensor:
    return Neg.apply(as_tensor(a))


def pow_scalar(a, exponent: float) -> Tensor:
    return PowScalar.apply(as_tensor(a), float(exponent))


def exp(a) -> Tensor:
    return Exp.apply(as_tensor(a))


def log(a) -> Tensor:
    return Log.apply(as_tensor(a))


def sqrt(a) -> Tensor:
    return Sqrt.apply(as_tensor(a))


def abs_(a) -> Tensor:
    return Abs.apply(as_tensor(a))


def clip(a, lo: float | None = None, hi: float | None = None) -> Tensor:
    return Clip.apply(as_tensor(a), lo, hi)
