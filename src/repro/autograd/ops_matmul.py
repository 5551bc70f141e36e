"""Matrix multiplication, linear, convolution and pooling ops."""

from __future__ import annotations

import itertools

import numpy as np

from repro.autograd.function import Function
from repro.autograd.im2col import (
    _fold,
    block_diagonal,
    check_conv_operands,
    conv_input_grad,
    conv_out_size,
    depthwise_conv,
    depthwise_conv_grads,
    diagonal_blocks,
    im2col,
    sliding_windows,
)
from repro.autograd.tensor import Tensor, as_tensor

_backend_module = None  # lazily bound so autograd has no import-time approx dep


def _float_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float GEMM through :func:`repro.approx.backend.float_matmul`.

    Read through the module attribute on every call, so instrumentation
    that rebinds it sees every float GEMM of the autograd layer.
    """
    global _backend_module
    if _backend_module is None:
        from repro.approx import backend as _backend_module_

        _backend_module = _backend_module_
    return _backend_module.float_matmul(a, b)


class MatMul(Function):
    def forward(self, a, b):
        self.a, self.b = np.asarray(a), np.asarray(b)
        return _float_matmul(self.a, self.b)

    def backward(self, grad_out):
        grad_a = _float_matmul(grad_out, self.b.T)
        grad_b = _float_matmul(self.a.T, grad_out)
        return grad_a, grad_b


class LinearOp(Function):
    """Fused affine map ``x @ W.T + b`` with ``W`` of shape (out, in)."""

    def forward(self, x, weight, bias):
        self.x, self.weight = np.asarray(x), np.asarray(weight)
        self.has_bias = bias is not None
        out = _float_matmul(self.x, self.weight.T)
        if self.has_bias:
            out = out + bias
        return out

    def backward(self, grad_out):
        grad_x = _float_matmul(grad_out, self.weight)
        grad_w = _float_matmul(grad_out.T, self.x)
        grad_b = grad_out.sum(axis=0) if self.has_bias else None
        return grad_x, grad_w, grad_b


class Conv2dOp(Function):
    """Float convolution computed as an im2col GEMM.

    ``weight`` has shape ``(out_channels, in_channels/groups, kh, kw)``.
    A depthwise convolution (one filter per input channel) runs
    :func:`~repro.autograd.im2col.depthwise_conv`; any other grouped
    convolution runs as the dense one of its block-diagonal weights
    (:func:`~repro.autograd.im2col.block_diagonal`). A dense backward's
    ``grad_x`` is :func:`~repro.autograd.im2col.conv_input_grad`.
    """

    def forward(self, x, weight, bias, stride: int = 1, padding: int = 0, groups: int = 1):
        x, weight = np.asarray(x), np.asarray(weight)
        check_conv_operands(x, weight, groups)
        n, c, h, w = x.shape
        oc, cg, kh, kw = weight.shape
        self.depthwise = groups != 1 and groups == c and cg == 1 and oc == c
        if groups != 1 and not self.depthwise:
            weight = block_diagonal(weight, groups)
        self.x_shape = x.shape
        self.weight = weight
        self.stride, self.padding, self.groups = stride, padding, groups
        self.has_bias = bias is not None
        oh = conv_out_size(h, kh, stride, padding)
        ow = conv_out_size(w, kw, stride, padding)

        if self.depthwise:
            self.x = x
            out = depthwise_conv(x, weight.reshape(c, kh, kw), stride, padding)
        else:
            cols, _ = im2col(x, (kh, kw), stride, padding)  # (N*OH*OW, C*KH*KW)
            self.cols = cols
            out = _float_matmul(cols, weight.reshape(oc, -1).T)  # (N*OH*OW, OC)
            out = out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)

        if self.has_bias:
            out = out + np.asarray(bias).reshape(1, oc, 1, 1)
        return np.ascontiguousarray(out)

    def backward(self, grad_out):
        oc, _, kh, kw = self.weight.shape
        stride, padding, groups = self.stride, self.padding, self.groups
        grad_b = grad_out.sum(axis=(0, 2, 3)) if self.has_bias else None

        if self.depthwise:
            grad_x, grad_w = depthwise_conv_grads(
                grad_out, self.x, self.weight.reshape(oc, kh, kw), stride, padding
            )
            grad_w = grad_w.reshape(self.weight.shape)
        else:
            g = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1))
            grad_w = _float_matmul(g.reshape(-1, oc).T, self.cols).reshape(self.weight.shape)
            if groups != 1:
                grad_w = diagonal_blocks(grad_w, groups)
            grad_x = None
            if self.parents[0].requires_grad:
                grad_x = conv_input_grad(g, self.weight, self.x_shape, stride, padding)

        return grad_x, grad_w, grad_b, None, None, None


class AvgPool2d(Function):
    def forward(self, x, kernel: int, stride: int | None = None):
        x = np.asarray(x)
        stride = kernel if stride is None else stride
        self.x_shape = x.shape
        self.kernel, self.stride = kernel, stride
        windows = sliding_windows(x, (kernel, kernel), stride, 0)
        return windows.mean(axis=(4, 5))

    def backward(self, grad_out):
        k = self.kernel
        terms = itertools.repeat(grad_out / (k * k), k * k)
        grad_x = _fold(terms, self.x_shape, (k, k), self.stride, 0, grad_out.dtype)
        return (grad_x, None, None)


class MaxPool2d(Function):
    def forward(self, x, kernel: int, stride: int | None = None):
        x = np.asarray(x)
        stride = kernel if stride is None else stride
        self.x_shape = x.shape
        self.kernel, self.stride = kernel, stride
        windows = sliding_windows(x, (kernel, kernel), stride, 0)
        n, c, oh, ow = windows.shape[:4]
        flat = windows.reshape(n, c, oh, ow, kernel * kernel)
        self.argmax = flat.argmax(axis=-1)
        return flat.max(axis=-1)

    def backward(self, grad_out):
        k, s = self.kernel, self.stride
        grad_x = np.zeros(self.x_shape, dtype=grad_out.dtype)
        ki, kj = np.divmod(self.argmax, k)
        ni, ci, oi, oj = np.indices(self.argmax.shape, sparse=False)
        np.add.at(grad_x, (ni, ci, oi * s + ki, oj * s + kj), grad_out)
        return (grad_x, None, None)


class GlobalAvgPool(Function):
    """Average over all spatial positions, producing (N, C)."""

    def forward(self, x):
        x = np.asarray(x)
        self.x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out):
        n, c, h, w = self.x_shape
        grad = np.broadcast_to(grad_out[:, :, None, None], self.x_shape) / (h * w)
        return (np.ascontiguousarray(grad),)


# ----------------------------------------------------------------------
# functional wrappers
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    return MatMul.apply(as_tensor(a), as_tensor(b))


def linear(x, weight, bias=None) -> Tensor:
    return LinearOp.apply(as_tensor(x), as_tensor(weight), bias)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    return Conv2dOp.apply(as_tensor(x), as_tensor(weight), bias, stride, padding, groups)


def avg_pool2d(x, kernel: int, stride: int | None = None) -> Tensor:
    return AvgPool2d.apply(as_tensor(x), kernel, stride)


def max_pool2d(x, kernel: int, stride: int | None = None) -> Tensor:
    return MaxPool2d.apply(as_tensor(x), kernel, stride)


def global_avg_pool(x) -> Tensor:
    return GlobalAvgPool.apply(as_tensor(x))
