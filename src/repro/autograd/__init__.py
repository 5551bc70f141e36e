"""Pure-numpy reverse-mode automatic differentiation.

Public surface: :class:`Tensor`, :class:`Function`, functional ops, gradient
mode switches and a numerical gradient checker.
"""

from repro.autograd.tensor import Tensor, as_tensor
from repro.autograd.function import Function, unbroadcast
from repro.autograd.grad_mode import is_grad_enabled, no_grad, set_grad_enabled
from repro.autograd import _bind  # noqa: F401  (side effect: operator overloads)
from repro.autograd.grad_check import check_gradients, numerical_gradient
from repro.autograd.im2col import col2im, conv_out_size, im2col, sliding_windows
from repro.autograd.ops_activation import leaky_relu, relu, relu6, sigmoid, tanh
from repro.autograd.ops_basic import (
    abs_,
    add,
    clip,
    div,
    exp,
    log,
    mul,
    neg,
    pow_scalar,
    sqrt,
    sub,
)
from repro.autograd.ops_loss import (
    cross_entropy_with_probs,
    log_softmax_np,
    softmax,
    softmax_cross_entropy,
    softmax_np,
)
from repro.autograd.ops_matmul import (
    avg_pool2d,
    conv2d,
    global_avg_pool,
    linear,
    matmul,
    max_pool2d,
)
from repro.autograd.ops_reduce import max_, mean, sum_
from repro.autograd.ops_shape import (
    flatten,
    getitem,
    reshape,
    transpose,
)

__all__ = [
    "Tensor",
    "Function",
    "as_tensor",
    "unbroadcast",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "check_gradients",
    "numerical_gradient",
    "im2col",
    "col2im",
    "conv_out_size",
    "sliding_windows",
    # ops
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_scalar",
    "exp",
    "log",
    "sqrt",
    "abs_",
    "clip",
    "relu",
    "relu6",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "matmul",
    "linear",
    "conv2d",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool",
    "sum_",
    "mean",
    "max_",
    "reshape",
    "flatten",
    "transpose",
    "getitem",
    "softmax",
    "softmax_np",
    "log_softmax_np",
    "softmax_cross_entropy",
    "cross_entropy_with_probs",
]
