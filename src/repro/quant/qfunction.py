"""Autograd Functions for quantized (and approximate) GEMM layers.

These Functions implement the full forward of Algorithm 1's inner loop:
quantize activations and weights to symmetric integer codes, run the GEMM on
integer codes — exactly, or through an approximate multiplier LUT — then
rescale by the product of step sizes and add the float bias.

Both Functions run one conv kernel (:func:`_conv_forward`): a linear layer
is a 1×1 convolution, and a grouped one is the dense convolution of its
block-diagonal weights, whose zero codes add exactly 0 to every integer
sum. A depthwise convolution runs the float ``Conv2d``'s depthwise helpers
on codes (exact forward, GE's exact output) and fake-quantized operands
(backward); only its approximate forward, one LUT ``take`` per kernel
offset (:func:`_lut_depthwise`), is its own.

The backward pass implements:

- the **STE** of Eq. 5: gradients flow as if the GEMM were exact, through
  the fake-quantized operands, with clipped-STE masks at the quantizer
  saturation boundaries; and
- **gradient estimation** of Eq. 12: when an error model with non-zero slope
  is attached, the upstream gradient is scaled elementwise by ``(1 + K)``,
  where ``K`` is the derivative of the fitted error function evaluated at
  the *exact* GEMM outputs (Eq. 13).

A dense convolution unfolds its codes at most once, as float32 columns
in its weight operand's ``(kh, kw, c)`` row order
(:func:`~repro.autograd.im2col.unfold_nhwc`), for the reference GEMM, the
GE exact GEMM and the backward. A planned forward gathers before it
unfolds (:meth:`~repro.approx.plan.GemmPlan.execute_conv`), so under
``no_grad`` it unfolds nothing. GEMM outputs stay float (their partial
sums are exact integers). The backward's ``grad_w`` is one GEMM on the
code columns, and its ``grad_x`` is
:func:`~repro.autograd.im2col.conv_input_grad`.

Weight-derived state — the weight codes, their clipped-STE mask and the
forward GEMM plan — is memoized in a
:class:`~repro.approx.plan.LayerKernelState` held by the layer's
:class:`~repro.approx.plan.PlanCache`. A revalidation hook keeps the plan
across an optimizer step when the *integer codes* did not change
(small-learning-rate SGD barely moves 4-bit codes) and repairs it in place
when a few codes did; anything else rebuilds. The backward pass and the
exact GEMM of gradient estimation recompute their weight operands every
call. Every cached path is bitwise identical to the uncached reference
(``tests/quant/test_train_plans.py``).
"""

from __future__ import annotations

import numpy as np

from repro.approx.backend import float_matmul
from repro.approx.gemm import approx_matmul, exact_int_matmul
from repro.approx.multiplier import Multiplier
from repro.approx.plan import (
    GemmPlan,
    LayerKernelState,
    build_plan,
    check_magnitude,
    conv_plan_operand,
    plan_caching_enabled,
    repair_plan,
)
from repro.autograd.function import Function
from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.im2col import (
    block_diagonal,
    check_conv_operands,
    conv_input_grad,
    conv_out_size,
    depthwise_conv,
    depthwise_conv_grads,
    diagonal_blocks,
    sliding_windows,
    unfold_nhwc,
)
from repro.errors import QuantizationError, ShapeError
from repro.ge.error_model import PiecewiseLinearErrorModel
from repro.obs import trace as tr
from repro.quant.quantizer import qrange


def _quantize_codes(x: np.ndarray, step, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes and the clipped-STE pass-through mask.

    ``step`` may be a scalar (layer-wise) or an array broadcastable against
    ``x`` (per-output-channel weight steps).
    """
    lo, hi = qrange(bits)
    scaled = np.asarray(x) / step
    codes = np.clip(np.rint(scaled), lo, hi).astype(np.int32)
    mask = (scaled >= lo) & (scaled <= hi)
    return codes, mask


def _weight_step_per_channel(w_step, out_channels: int) -> np.ndarray:
    """Normalise a scalar or per-channel weight step to shape (OC,)."""
    step = np.asarray(w_step, dtype=np.float32)
    if step.ndim == 0:
        return np.full(out_channels, float(step), dtype=np.float32)
    if step.shape != (out_channels,):
        raise QuantizationError(
            f"per-channel weight step has shape {step.shape}, expected ({out_channels},)"
        )
    return step


def _maybe_plan(b: np.ndarray, multiplier: Multiplier | None) -> GemmPlan | None:
    """A weight-stationary plan for ``b``, or None on the exact path.

    Plans are only built when caching is enabled
    (:func:`repro.approx.plan.plan_caching_enabled`) — with caching off the
    layers run the uncached reference GEMM, which benchmarks and the
    bitwise-equivalence tests compare against.
    """
    if multiplier is None or multiplier.is_exact or not plan_caching_enabled():
        return None
    return build_plan(b, multiplier)


def _needs_exact(error_model: PiecewiseLinearErrorModel | None) -> bool:
    """Whether gradient estimation needs the exact GEMM output.

    Its only consumer is the backward pass, so under ``no_grad`` nothing
    needs it.
    """
    return error_model is not None and not error_model.is_constant and is_grad_enabled()


def _gradient_scale(
    error_model: PiecewiseLinearErrorModel | None,
    y_exact: np.ndarray | None,
) -> np.ndarray | float:
    """``(1 + K)`` per Eq. 12, or 1.0 when GE degenerates to the STE."""
    if error_model is None or error_model.is_constant or y_exact is None:
        return 1.0
    return error_model.gradient_scale(y_exact).astype(np.float32)


def _lut_depthwise(
    xq: np.ndarray, w3: np.ndarray, stride: int, padding: int, multiplier: Multiplier
) -> np.ndarray:
    """The approximate depthwise convolution of codes ``xq`` with filters ``w3``
    ``(C, KH, KW)``: per kernel offset, one ``take`` from the flattened signed
    LUT at ``row(x + xhi) + (w + whi)``, summed exactly in float32. Padding is code 0."""
    with tr.span("approx.lut_gather", nbytes=xq.nbytes):
        slut = multiplier.signed_lut_f32()
        (xdim, wdim), (kh, kw) = slut.shape, w3.shape[1:]
        check_magnitude(xq, xdim // 2, multiplier.name, "a")
        check_magnitude(w3, wdim // 2, multiplier.name, "b")
        rows = sliding_windows(np.multiply(xq, wdim, dtype=np.intp), (kh, kw), stride, padding)
        cols = w3.astype(np.intp) + (xdim // 2 * wdim + wdim // 2)
        y = np.zeros(rows.shape[:4], dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                y += slut.take(rows[..., i, j] + cols[:, i, j, None, None])
        return y


def _weight_state(
    weight: np.ndarray,
    w_step_col: np.ndarray,
    w_bits: int,
    multiplier: Multiplier | None,
    depthwise: bool,
    plan_cache,
    plan_key,
) -> LayerKernelState:
    """The weight codes, their clipped-STE mask and the forward plan.

    Served from ``plan_cache`` when the layer has one. This holds the one
    revalidate/repair hook of every quantized layer. Depthwise layers run
    no GEMM, so they cache only the codes.
    """

    def quantize():
        return _quantize_codes(weight, w_step_col[:, None, None, None], w_bits)

    def state_from(wq, w_mask):
        if depthwise:
            return LayerKernelState(wq, w_mask)
        plan = _maybe_plan(np.ascontiguousarray(conv_plan_operand(wq)), multiplier)
        return LayerKernelState(wq, w_mask, plan)

    def revalidate(old):
        # An optimizer step bumped the weight version; if the 4-bit codes
        # are unchanged (steps are, by key construction), the plan still
        # describes the current weights exactly. Sparse code drift keeps
        # the plan via an in-place repair, diffed in the plan's (kh, kw, c)
        # row layout.
        wq, w_mask = quantize()
        neq = wq != old.wq
        if not neq.any():
            return LayerKernelState(old.wq, w_mask, old.plan), True
        if old.plan is not None and repair_plan(
            old.plan,
            conv_plan_operand(old.wq),
            conv_plan_operand(wq),
            changed=np.nonzero(conv_plan_operand(neq)),
        ):
            return LayerKernelState(wq, w_mask, old.plan), True
        return state_from(wq, w_mask), False

    if plan_cache is None:
        return LayerKernelState(*quantize())
    tag = "depthwise" if depthwise else "conv"
    return plan_cache.get(
        tag, plan_key, multiplier, lambda: state_from(*quantize()), revalidate=revalidate
    )


def _conv_forward(
    fn: Function,
    x,
    weight,
    bias,
    stride: int,
    padding: int,
    groups: int,
    act_step: float,
    w_step,
    act_bits: int,
    w_bits: int,
    multiplier: Multiplier | None,
    error_model: PiecewiseLinearErrorModel | None,
    plan_cache,
    plan_key,
) -> np.ndarray:
    """The quantized convolution of NCHW ``x``; state for the backward goes on ``fn``."""
    x = np.asarray(x)
    weight = np.asarray(weight)
    check_conv_operands(x, weight, groups)
    n, c, h, w = x.shape
    oc, cg, kh, kw = weight.shape
    # Depthwise keeps its own path; any other grouped conv runs dense on
    # block-diagonal weights, and the backward reads the blocks back.
    fn.depthwise = groups != 1 and groups == c and cg == 1 and oc == c
    fn.groups = 1 if fn.depthwise else groups
    if fn.groups != 1:
        weight = block_diagonal(weight, groups)
    fn.x_shape = x.shape
    fn.stride, fn.padding = stride, padding
    fn.act_step = float(act_step)
    fn.has_bias = bias is not None
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)

    xq, fn.x_mask = _quantize_codes(x, act_step, act_bits)
    fn.w_step_col = _weight_step_per_channel(w_step, oc)
    state = _weight_state(
        weight, fn.w_step_col, w_bits, multiplier, fn.depthwise, plan_cache, plan_key
    )
    wq = fn.wq = state.wq
    fn.w_mask = state.w_mask
    exact = multiplier is None or multiplier.is_exact
    need_exact = _needs_exact(error_model)
    rescale_col = np.float32(fn.act_step) * fn.w_step_col  # (OC,)

    if fn.depthwise:
        fn.xq, w3 = xq, wq.reshape(c, kh, kw)

        def exact_y():  # integer sums far below 2^24: exact in float32
            return depthwise_conv(xq.astype(np.float32), w3.astype(np.float32), stride, padding)

        y = exact_y() if exact else _lut_depthwise(xq, w3, stride, padding, multiplier)
    else:
        # One float32 unfold serves every reader of the columns.
        fn.cols = None
        if is_grad_enabled() or state.plan is None:
            fn.cols = unfold_nhwc(xq, (kh, kw), stride, padding)
            w_op, a_max = conv_plan_operand(wq), qrange(act_bits)[1]

        def exact_y():  # GEMM rows viewed as NHWC
            return exact_int_matmul(fn.cols, w_op, a_max).reshape(n, oh, ow, oc)

        if state.plan is not None:
            y = state.plan.execute_conv(xq, (kh, kw), stride, padding)
        elif exact:
            y = exact_y()
        else:
            y = approx_matmul(fn.cols.astype(np.int32), w_op, multiplier)
        y = y.reshape(n, oh, ow, oc)
    y_exact = (y if exact else exact_y()) if need_exact else None
    fn.scale = _gradient_scale(error_model, y_exact)
    nchw = y if fn.depthwise else y.transpose(0, 3, 1, 2)
    out = np.multiply(nchw, rescale_col[:, None, None], dtype=np.float32, order="C")  # one pass
    if fn.has_bias:
        out += np.asarray(bias).reshape(oc, 1, 1)
    return out


def _conv_backward(fn: Function, grad_out: np.ndarray) -> tuple:
    """``(grad_x, grad_w, grad_b)`` of :func:`_conv_forward`: the STE of Eq. 5,
    scaled by ``(1 + K)`` under gradient estimation. A dense ``grad_x`` is
    ``None`` when the input does not require grad (the stem)."""
    oc, c, kh, kw = fn.wq.shape  # c is 1 when depthwise
    stride, padding = fn.stride, fn.padding
    sx = np.float32(fn.act_step)
    sw_col = fn.w_step_col  # (OC,)
    grad_b = grad_out.sum(axis=(0, 2, 3)) if fn.has_bias else None

    if fn.depthwise:
        x_fq = fn.xq.astype(np.float32) * sx
        w_fq = fn.wq.reshape(oc, kh, kw).astype(np.float32) * sw_col[:, None, None]
        grad_x, grad_w = depthwise_conv_grads(grad_out * fn.scale, x_fq, w_fq, stride, padding)
        grad_w = grad_w.reshape(fn.wq.shape)
    else:
        g = np.multiply(grad_out.transpose(0, 2, 3, 1), fn.scale, order="C")
        grad_w = float_matmul(g.reshape(-1, oc).T, fn.cols) * sx
        grad_w = grad_w.reshape(oc, kh, kw, c).transpose(0, 3, 1, 2)
        w_fq = fn.wq.astype(np.float32) * sw_col[:, None, None, None]
        needs_x = getattr(fn.parents[0], "requires_grad", False)
        grad_x = conv_input_grad(g, w_fq, fn.x_shape, stride, padding) if needs_x else None

    grad_x = None if grad_x is None else np.multiply(grad_x, fn.x_mask, order="C")
    grad_w = grad_w * fn.w_mask
    if fn.groups != 1:
        grad_w = diagonal_blocks(grad_w, fn.groups)
    return grad_x, grad_w, grad_b


class QuantLinearFunction(Function):
    """Quantized / approximate fully connected layer: a 1×1 convolution."""

    def forward(
        self,
        x,
        weight,
        bias,
        act_step: float,
        w_step: float,
        act_bits: int,
        w_bits: int,
        multiplier: Multiplier | None = None,
        error_model: PiecewiseLinearErrorModel | None = None,
        plan_cache=None,
        plan_key=None,
    ):
        x = np.asarray(x)
        weight = np.asarray(weight)
        if x.ndim != 2 or weight.ndim != 2 or weight.shape[1] != x.shape[1]:
            raise ShapeError(
                f"QuantLinear expects (batch, features) input and (out, features) "
                f"weight, got {x.shape}, {weight.shape}"
            )
        out = _conv_forward(
            self, x[:, :, None, None], weight[:, :, None, None], bias, 1, 0, 1,
            act_step, w_step, act_bits, w_bits, multiplier, error_model,
            plan_cache, plan_key,
        )
        return out.reshape(out.shape[:2])

    def backward(self, grad_out):
        grad_x, grad_w, grad_b = _conv_backward(self, grad_out[:, :, None, None])
        grad_x = None if grad_x is None else grad_x.reshape(grad_x.shape[:2])
        return (grad_x, grad_w.reshape(grad_w.shape[:2]), grad_b) + (None,) * 6


class QuantConv2dFunction(Function):
    """Quantized / approximate convolution as an integer GEMM.

    A dense convolution gathers before unfolding when planned
    (:meth:`~repro.approx.plan.GemmPlan.execute_conv`), otherwise runs
    the GEMM on its float32 columns. The depthwise case (``groups ==
    in_channels == out_channels``) runs the float convolution's depthwise
    helpers on codes, or sums LUT products per kernel offset; any other
    grouped convolution runs as the dense one of its block-diagonal weights
    (:func:`~repro.autograd.im2col.block_diagonal`).
    """

    def forward(
        self,
        x,
        weight,
        bias,
        stride: int,
        padding: int,
        groups: int,
        act_step: float,
        w_step: float,
        act_bits: int,
        w_bits: int,
        multiplier: Multiplier | None = None,
        error_model: PiecewiseLinearErrorModel | None = None,
        plan_cache=None,
        plan_key=None,
    ):
        return _conv_forward(
            self, x, weight, bias, stride, padding, groups, act_step, w_step,
            act_bits, w_bits, multiplier, error_model, plan_cache, plan_key,
        )

    def backward(self, grad_out):
        return _conv_backward(self, grad_out) + (None,) * 9
