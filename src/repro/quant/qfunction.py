"""Autograd Functions for quantized (and approximate) GEMM layers.

These Functions implement the full forward of Algorithm 1's inner loop:
quantize activations and weights to symmetric integer codes, run the GEMM on
integer codes — exactly, or through an approximate multiplier LUT — then
rescale by the product of step sizes and add the float bias.

The backward pass implements:

- the **STE** of Eq. 5: gradients flow as if the GEMM were exact, through
  the fake-quantized operands, with clipped-STE masks at the quantizer
  saturation boundaries; and
- **gradient estimation** of Eq. 12: when an error model with non-zero slope
  is attached, the upstream gradient is scaled elementwise by ``(1 + K)``,
  where ``K`` is the derivative of the fitted error function evaluated at
  the *exact* GEMM outputs (Eq. 13).

A planned dense convolution never runs the activation codes through
``im2col`` for its forward GEMM:
:meth:`~repro.approx.plan.GemmPlan.execute_conv` gathers each padded
activation's LUT products once and unfolds the products. The codes are
unfolded only when something reads the columns — the exact GEMM of
gradient estimation, or the backward pass, which builds them lazily from
the stored NCHW codes — so under ``no_grad`` no ``im2col`` runs.

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
    conv_plan_operand,
    plan_caching_enabled,
    repair_plan,
)
from repro.autograd.function import Function
from repro.autograd.grad_mode import is_grad_enabled
from repro.autograd.im2col import col2im, conv_out_size, im2col, sliding_windows
from repro.errors import QuantizationError, ShapeError
from repro.ge.error_model import PiecewiseLinearErrorModel
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


def _int_gemm(
    a: np.ndarray,
    b: np.ndarray,
    multiplier: Multiplier | None,
    need_exact: bool,
    plan: GemmPlan | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Integer GEMM, approximate when a non-exact multiplier is given.

    Returns ``(y_int, y_exact)`` where ``y_exact`` is only materialised when
    ``need_exact`` (for GE region tests) and differs from ``y_int``. ``plan``
    is an optional weight-stationary plan built from this exact ``b``; the
    result is bitwise identical with or without it.
    """

    if multiplier is None or multiplier.is_exact:
        y = exact_int_matmul(a, b)
        return y, (y if need_exact else None)
    y = approx_matmul(a, b, multiplier, plan=plan)
    y_exact = exact_int_matmul(a, b) if need_exact else None
    return y, y_exact


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


class QuantLinearFunction(Function):
    """Quantized / approximate fully connected layer as one graph node."""

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
        if x.ndim != 2:
            raise ShapeError(f"QuantLinear expects (batch, features), got {x.shape}")
        self.act_step = float(act_step)
        self.w_step_col = _weight_step_per_channel(w_step, weight.shape[0])
        xq, self.x_mask = _quantize_codes(x, act_step, act_bits)

        def _quantize_weight():
            return _quantize_codes(weight, self.w_step_col[:, None], w_bits)

        def _state_from(wq, w_mask):
            return LayerKernelState(
                wq, w_mask, _maybe_plan(np.ascontiguousarray(wq.T), multiplier)
            )

        def _build():
            return _state_from(*_quantize_weight())

        def _revalidate(old):
            # An optimizer step bumped the weight version; if the 4-bit
            # codes are unchanged (steps are, by key construction), the
            # plan still describes the current weights exactly. Sparse
            # code drift keeps the plan via an in-place repair.
            wq, w_mask = _quantize_weight()
            neq = wq != old.wq
            if not neq.any():
                return LayerKernelState(old.wq, w_mask, old.plan), True
            if old.plan is not None:
                # wq is (N, K); the plan operand is wq.T, so swap the diff axes.
                nz_r, nz_c = np.nonzero(neq)
                if repair_plan(old.plan, old.wq.T, wq.T, changed=(nz_c, nz_r)):
                    return LayerKernelState(wq, w_mask, old.plan), True
            return _state_from(wq, w_mask), False

        if plan_cache is not None:
            state = plan_cache.get(
                "linear", plan_key, multiplier, _build, revalidate=_revalidate
            )
        else:
            state = LayerKernelState(*_quantize_weight())
        wq = state.wq
        self.w_mask = state.w_mask
        need_exact = _needs_exact(error_model)
        y_int, y_exact = _int_gemm(xq, wq.T, multiplier, need_exact, plan=state.plan)
        self.xq, self.wq = xq, wq
        self.scale = _gradient_scale(error_model, y_exact)
        self.has_bias = bias is not None
        out = y_int.astype(np.float32) * (np.float32(self.act_step) * self.w_step_col[None, :])
        if self.has_bias:
            out = out + bias
        return out

    def backward(self, grad_out):
        g = grad_out * self.scale
        x_fq = self.xq.astype(np.float32) * np.float32(self.act_step)
        w_fq = self.wq.astype(np.float32) * self.w_step_col[:, None]
        grad_x = float_matmul(g, w_fq) * self.x_mask
        grad_w = float_matmul(g.T, x_fq) * self.w_mask
        grad_b = grad_out.sum(axis=0) if self.has_bias else None
        return (grad_x, grad_w, grad_b, None, None, None, None, None, None)


class QuantConv2dFunction(Function):
    """Quantized / approximate convolution as an integer GEMM.

    Supports ``groups == 1`` (dense; planned, it gathers before unfolding
    through :meth:`~repro.approx.plan.GemmPlan.execute_conv`, otherwise
    ``im2col`` + GEMM), the depthwise case (``groups == in_channels`` with
    one filter per channel) fully vectorised, and arbitrary groups via a
    per-group loop.
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
        x = np.asarray(x)
        weight = np.asarray(weight)
        n, c, h, w = x.shape
        oc, cg, kh, kw = weight.shape
        if c % groups or oc % groups or cg != c // groups:
            raise ShapeError(
                f"inconsistent grouped conv: x has {c} channels, weight "
                f"{weight.shape}, groups={groups}"
            )
        self.x_shape = x.shape
        self.stride, self.padding, self.groups = stride, padding, groups
        self.act_step = float(act_step)
        self.has_bias = bias is not None
        oh = conv_out_size(h, kh, stride, padding)
        ow = conv_out_size(w, kw, stride, padding)
        self.out_spatial = (oh, ow)
        self.kernel = (kh, kw)

        xq, self.x_mask = _quantize_codes(x, act_step, act_bits)
        self.w_step_col = _weight_step_per_channel(w_step, oc)
        self.depthwise = groups == c and cg == 1 and oc == c
        grouped = groups != 1 and not self.depthwise

        def _quantize_weight():
            return _quantize_codes(weight, self.w_step_col[:, None, None, None], w_bits)

        def _state_from(wq, w_mask):
            if self.depthwise:
                # Depthwise runs a LUT window sum, not a GEMM; cache only
                # the weight quantization.
                return LayerKernelState(wq, w_mask, None)
            if grouped:
                ocg = oc // groups
                plans = [
                    _maybe_plan(
                        np.ascontiguousarray(
                            wq[g * ocg : (g + 1) * ocg].reshape(ocg, -1).T
                        ),
                        multiplier,
                    )
                    for g in range(groups)
                ]
                return LayerKernelState(wq, w_mask, plans)
            return LayerKernelState(
                wq,
                w_mask,
                _maybe_plan(np.ascontiguousarray(conv_plan_operand(wq)), multiplier),
            )

        def _build():
            return _state_from(*_quantize_weight())

        def _revalidate(old):
            wq, w_mask = _quantize_weight()
            neq = wq != old.wq
            if not neq.any():
                return LayerKernelState(old.wq, w_mask, old.plan), True
            if not self.depthwise and old.plan is not None:
                if grouped:
                    ocg = oc // groups
                    repaired = all(
                        old.plan[g] is not None
                        and repair_plan(
                            old.plan[g],
                            old.wq[g * ocg : (g + 1) * ocg].reshape(ocg, -1).T,
                            wq[g * ocg : (g + 1) * ocg].reshape(ocg, -1).T,
                        )
                        for g in range(groups)
                    )
                else:
                    # Diff in the plan's (kh, kw, c) row layout.
                    repaired = repair_plan(
                        old.plan,
                        conv_plan_operand(old.wq),
                        conv_plan_operand(wq),
                        changed=np.nonzero(conv_plan_operand(neq)),
                    )
                if repaired:
                    return LayerKernelState(wq, w_mask, old.plan), True
            return _state_from(wq, w_mask), False

        if plan_cache is not None:
            tag = "groups" if grouped else ("depthwise" if self.depthwise else "conv")
            state = plan_cache.get(
                tag, plan_key, multiplier, _build, revalidate=_revalidate
            )
        else:
            wq, w_mask = _quantize_weight()
            state = LayerKernelState(wq, w_mask, [None] * groups if grouped else None)
        wq = state.wq
        self.w_mask = state.w_mask
        plan_state = state.plan
        self.wq = wq
        need_exact = _needs_exact(error_model)
        rescale_col = np.float32(self.act_step) * self.w_step_col  # (OC,)

        if groups == 1:
            # The im2col columns are built only for a reader: the reference
            # GEMM, the GE exact GEMM, or (lazily, from xq) the backward.
            self.xq, self.cols = xq, None
            w2d = wq.reshape(oc, -1).T
            if plan_state is not None:
                y_int = plan_state.execute_conv(xq, (kh, kw), stride, padding)
                y_exact = None
                if need_exact:
                    self.cols, _ = im2col(xq, (kh, kw), stride, padding)
                    y_exact = exact_int_matmul(self.cols, w2d)
            else:
                self.cols, _ = im2col(xq, (kh, kw), stride, padding)
                y_int, y_exact = _int_gemm(self.cols, w2d, multiplier, need_exact)
            self.scale = _gradient_scale(error_model, y_exact)
            out = y_int.astype(np.float32) * rescale_col[None, :]
            out = out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
        elif self.depthwise:
            windows = sliding_windows(xq, (kh, kw), stride, padding)
            self.windows = windows
            w4 = wq.reshape(c, kh, kw)

            def _exact_depthwise():
                # Products are < 2^10 and the window sum has <= kh*kw terms,
                # so float32 accumulation is exact here.
                acc = np.einsum(
                    "nchwij,cij->nchw",
                    windows.astype(np.float32),
                    w4.astype(np.float32),
                    optimize=True,
                )
                return np.rint(acc).astype(np.int64)

            if multiplier is None or multiplier.is_exact:
                y_int = _exact_depthwise()
                y_exact = y_int if need_exact else None
            else:
                xhi = 2 ** (act_bits - 1) - 1
                whi = 2 ** (w_bits - 1) - 1
                slut = multiplier.signed_lut()
                prods = slut[windows + xhi, w4[None, :, None, None] + whi]
                y_int = prods.sum(axis=(4, 5), dtype=np.int64)
                y_exact = _exact_depthwise() if need_exact else None
            self.scale = _gradient_scale(error_model, y_exact)
            out = y_int.astype(np.float32) * rescale_col[None, :, None, None]
        else:
            ocg = oc // groups
            self.group_cols: list[np.ndarray] = []
            scales: list[np.ndarray | float] = []
            outs = []
            for g in range(groups):
                xg = xq[:, g * cg : (g + 1) * cg]
                wg = wq[g * ocg : (g + 1) * ocg]
                cols, _ = im2col(xg, (kh, kw), stride, padding)
                self.group_cols.append(cols)
                y_int, y_exact = _int_gemm(
                    cols, wg.reshape(ocg, -1).T, multiplier, need_exact,
                    plan=plan_state[g],
                )
                scales.append(_gradient_scale(error_model, y_exact))
                og = y_int.astype(np.float32) * rescale_col[None, g * ocg : (g + 1) * ocg]
                outs.append(og.reshape(n, oh, ow, ocg).transpose(0, 3, 1, 2))
            self.group_scales = scales
            out = np.concatenate(outs, axis=1)

        if self.has_bias:
            out = out + np.asarray(bias).reshape(1, oc, 1, 1)
        return np.ascontiguousarray(out)

    def backward(self, grad_out):
        n, c, h, w = self.x_shape
        kh, kw = self.kernel
        oh, ow = self.out_spatial
        stride, padding, groups = self.stride, self.padding, self.groups
        oc = self.wq.shape[0]
        sx = np.float32(self.act_step)
        sw_col = self.w_step_col  # (OC,)
        grad_b = grad_out.sum(axis=(0, 2, 3)) if self.has_bias else None

        if groups == 1:
            g2 = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, oc)
            g2 = g2 * self.scale
            cols = self.cols
            if cols is None:
                cols, _ = im2col(self.xq, (kh, kw), stride, padding)
            x_fq = cols.astype(np.float32) * sx
            w_fq = self.wq.reshape(oc, -1).astype(np.float32) * sw_col[:, None]
            grad_w = float_matmul(g2.T, x_fq).reshape(self.wq.shape)
            grad_cols = float_matmul(g2, w_fq)
            grad_x = col2im(grad_cols, self.x_shape, (kh, kw), stride, padding)
        elif self.depthwise:
            g4 = grad_out * self.scale  # (N, C, OH, OW)
            win_fq = self.windows.astype(np.float32) * sx
            w_fq = self.wq.reshape(c, kh, kw).astype(np.float32) * sw_col[:, None, None]
            grad_w = np.einsum("nchw,nchwij->cij", g4, win_fq, optimize=True)
            grad_w = grad_w.reshape(self.wq.shape)
            grad_windows = np.einsum("nchw,cij->nchwij", g4, w_fq, optimize=True)
            cols = grad_windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
            grad_x = col2im(cols, self.x_shape, (kh, kw), stride, padding)
        else:
            ocg = oc // groups
            cg = c // groups
            grad_w = np.empty(self.wq.shape, dtype=np.float32)
            grad_x_parts = []
            for g in range(groups):
                gg = grad_out[:, g * ocg : (g + 1) * ocg]
                g2 = gg.transpose(0, 2, 3, 1).reshape(n * oh * ow, ocg)
                g2 = g2 * self.group_scales[g]
                x_fq = self.group_cols[g].astype(np.float32) * sx
                grad_w[g * ocg : (g + 1) * ocg] = float_matmul(g2.T, x_fq).reshape(
                    ocg, cg, kh, kw
                )
                w_fq = (
                    self.wq[g * ocg : (g + 1) * ocg].reshape(ocg, -1).astype(np.float32)
                    * sw_col[g * ocg : (g + 1) * ocg, None]
                )
                grad_cols = float_matmul(g2, w_fq)
                grad_x_parts.append(col2im(grad_cols, (n, cg, h, w), (kh, kw), stride, padding))
            grad_x = np.concatenate(grad_x_parts, axis=1)

        grad_x = grad_x * self.x_mask
        grad_w = grad_w * self.w_mask
        return (
            grad_x,
            grad_w,
            grad_b,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            None,
        )
