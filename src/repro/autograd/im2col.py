"""im2col / col2im transformations.

These turn convolutions into GEMMs, matching the paper's formulation of
convolutional layers as General Matrix Multiplications (section III-B). The
same helpers are reused by the exact float convolution, the fake-quantized
convolution and the reference path of the approximate integer convolution.
A planned approximate convolution unfolds gathered LUT products instead
(:meth:`repro.approx.plan.GemmPlan.execute_conv`) and calls :func:`im2col`
only when the code columns themselves are read: by the gradient-estimation
exact GEMM or by the backward pass.

Both directions are shape-stationary: for a fixed ``(input_shape, kernel,
stride, padding)`` the output geometry, the ``as_strided`` window layout
and the padded scratch shape never change. A :class:`ColPlan` memoizes
them per shape key and pools the padded scratch buffers, so the training
loop — which runs the same shapes every batch — stops re-deriving layout
and re-allocating/zeroing pad buffers per call. The planned paths perform
the identical copies in the identical order, so results are **bitwise
identical** to the unplanned reference; plans activate only while
:func:`repro.approx.plan.plan_caching_enabled`, so
:class:`~repro.approx.plan.plan_cache_disabled` forces the reference
path here too.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.obs import metrics as met
from repro.obs import trace as tr


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


class ColPlan:
    """Memoized im2col/col2im geometry for one shape key.

    Holds the output spatial size and padded-scratch shape, plus a small
    per-dtype pool of padded buffers. The pool keeps two kinds apart:
    ``im2col`` pad buffers only ever write their interior, so their
    borders stay zero for the buffer's lifetime and reuse is equivalent
    to a fresh ``np.pad``; ``col2im`` accumulation scratch writes the
    whole padded extent and is therefore zero-filled on every reuse and
    never handed back to the border-clean side.
    """

    __slots__ = ("oh", "ow", "padded_shape", "_free_pad", "_free_acc", "_lock")

    _MAX_POOLED = 4  # per dtype and kind; concurrent users allocate fresh

    def __init__(self, x_shape, kernel, stride, padding):
        n, c, h, w = x_shape
        kh, kw = kernel
        self.oh = conv_out_size(h, kh, stride, padding)
        self.ow = conv_out_size(w, kw, stride, padding)
        self.padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
        self._free_pad: dict[str, list[np.ndarray]] = {}
        self._free_acc: dict[str, list[np.ndarray]] = {}
        self._lock = threading.Lock()

    def _alloc(self, dtype) -> np.ndarray:
        buf = np.zeros(self.padded_shape, dtype=dtype)
        met.observe("autograd.col_pad_alloc", buf.nbytes)
        return buf

    def take_pad(self, dtype: np.dtype) -> np.ndarray:
        """A buffer whose borders are guaranteed zero (interior is stale)."""
        key = np.dtype(dtype).str
        with self._lock:
            free = self._free_pad.get(key)
            if free:
                return free.pop()
        return self._alloc(dtype)

    def take_acc(self, dtype: np.dtype) -> np.ndarray:
        """An all-zero accumulation buffer (reused ones are re-zeroed)."""
        key = np.dtype(dtype).str
        with self._lock:
            free = self._free_acc.get(key)
            if free:
                buf = free.pop()
                buf.fill(0)
                return buf
        return self._alloc(dtype)

    def give_pad(self, buf: np.ndarray) -> None:
        with self._lock:
            free = self._free_pad.setdefault(buf.dtype.str, [])
            if len(free) < self._MAX_POOLED:
                free.append(buf)

    def give_acc(self, buf: np.ndarray) -> None:
        with self._lock:
            free = self._free_acc.setdefault(buf.dtype.str, [])
            if len(free) < self._MAX_POOLED:
                free.append(buf)


_col_plans: dict[tuple, ColPlan] = {}
_col_plans_lock = threading.Lock()
_MAX_COL_PLANS = 64

_plan_flags = None  # lazily bound repro.approx.plan (avoids an import cycle)


def _col_plans_active() -> bool:
    global _plan_flags
    if _plan_flags is None:
        from repro.approx import plan as _plan_module

        _plan_flags = _plan_module
    return _plan_flags.plan_caching_enabled()


def clear_col_plans() -> None:
    """Drop all memoized im2col plans and their pooled scratch buffers."""
    with _col_plans_lock:
        _col_plans.clear()


def _get_col_plan(
    x_shape: tuple, kernel: tuple[int, int], stride: int, padding: int
) -> ColPlan:
    key = (x_shape, kernel, stride, padding)
    with _col_plans_lock:
        plan = _col_plans.get(key)
    if plan is None:
        plan = ColPlan(x_shape, kernel, stride, padding)
        met.inc("autograd.col_plan_built")
        with _col_plans_lock:
            if len(_col_plans) >= _MAX_COL_PLANS:
                _col_plans.clear()
            _col_plans[key] = plan
    return plan


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold NCHW input into GEMM columns.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(N*OH*OW, C*KH*KW)`` — one row per output pixel, one column per weight.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NCHW input, got ndim={x.ndim}")
    with tr.span("autograd.im2col", nbytes=x.nbytes):
        n, c, h, w = x.shape
        kh, kw = kernel
        plan = (
            _get_col_plan(x.shape, kernel, stride, padding)
            if _col_plans_active()
            else None
        )
        if plan is not None:
            oh, ow = plan.oh, plan.ow
        else:
            oh = conv_out_size(h, kh, stride, padding)
            ow = conv_out_size(w, kw, stride, padding)
        pad_buf = None
        if padding > 0:
            if plan is not None:
                # Pooled scratch: only the interior is written, the borders
                # were zeroed at allocation — equivalent to a fresh np.pad.
                pad_buf = plan.take_pad(x.dtype)
                pad_buf[:, :, padding : padding + h, padding : padding + w] = x
                x = pad_buf
            else:
                x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        sn, sc, sh, sw = x.strides
        windows = as_strided(
            x,
            shape=(n, c, oh, ow, kh, kw),
            strides=(sn, sc, sh * stride, sw * stride, sh, sw),
            writeable=False,
        )
        # reshape of the transposed view copies, so cols owns its memory
        # and the pooled pad buffer can be recycled immediately.
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        cols = np.ascontiguousarray(cols)
        if pad_buf is not None:
            plan.give_pad(pad_buf)
        return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold GEMM columns back into an NCHW gradient (adjoint of im2col)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    plan = (
        _get_col_plan(tuple(x_shape), kernel, stride, padding)
        if _col_plans_active() and padding > 0
        else None
    )
    if plan is not None:
        oh, ow = plan.oh, plan.ow
    else:
        oh = conv_out_size(h, kh, stride, padding)
        ow = conv_out_size(w, kw, stride, padding)
    expected = (n * oh * ow, c * kh * kw)
    if cols.shape != expected:
        raise ShapeError(f"col2im expected cols of shape {expected}, got {cols.shape}")
    with tr.span("autograd.col2im", nbytes=cols.nbytes):
        cols6 = cols.reshape(n, oh, ow, c, kh, kw)
        if plan is not None:
            # Accumulation scratch from the pool (zero-filled on take); the
            # unpadded interior is copied out below, so the buffer can be
            # recycled. padding == 0 keeps the fresh np.zeros — the result
            # array itself would otherwise escape into the pool.
            dx = plan.take_acc(cols.dtype)
        else:
            dx = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                    cols6[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                )
        if padding > 0:
            out = np.ascontiguousarray(dx[:, :, padding : padding + h, padding : padding + w])
            if plan is not None:
                plan.give_acc(dx)
            return out
        return np.ascontiguousarray(dx)


def sliding_windows(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Read-only sliding windows of shape ``(N, C, OH, OW, KH, KW)``.

    Used by the depthwise-convolution fast path and by pooling layers.
    """
    if x.ndim != 4:
        raise ShapeError(f"sliding_windows expects NCHW input, got ndim={x.ndim}")
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
