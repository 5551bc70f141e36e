"""im2col / col2im transformations.

These turn convolutions into GEMMs, matching the paper's formulation of
convolutional layers as General Matrix Multiplications (section III-B).
:func:`im2col` uses ``(c, kh, kw)`` column order; the float convolution
and calibration call it. The quantized convolution unfolds its codes
once, as float32 in ``(kh, kw, c)`` order (:func:`unfold_nhwc`); a
planned one unfolds gathered LUT products through the same padded-NHWC
and window-copy helpers (:meth:`repro.approx.plan.GemmPlan.execute_conv`).
:func:`conv_input_grad` is a dense convolution's input gradient: one GEMM
at stride 1, a :func:`col2im` fold otherwise. A depthwise convolution,
float or quantized, is no GEMM: :func:`depthwise_conv` and
:func:`depthwise_conv_grads` run einsums over :func:`sliding_windows`.

Each call pads into a fresh buffer (``im2col``) or accumulates
into one (``col2im``). Pooling these buffers per shape measured no
faster and raised peak RSS (docs/PERFORMANCE.md, "The training path").
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.errors import ShapeError
from repro.obs import trace as tr


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one axis.

    Every unfolding helper sizes its windows here, so this is where a
    kernel or stride below 1 or a negative padding is rejected.
    """
    if kernel < 1 or stride < 1 or padding < 0:
        geometry = f"kernel {kernel}, stride {stride}, padding {padding}"
        raise ShapeError(f"conv needs kernel, stride >= 1 and padding >= 0, got {geometry}")
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def check_groups(in_channels: int, out_channels: int, groups: int) -> None:
    """Reject a group count that is below 1 or does not divide both channel counts."""
    if groups < 1 or in_channels % groups or out_channels % groups:
        raise ShapeError(
            f"groups={groups} must be >= 1 and divide in_channels={in_channels} "
            f"and out_channels={out_channels}"
        )


def check_conv_operands(x: np.ndarray, weight: np.ndarray, groups: int) -> None:
    """Reject conv operands that are not 4-D or whose channels do not fit ``groups``."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv expects 4-D input and weight, got {x.shape}, {weight.shape}")
    c, cg = x.shape[1], weight.shape[1]
    check_groups(c, weight.shape[0], groups)
    if cg != c // groups:
        raise ShapeError(
            f"weight expects {cg} input channels per group, input provides {c // groups}"
        )


def block_diagonal(weight: np.ndarray, groups: int) -> np.ndarray:
    """Grouped conv weights ``(OC, C/groups, KH, KW)`` as dense ``(OC, C, KH, KW)``.

    Group ``g``'s filters fill the ``g``-th diagonal block; every other
    entry is zero, so a dense convolution with the result equals the
    grouped one.
    """
    oc, cg, kh, kw = weight.shape
    ocg, ar = oc // groups, np.arange(groups)
    dense = np.zeros((groups, ocg, groups, cg, kh, kw), dtype=weight.dtype)
    dense[ar, :, ar] = weight.reshape(groups, ocg, cg, kh, kw)
    return dense.reshape(oc, groups * cg, kh, kw)


def diagonal_blocks(dense: np.ndarray, groups: int) -> np.ndarray:
    """The grouped ``(OC, C/groups, KH, KW)`` part of dense weights (adjoint of
    :func:`block_diagonal`)."""
    oc, c, kh, kw = dense.shape
    ar = np.arange(groups)
    blocks = dense.reshape(groups, oc // groups, groups, c // groups, kh, kw)[ar, :, ar]
    return blocks.reshape(oc, c // groups, kh, kw)


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
    with tr.span("autograd.im2col", nbytes=x.nbytes):
        windows = sliding_windows(x, kernel, stride, padding)
        n, c, oh, ow, kh, kw = windows.shape
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
        return np.ascontiguousarray(cols), (oh, ow)


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
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    expected = (n * oh * ow, c * kh * kw)
    if cols.shape != expected:
        raise ShapeError(f"col2im expected cols of shape {expected}, got {cols.shape}")
    with tr.span("autograd.col2im", nbytes=cols.nbytes):
        cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        terms = (cols6[..., i, j] for i in range(kh) for j in range(kw))
        return _fold(terms, x_shape, kernel, stride, padding, cols.dtype)


def _fold(terms, x_shape, kernel, stride: int, padding: int, dtype) -> np.ndarray:
    """Add the kernel offsets' ``(N, C, OH, OW)`` terms, given in ``(i, j)``
    order, into the positions each read of a zero-padded input; crop it."""
    n, c, h, w = x_shape
    oh = conv_out_size(h, kernel[0], stride, padding)
    ow = conv_out_size(w, kernel[1], stride, padding)
    dx = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
    for (i, j), term in zip(np.ndindex(*kernel), terms):
        dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += term
    if padding > 0:
        dx = dx[:, :, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(dx)


def conv_input_grad(g: np.ndarray, w: np.ndarray, x_shape, stride: int = 1, padding: int = 0):
    """The NCHW input gradient, as a view of NHWC rows where it can, of a dense
    convolution with weights ``w`` ``(OC, C, KH, KW)`` for its NHWC output
    gradient ``g``. At stride 1 it is one GEMM: of ``g`` itself for a 1×1
    kernel, else of ``g``'s windows, padded by ``k - 1 - padding``, against
    the flipped weights. A strided one folds ``g @ w`` through :func:`col2im`."""
    (n, c, h, wd), (oc, _, kh, kw) = x_shape, w.shape
    with tr.span("autograd.conv_grad_input", nbytes=g.nbytes):
        if (kh, kw) == (1, 1) and padding == 0 and stride == 1:
            rows = g.reshape(-1, oc) @ w.reshape(oc, c)
        elif stride == 1 and kh == kw and padding < kh:
            g_nchw, flip = g.transpose(0, 3, 1, 2), kh - 1 - padding
            buf, _ = nhwc_padded(g_nchw, (kh, kw), 1, flip, g.dtype)
            flipped = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh * kw * oc, c)
            rows = nhwc_windows(buf, (kh, kw), 1) @ flipped
        else:
            cols = g.reshape(-1, oc) @ w.reshape(oc, -1)
            return col2im(cols, x_shape, (kh, kw), stride, padding)
        return rows.reshape(n, h, wd, c).transpose(0, 3, 1, 2)


def nhwc_padded(x: np.ndarray, kernel, stride: int, padding: int, dtype, shift: int = 0):
    """``(buf, stride)``: NCHW ``x + shift`` as the NHWC ``dtype`` buffer that
    :func:`nhwc_windows` unfolds with that stride, padded with ``shift``.
    Rows and columns no window reads are left out; a 1×1 kernel with no
    padding keeps every stride-th position, so its buffer is the columns."""
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if (kh, kw) == (1, 1) and padding == 0:
        x, stride = x[:, :, ::stride, ::stride], 1
        buf = np.empty((n, oh, ow, c), dtype=dtype)
    else:
        hp, wp = (oh - 1) * stride + kh, (ow - 1) * stride + kw
        buf = np.full((n, hp, wp, c), shift, dtype=dtype)
    hi = max(0, min(x.shape[2], buf.shape[1] - padding))
    wi = max(0, min(x.shape[3], buf.shape[2] - padding))
    inner = buf[:, padding : padding + hi, padding : padding + wi]
    np.add(x[:, :, :hi, :wi].transpose(0, 2, 3, 1), shift, out=inner)
    return buf, stride


def nhwc_windows(buf: np.ndarray, kernel: tuple[int, int], stride: int) -> np.ndarray:
    """One window copy of a padded ``(N, Hp, Wp, C, ...)`` buffer into
    ``(N·OH·OW, KH·KW·C·...)`` rows, in ``(kh, kw, c, ...)`` order."""
    (n, hp, wp, *rest), (kh, kw) = buf.shape, kernel
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    sn, sh, sw, *rest_strides = buf.strides
    windows = as_strided(
        buf, (n, oh, ow, kh, kw, *rest), (sn, sh * stride, sw * stride, sh, sw, *rest_strides),
        writeable=False,
    )
    return windows.reshape(n * oh * ow, kh * kw * math.prod(rest))


def unfold_nhwc(x: np.ndarray, kernel, stride: int = 1, padding: int = 0) -> np.ndarray:
    """:func:`im2col` as float32, with its columns in ``(kh, kw, c)`` order."""
    with tr.span("autograd.im2col", nbytes=x.nbytes):
        buf, stride = nhwc_padded(x, kernel, stride, padding, np.float32)
        return nhwc_windows(buf, kernel, stride)


def sliding_windows(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Read-only sliding windows of shape ``(N, C, OH, OW, KH, KW)``.

    The windows of :func:`im2col`, the depthwise convolution and pooling;
    a padded input is copied once into a zero-bordered buffer.
    """
    if x.ndim != 4:
        raise ShapeError(f"expected NCHW input, got ndim={x.ndim}")
    n, c, h, w = x.shape
    conv_out_size(h, kernel[0], stride, padding)  # rejects a bad geometry
    conv_out_size(w, kernel[1], stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    return sliding_window_view(x, kernel, axis=(2, 3))[:, :, ::stride, ::stride]


def depthwise_conv(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0):
    """Depthwise convolution of NCHW ``x`` with one ``(KH, KW)`` filter per
    channel (``w`` is ``(C, KH, KW)``): an einsum over its sliding windows."""
    with tr.span("autograd.depthwise", nbytes=x.nbytes):
        windows = sliding_windows(x, w.shape[1:], stride, padding)
        return np.einsum("nchwij,cij->nchw", windows, w, optimize=True)


def depthwise_conv_grads(
    grad: np.ndarray, x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """``(grad_x, grad_w)`` of :func:`depthwise_conv` for its output gradient
    ``grad``, each an einsum over windows: of ``x``, and at stride 1 of ``grad``
    padded by ``k - 1 - padding`` against the flipped filters. A strided
    ``grad_x`` folds ``grad · w[:, i, j]`` per kernel offset, as :func:`col2im` does."""
    with tr.span("autograd.depthwise_grad", nbytes=grad.nbytes):
        windows = sliding_windows(x, w.shape[1:], stride, padding)
        grad_w = np.einsum("nchw,nchwij->cij", grad, windows, optimize=True)
        (kh, kw), dtype = w.shape[1:], np.result_type(grad, w)
        if stride == 1 and kh == kw and padding < kh:
            windows = sliding_windows(grad, (kh, kw), 1, kh - 1 - padding)
            flipped = w[:, ::-1, ::-1].copy()  # a strided operand halves einsum's speed
            grad_x = np.einsum("nchwij,cij->nchw", windows, flipped, optimize=True)
        else:
            terms = (grad * w[:, i, j, None, None] for i in range(kh) for j in range(kw))
            grad_x = _fold(terms, x.shape, (kh, kw), stride, padding, dtype)
        return grad_x, grad_w
