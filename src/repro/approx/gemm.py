"""Approximate integer GEMM (Eq. 4 of the paper).

Computes ``ỹ[i,j] = Σ_k g̃(A[i,k], B[k,j])`` where ``g̃`` is an approximate
multiplication realised as a LUT. Signed operands are evaluated in
sign-magnitude form.

The engine exploits the small weight alphabet: a 4-bit symmetric weight only
takes 15 values, so the GEMM decomposes as

    ỹ = Σ_{v=1..whi} G_v (1[B = v] - 1[B = -v]),   G_v[i,k] = g̃(A[i,k], v)

— the uncached reference path gathers one LUT column per *active*
weight value and runs one fused BLAS matmul over them (the v = -v term
uses the sign-magnitude odd symmetry ``g̃(a, -v) = -g̃(a, v)``). All
products and partial sums are integers far below 2^53, so float64 BLAS is
exact.

When the weight operand is frozen (every evaluation loop, sweep cell and
Monte-Carlo run), callers pass a precomputed weight-stationary
:class:`~repro.approx.plan.GemmPlan` — the per-batch work collapses to one
LUT gather plus one BLAS call, bitwise identical to the uncached path.
For multipliers whose LUT is linear in the weight bits (the truncated
family) the plan gathers ``w_bits - 1`` bit-plane columns instead of one
column per active value (``docs/PERFORMANCE.md``).

A GEMM takes a plan if and only if its caller built one, and callers
build plans only while plan caching is on, so
:class:`~repro.approx.plan.plan_cache_disabled` is the one switch onto
the reference path.
"""

from __future__ import annotations

import numpy as np

from repro.approx.backend import _EXACT_FLOAT32_BOUND, tiered_exact_int_matmul
from repro.approx.multiplier import Multiplier
from repro.approx.plan import GemmPlan, check_magnitude
from repro.approx.registry import as_multiplier
from repro.errors import MultiplierError, ShapeError
from repro.obs import metrics as met
from repro.obs import trace as tr


def exact_int_matmul(a: np.ndarray, b: np.ndarray, a_max: float | None = None) -> np.ndarray:
    """Exact integer GEMM: :func:`~repro.approx.backend.tiered_exact_int_matmul`.

    Tiered float32/float64 BLAS — exact for the bounded operands produced
    by the quantizer (docs/PERFORMANCE.md lists the tier bounds) — with
    int64 accumulation above the float64 tier. ``a_max`` optionally
    bounds ``max|a|``. Both operands must hold integer values; integer
    ``a`` gives int64, float ``a`` the product in the accumulation dtype.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    with tr.span("approx.exact_matmul", nbytes=a.nbytes + b.nbytes):
        return tiered_exact_int_matmul(a, b, a_max=a_max)


def exact_int_matmul_cached(a: np.ndarray, b: np.ndarray, cache: dict) -> np.ndarray:
    """:func:`exact_int_matmul` with memoized conversions of operand ``b``.

    For callers that multiply many ``a`` by one frozen ``b``: ``cache``
    (a dict the caller owns) memoizes the dtype conversion and magnitude
    of ``b`` across calls. Same tiered implementation, so the result is
    bitwise identical. The layers do not use it: the conversion costs
    nothing measurable next to the GEMM (docs/PERFORMANCE.md, "The
    training path").
    """
    a = np.asarray(a)
    b = np.asarray(b)
    with tr.span("approx.exact_matmul", nbytes=a.nbytes + b.nbytes):
        return tiered_exact_int_matmul(a, b, cache)


def approx_matmul(
    a: np.ndarray,
    b: np.ndarray,
    multiplier: str | Multiplier,
    *,
    plan: GemmPlan | None = None,
) -> np.ndarray:
    """Approximate integer GEMM ``a @ b`` using ``multiplier`` elementwise.

    Parameters
    ----------
    a:
        Signed integer codes of shape (M, K); magnitudes must fit the
        multiplier's ``x_bits`` unsigned domain.
    b:
        Signed integer codes of shape (K, N); magnitudes must fit the
        multiplier's ``w_bits`` unsigned domain.
    multiplier:
        A :class:`~repro.approx.multiplier.Multiplier` or a registry name
        (:func:`repro.approx.registry.as_multiplier`).
    plan:
        A weight-stationary :class:`~repro.approx.plan.GemmPlan` built
        from this exact ``b`` and ``multiplier``
        (:func:`repro.approx.plan.build_plan`). Skips every
        weight-dependent scan and gathers every LUT product in one
        ``np.take``; the plan checks the range of ``a`` itself. The result
        is bitwise identical to the plan-less call, which is the reference.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"incompatible GEMM shapes {a.shape} x {b.shape}")
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise MultiplierError("approx_matmul operates on integer codes")
    multiplier = as_multiplier(multiplier)
    if multiplier.is_exact:
        return exact_int_matmul(a, b)

    if plan is None:
        xhi = 2 ** (multiplier.x_bits - 1) - 1
        whi = 2 ** (multiplier.w_bits - 1) - 1
        check_magnitude(a, xhi, multiplier.name, "a")
        check_magnitude(b, whi, multiplier.name, "b")
    elif plan.k != a.shape[1] or plan.n != b.shape[1]:
        raise ShapeError(
            f"plan built for ({plan.k}, {plan.n}) weights applied to GEMM "
            f"{a.shape} x {b.shape}"
        )

    with tr.span(
        "approx.matmul",
        m=int(a.shape[0]),
        k=int(a.shape[1]),
        n=int(b.shape[1]),
        planned=plan is not None,
    ):
        if plan is not None:
            return plan.execute(a)
        return _reference_matmul(a, b, multiplier, xhi, whi)


def _reference_matmul(
    a: np.ndarray, b: np.ndarray, multiplier: Multiplier, xhi: int, whi: int
) -> np.ndarray:
    """The uncached LUT-decomposition GEMM.

    This is the reference path; the plan path must stay bitwise
    identical to it (``tests/approx/test_plan.py``).
    """
    # float32 accumulation is exact while every partial sum of integer
    # products stays below 2^24 (the float32 mantissa bound); gate at 2^23
    # for a 2x margin, fall back to float64 otherwise (docs/PERFORMANCE.md).
    max_product = float(np.abs(multiplier.lut).max())
    use_f32 = max_product * a.shape[1] < _EXACT_FLOAT32_BOUND
    lut = multiplier.signed_lut_f32() if use_f32 else multiplier.signed_lut_f64()
    dtype = np.float32 if use_f32 else np.float64
    itemsize = np.dtype(dtype).itemsize

    a_idx = (a.astype(np.intp) + xhi).ravel()
    m, k = a.shape
    n = b.shape[1]
    gathered: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    with tr.span("approx.lut_gather", nbytes=a.nbytes + b.nbytes):
        for v in range(1, whi + 1):
            # v = 0 contributes g̃(a, 0) = 0 under sign-magnitude evaluation.
            pos = b == v
            neg = b == -v
            any_pos, any_neg = pos.any(), neg.any()
            if not (any_pos or any_neg):
                continue
            gathered.append(lut[:, whi + v].take(a_idx).reshape(m, k))
            mask = pos.astype(dtype)
            if any_neg:
                mask -= neg
            masks.append(mask)
    if not gathered:
        return np.zeros((m, n), dtype=np.int64)
    met.inc("approx.lut_gathered_values", len(gathered))
    met.inc("approx.lut_gathered_elems", m * k * len(gathered))
    # One fused BLAS call over all active weight values.
    with tr.span(
        "approx.matmul_blas", nbytes=len(gathered) * (m * k + k * n) * itemsize
    ):
        big_g = np.concatenate(gathered, axis=1)
        big_h = np.concatenate(masks, axis=0)
        return np.rint(big_g @ big_h).astype(np.int64)
