"""The exact integer GEMM reference and the float GEMM seam.

:func:`tiered_exact_int_matmul` is the exact integer GEMM every other
path is compared against: the approximate engine's plans, gradient
estimation's exact GEMM and the tests' references.
:func:`float_matmul` is the float GEMM of the autograd layer and of the
quantized layers' backward passes; callers reach it through this
module's attribute, so instrumentation can rebind it in one place.

There is one switch onto the reference path for approximate GEMMs:
:class:`repro.approx.plan.plan_cache_disabled`, scoped to the calling
thread. :func:`default_backend` reports which path is active.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.errors import MultiplierError

# float32 partial sums of integer products are exact below 2^24 (the
# mantissa bound); gated at 2^23 for a 2x margin. float64 likewise exact
# below 2^52 (2^53 mantissa bound). See docs/PERFORMANCE.md.
_EXACT_FLOAT32_BOUND = 2.0**23
_EXACT_FLOAT64_BOUND = 2.0**52
# int64 accumulation wraps silently past 2^63; reject instead.
_EXACT_INT64_BOUND = 2.0**63


def tiered_exact_int_matmul(
    a: np.ndarray, b: np.ndarray, cache: dict | None = None, a_max: float | None = None
) -> np.ndarray:
    """The exact integer GEMM reference: tiered f32/f64/int64 accumulation.

    Picks the cheapest dtype whose accumulation is provably exact for the
    operands' worst-case partial sum ``max|a|·max|b|·K``; raises
    :class:`~repro.errors.MultiplierError` when even int64 could wrap
    (``≥ 2^63``) rather than returning silently-overflowed garbage.
    ``a_max`` bounds ``max|a|`` without a pass over ``a``.

    Both operands must hold integer values. The result dtype follows
    ``a``: integer ``a`` gives int64; float ``a`` (a layer's float32
    columns) gives the exact product in the accumulation dtype (float32,
    float64, or int64 above the float64 tier), which casts to float32 as
    the int64 result would.

    ``cache`` optionally memoizes the magnitude of ``b`` and its dtype
    conversions across calls that share the same ``b`` (a layer's frozen
    weights). The tier decision and the arithmetic are the same either
    way, so the result is bitwise identical with or without it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not (a.size and b.size):
        return a.astype(np.int64) @ b.astype(np.int64)
    if cache is None:
        cache = {}
    bmax = cache.get("absmax")
    if bmax is None:
        bmax = cache["absmax"] = float(np.abs(b).max())
    a_max = float(np.abs(a).max()) if a_max is None else a_max
    max_sum = a_max * bmax * a.shape[1]
    if max_sum < _EXACT_FLOAT32_BOUND:
        dtype = np.float32
    elif max_sum < _EXACT_FLOAT64_BOUND:
        dtype = np.float64
    elif max_sum < _EXACT_INT64_BOUND:
        dtype = np.int64
    else:
        raise MultiplierError(
            "exact integer GEMM would overflow the int64 accumulator: "
            f"worst-case partial sum {max_sum:.3g} >= 2^63 for shapes "
            f"{a.shape} x {b.shape}; rescale or requantize the operands"
        )
    b_conv = cache.get(dtype)
    if b_conv is None:
        b_conv = cache[dtype] = b.astype(dtype)
    y = a.astype(dtype, copy=False) @ b_conv
    return y if dtype is np.int64 or a.dtype.kind == "f" else np.rint(y).astype(np.int64)


def float_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The float GEMM ``a @ b``."""
    return a @ b


def default_backend() -> SimpleNamespace:
    """The GEMM path active on this thread, as an object with a ``name``.

    ``"exact-blas"`` inside :class:`~repro.approx.plan.plan_cache_disabled`
    (approximate GEMMs run the uncached reference), ``"plan-lut"``
    otherwise. Run provenance records it.
    """
    from repro.approx.plan import plan_caching_enabled

    return SimpleNamespace(name="plan-lut" if plan_caching_enabled() else "exact-blas")
