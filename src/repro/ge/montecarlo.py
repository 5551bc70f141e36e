"""Monte-Carlo profiling of approximate-GEMM errors (section IV-B).

The paper estimates ``f(y)`` from "50 MonteCarlo simulations of a single
convolution with values drawn from normal distributions, within the
corresponding quantization ranges". We reproduce that: random activation and
weight codes are drawn from clipped normal distributions over the symmetric
integer ranges, both exact and approximate GEMMs are evaluated, and the
paired ``(y, ε)`` samples are returned for fitting.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from repro.approx.gemm import approx_matmul, exact_int_matmul
from repro.approx.multiplier import Multiplier
from repro.approx.plan import build_plan, plan_caching_enabled
from repro.errors import ConfigError
from repro.ge.error_model import PiecewiseLinearErrorModel, fit_error_model
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.quant.quantizer import qrange
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class ErrorProfile:
    """Paired exact outputs and approximation errors from MC simulation."""

    y: np.ndarray  # exact GEMM outputs (integer-code space)
    eps: np.ndarray  # ỹ - y at the same positions
    multiplier_name: str


def _sample_codes(rng, shape, bits: int, sigma_fraction: float) -> np.ndarray:
    """Normal codes clipped to the symmetric ``bits``-bit range."""
    lo, hi = qrange(bits)
    sigma = sigma_fraction * hi
    codes = np.rint(rng.normal(0.0, sigma, size=shape))
    return np.clip(codes, lo, hi).astype(np.int32)


def profile_multiplier_error(
    multiplier: Multiplier,
    num_simulations: int = 50,
    gemm_rows: int = 64,
    reduce_dim: int = 72,
    out_dim: int = 16,
    act_bits: int = 8,
    weight_bits: int = 4,
    sigma_fraction: float = 0.35,
    rng=None,
) -> ErrorProfile:
    """Run ``num_simulations`` random convolutions-as-GEMMs and collect
    ``(y, ε)`` pairs.

    The default ``reduce_dim=72`` corresponds to a 3×3 convolution over 8
    input channels; ``sigma_fraction`` sets the spread of the sampled codes
    within the quantization range. Each simulation draws its activation
    codes, then its weight codes, from ``rng``; only one draw is held at a
    time. Raises :class:`~repro.errors.ConfigError` when a count or
    dimension is below 1.
    """
    sizes = {
        "num_simulations": num_simulations,
        "gemm_rows": gemm_rows,
        "reduce_dim": reduce_dim,
        "out_dim": out_dim,
    }
    for name, value in sizes.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    rng = new_rng(rng)
    use_plans = plan_caching_enabled() and not multiplier.is_exact
    ys, errors = [], []
    with tr.span("ge.montecarlo_profile"):
        met.inc("ge.montecarlo_simulations", num_simulations)
        for _ in range(num_simulations):
            a = _sample_codes(rng, (gemm_rows, reduce_dim), act_bits, sigma_fraction)
            b = _sample_codes(rng, (reduce_dim, out_dim), weight_bits, sigma_fraction)
            draw_started = _time.perf_counter() if met.enabled else 0.0
            exact = exact_int_matmul(a, b)
            # Each draw has fresh weights, so there is nothing to cache across
            # draws — but building a plan still wins: one bucketization pass
            # over b instead of 2·whi boolean scans, and one LUT gather per
            # draw instead of one per active weight value.
            plan = build_plan(b, multiplier) if use_plans else None
            approx = approx_matmul(a, b, multiplier, plan=plan)
            ys.append(exact.reshape(-1))
            errors.append((approx - exact).reshape(-1))
            if met.enabled:
                met.observe("mc.draw_seconds", _time.perf_counter() - draw_started)
    return ErrorProfile(
        y=np.concatenate(ys), eps=np.concatenate(errors), multiplier_name=multiplier.name
    )


def montecarlo_error_model(
    multiplier: Multiplier,
    num_simulations: int = 50,
    slope_significance: float = 0.25,
    rng=None,
    **profile_kwargs,
) -> PiecewiseLinearErrorModel:
    """Profile ``multiplier`` by sampling and fit the piecewise-linear model.

    The sampling ground truth behind :func:`repro.ge.estimate_error_model`
    (which dispatches between this and the closed-form
    :func:`repro.ge.analytic.analytic_error_model`); it takes well under a
    second at the default settings.
    """
    profile = profile_multiplier_error(
        multiplier, num_simulations=num_simulations, rng=rng, **profile_kwargs
    )
    return fit_error_model(profile.y, profile.eps, slope_significance=slope_significance)
