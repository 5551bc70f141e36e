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

from functools import partial

from repro.approx.gemm import approx_matmul, exact_int_matmul
from repro.approx.multiplier import Multiplier
from repro.approx.plan import build_plan, plan_caching_enabled
from repro.ge.error_model import PiecewiseLinearErrorModel, fit_error_model
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import ParallelConfig, amortized_workers, chunked, map_workers
from repro.quant.quantizer import qrange
from repro.utils.rng import get_rng_state, new_rng, set_rng_state

# Below this many total MACs a worker pool cannot amortise its dispatch and
# fork cost (measured in docs/PERFORMANCE.md): the paper-default profile
# (50 sims of 64x72x16) runs ~3.5x faster serially than on 4 workers.
_MIN_PARALLEL_MC_WORK = float(2**25)


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


@dataclass(frozen=True)
class _ChunkSpec:
    """One worker's share of the simulations, by RNG state instead of data.

    ``rng_state`` is the parent generator's bit-generator state captured at
    this chunk's first draw; regenerating ``count`` draws from it yields
    exactly the arrays the parent would have produced, so only states cross
    the process boundary and no worker ever holds more than one draw.
    ``use_plans`` is the parent thread's plan-cache scope: the scope is
    thread-local, so worker threads must not read their own.
    """

    rng_state: dict | None
    count: int
    gemm_rows: int
    reduce_dim: int
    out_dim: int
    act_bits: int
    weight_bits: int
    sigma_fraction: float
    use_plans: bool = True


def _draw_pair(rng, spec: _ChunkSpec) -> tuple[np.ndarray, np.ndarray]:
    """One simulation's (activation, weight) draw — the canonical order."""
    a = _sample_codes(rng, (spec.gemm_rows, spec.reduce_dim), spec.act_bits, spec.sigma_fraction)
    b = _sample_codes(rng, (spec.reduce_dim, spec.out_dim), spec.weight_bits, spec.sigma_fraction)
    return a, b


def _simulate_chunk(
    multiplier: Multiplier, spec: _ChunkSpec, rng=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact/approximate GEMM pairs for one chunk of the simulations.

    Module-level so the process backend can pickle it. Draws are generated
    lazily, one simulation at a time — peak memory is a single (a, b) pair
    regardless of ``count``. Workers regenerate their draws from the chunk's
    captured RNG state; the serial path passes the parent generator directly
    (``rng``) so it advances exactly as if it had drawn everything itself.
    """
    out = []
    if rng is None:
        rng = new_rng(0)
        set_rng_state(rng, spec.rng_state)
    use_plans = spec.use_plans and not multiplier.is_exact
    with tr.span("mc.chunk", draws=spec.count):
        for _ in range(spec.count):
            a, b = _draw_pair(rng, spec)
            draw_started = _time.perf_counter() if met.enabled else 0.0
            exact = exact_int_matmul(a, b)
            # Each draw has fresh weights, so there is nothing to cache across
            # draws — but building a plan still wins: one bucketization pass
            # over b instead of 2·whi boolean scans, and one LUT gather per
            # draw instead of one per active weight value.
            plan = build_plan(b, multiplier) if use_plans else None
            approx = approx_matmul(a, b, multiplier, plan=plan)
            out.append((exact.reshape(-1), (approx - exact).reshape(-1)))
            if met.enabled:
                met.observe("mc.draw_seconds", _time.perf_counter() - draw_started)
    return out


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
    workers: int | None = None,
) -> ErrorProfile:
    """Run ``num_simulations`` random convolutions-as-GEMMs and collect
    ``(y, ε)`` pairs.

    The default ``reduce_dim=72`` corresponds to a 3×3 convolution over 8
    input channels; ``sigma_fraction`` sets the spread of the sampled codes
    within the quantization range.

    With ``workers > 1`` the GEMM evaluations spread over a worker pool.
    Draws are never materialized up front: the parent captures its RNG
    state at each chunk boundary (advancing the stream in simulation order)
    and each worker regenerates its own chunk's codes from that state, so
    peak memory is one (a, b) pair per live worker while the profile (and
    any error model fitted from it) stays **bit-for-bit identical** to the
    serial one at every worker count — including the final state of a
    caller-provided ``rng``.
    """
    rng = new_rng(rng)

    def spec_for(state: dict | None, count: int) -> _ChunkSpec:
        return _ChunkSpec(
            rng_state=state,
            count=count,
            gemm_rows=gemm_rows,
            reduce_dim=reduce_dim,
            out_dim=out_dim,
            act_bits=act_bits,
            weight_bits=weight_bits,
            sigma_fraction=sigma_fraction,
            use_plans=plan_caching_enabled(),
        )

    with tr.span("ge.montecarlo_profile"):
        met.inc("ge.montecarlo_simulations", num_simulations)
        num_workers = amortized_workers(
            workers,
            tasks=num_simulations,
            work=float(num_simulations) * gemm_rows * reduce_dim * out_dim,
            min_work=_MIN_PARALLEL_MC_WORK,
        )
        if num_workers > 1 and num_simulations > 1:
            # ~2 chunks per worker keeps the pool busy if chunk costs skew.
            # Capture the parent state at each chunk's first simulation and
            # advance the stream by drawing (and dropping) that chunk's
            # codes — same consumption order as the serial path.
            specs = []
            for batch in chunked(list(range(num_simulations)), 2 * num_workers):
                spec = spec_for(get_rng_state(rng), len(batch))
                for _ in batch:
                    _draw_pair(rng, spec)
                specs.append(spec)
            results = map_workers(
                partial(_simulate_chunk, multiplier),
                specs,
                ParallelConfig(workers=num_workers),
            )
            pairs = [pair for batch in results for pair in batch]
        else:
            pairs = _simulate_chunk(multiplier, spec_for(None, num_simulations), rng=rng)
    y = np.concatenate([exact for exact, _ in pairs])
    eps = np.concatenate([err for _, err in pairs])
    return ErrorProfile(y=y, eps=eps, multiplier_name=multiplier.name)


def montecarlo_error_model(
    multiplier: Multiplier,
    num_simulations: int = 50,
    slope_significance: float = 0.25,
    rng=None,
    workers: int | None = None,
    **profile_kwargs,
) -> PiecewiseLinearErrorModel:
    """Profile ``multiplier`` by sampling and fit the piecewise-linear model.

    The sampling ground truth behind :func:`repro.ge.estimate_error_model`
    (which dispatches between this and the closed-form
    :func:`repro.ge.analytic.analytic_error_model`); it takes well under a
    second at the default settings. ``workers`` parallelises the profiling
    without changing the fit (see :func:`profile_multiplier_error`).
    """
    profile = profile_multiplier_error(
        multiplier, num_simulations=num_simulations, rng=rng, workers=workers,
        **profile_kwargs,
    )
    return fit_error_model(profile.y, profile.eps, slope_significance=slope_significance)
