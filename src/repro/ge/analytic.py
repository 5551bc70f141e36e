"""Closed-form (analytic) error models from the multiplier LUT.

The Monte-Carlo profiler (:mod:`repro.ge.montecarlo`) estimates ``f(y)``
from 50 simulated GEMMs — O(samples·GEMM) per multiplier, which dominates
when characterizing a large multiplier zoo. But the same statistics are
fully determined by the multiplier's LUT and the operand code
distributions (Liu et al., "An Architectural Error Metric for CNN-Oriented
Approximate Multipliers"): a GEMM output is a sum of ``K = reduce_dim``
independent products, so every quantity the piecewise-linear fit consumes
has a closed form over the ≤2^12-entry joint ``(x, w)`` table.

With per-product exact value ``p = a·b``, per-product error
``δ = g̃(a,b) − a·b`` and independent operand pmfs ``P(a)``, ``P(b)``:

- **moments** — ``E[y] = K·E[p]``, ``Var[y] = K·Var[p]``, ``E[ε] = K·E[δ]``,
  ``Var[ε] = K·Var[δ]``, ``Cov[ε, y] = K·Cov[δ, p]``; the population
  least-squares line of ε on y is ``k = Cov[δ,p]/Var[p]``,
  ``c = E[ε] − k·E[y]`` — exactly what ``np.polyfit`` converges to as the
  Monte-Carlo sample count grows;
- **distributions** — collapsing the joint table onto the product axis
  gives ``m0[p] = Σ P(a)P(b)`` and ``m1[p] = Σ δ·P(a)P(b)``; the exact
  pmf of ``y`` is the K-fold convolution ``m0^{*K}`` and the conditional
  error per output bin is ``E[ε|y] = K·(m1 * m0^{*(K−1)})(y) / m0^{*K}(y)``
  (see ``docs/ALGORITHMS.md``). The error pmf is likewise ``d0^{*K}`` over
  the per-product error axis, giving *exact* saturation quantiles instead
  of sampled percentiles.

All convolutions are 1-D FFT powers over ~1e5-entry arrays, computed
lazily and at most once per statistics object — fitting a model costs two
FFT pairs (ε and y axes); the conditional table adds one more only when
asked for. The whole characterization is O(LUT + FFT) — milliseconds
instead of the Monte-Carlo path's tens of milliseconds to minutes, with
no sampling noise. The resulting
:class:`~repro.ge.error_model.PiecewiseLinearErrorModel` drops into
Algorithm 1, sweeps and GE training unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.approx.multiplier import Multiplier
from repro.errors import ReproError
from repro.ge.error_model import PiecewiseLinearErrorModel
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.quant.quantizer import qrange


class AnalyticModelError(ReproError):
    """The analytic estimator cannot produce a trustworthy model.

    Raised on degenerate operand distributions (empty/negative/zero-mass
    histograms, out-of-domain codes) or when the FFT convolution loses
    probability mass beyond tolerance. ``method="auto"`` catches this and
    falls back to the Monte-Carlo ground truth.
    """


# Probability mass the FFT self-convolution may lose before the result is
# considered untrustworthy (float64 round-off is ~1e-12 at these sizes).
_MASS_TOLERANCE = 1e-6


# ----------------------------------------------------------------------
# operand code distributions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperandDistribution:
    """A pmf over signed integer operand codes.

    ``values`` are consecutive integer codes (ascending) and ``pmf`` their
    probabilities. Build one with :meth:`uniform`, :meth:`clipped_normal`
    (the prior matching the Monte-Carlo profiler's ``_sample_codes``),
    :meth:`from_histogram` (empirical counts, e.g. exported by the quant
    observers' ``code_histogram``) or :meth:`from_samples`.
    """

    values: np.ndarray
    pmf: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if values.ndim != 1 or values.size == 0 or values.shape != pmf.shape:
            raise AnalyticModelError(
                f"operand distribution shape mismatch: values {values.shape}, "
                f"pmf {pmf.shape}"
            )
        if np.any(np.diff(values) != 1):
            raise AnalyticModelError("operand codes must be consecutive and ascending")
        if np.any(pmf < 0) or not np.all(np.isfinite(pmf)):
            raise AnalyticModelError("operand pmf has negative or non-finite entries")
        total = float(pmf.sum())
        if total <= 0:
            raise AnalyticModelError("operand pmf has zero total mass")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "pmf", pmf / total)

    @classmethod
    def uniform(cls, bits: int) -> "OperandDistribution":
        """Uniform prior over the symmetric ``bits``-bit code range."""
        lo, hi = qrange(bits)
        values = np.arange(lo, hi + 1)
        return cls(values, np.full(values.size, 1.0 / values.size))

    @classmethod
    def clipped_normal(cls, bits: int, sigma_fraction: float = 0.35) -> "OperandDistribution":
        """The exact pmf of the Monte-Carlo profiler's operand draws.

        ``_sample_codes`` rounds a ``N(0, (sigma_fraction·hi)²)`` draw to
        the nearest integer and clips to the symmetric range, so interior
        codes get the mass of their half-open rounding cell and the
        endpoints absorb both tails.
        """
        return _clipped_normal(bits, float(sigma_fraction))

    @classmethod
    def from_histogram(cls, counts: np.ndarray, bits: int) -> "OperandDistribution":
        """Empirical pmf from per-code counts over the ``bits``-bit range."""
        lo, hi = qrange(bits)
        counts = np.asarray(counts, dtype=np.float64)
        expected = hi - lo + 1
        if counts.shape != (expected,):
            raise AnalyticModelError(
                f"histogram for {bits}-bit codes must have {expected} bins, "
                f"got shape {counts.shape}"
            )
        return cls(np.arange(lo, hi + 1), counts)

    @classmethod
    def from_samples(cls, codes: np.ndarray, bits: int) -> "OperandDistribution":
        """Empirical pmf from observed integer codes."""
        lo, hi = qrange(bits)
        codes = np.asarray(codes).reshape(-1)
        if codes.size == 0:
            raise AnalyticModelError("cannot build a distribution from zero samples")
        if codes.min() < lo or codes.max() > hi:
            raise AnalyticModelError(
                f"observed codes exceed the {bits}-bit range [{lo}, {hi}]"
            )
        counts = np.bincount((codes - lo).astype(np.int64), minlength=hi - lo + 1)
        return cls(np.arange(lo, hi + 1), counts.astype(np.float64))


@lru_cache(maxsize=64)
def _clipped_normal(bits: int, sigma_fraction: float) -> OperandDistribution:
    lo, hi = qrange(bits)
    sigma = sigma_fraction * hi
    if sigma <= 0:
        raise AnalyticModelError(f"sigma_fraction must be > 0, got {sigma_fraction}")
    values = np.arange(lo, hi + 1)
    scale = 1.0 / (sigma * math.sqrt(2.0))
    cdf_hi = np.array([0.5 * (1.0 + math.erf((v + 0.5) * scale)) for v in values])
    cdf_lo = np.array([0.5 * (1.0 + math.erf((v - 0.5) * scale)) for v in values])
    pmf = cdf_hi - cdf_lo
    pmf[0] = cdf_hi[0]  # lower tail collapses onto the clip boundary
    pmf[-1] = 1.0 - cdf_lo[-1]  # upper tail likewise
    return OperandDistribution(values, pmf)


# ----------------------------------------------------------------------
# exact statistics over the joint (x, w) table
# ----------------------------------------------------------------------
def joint_error_table(
    multiplier: Multiplier,
    act_dist: OperandDistribution,
    w_dist: OperandDistribution,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(weight, product, error)`` arrays over the full joint operand grid.

    ``weight[i, j] = P(a_i)·P(b_j)``, ``product = a_i·b_j`` and
    ``error = g̃(a_i, b_j) − a_i·b_j`` with the multiplier evaluated in
    sign-magnitude form, exactly as the GEMM engine does.
    """
    a = act_dist.values
    b = w_dist.values
    if np.abs(a).max() >= 2**multiplier.x_bits:
        raise AnalyticModelError(
            f"{multiplier.name}: activation codes exceed the {multiplier.x_bits}-bit LUT"
        )
    if np.abs(b).max() >= 2**multiplier.w_bits:
        raise AnalyticModelError(
            f"{multiplier.name}: weight codes exceed the {multiplier.w_bits}-bit LUT"
        )
    weight = np.outer(act_dist.pmf, w_dist.pmf)
    product = a[:, None] * b[None, :]
    signs = np.sign(a)[:, None] * np.sign(b)[None, :]
    approx = signs * multiplier.lut[np.abs(a)][:, np.abs(b)].astype(np.int64)
    return weight, product, approx - product


def _dense_pmf(values: np.ndarray, weights: np.ndarray) -> tuple[int, np.ndarray]:
    """Collapse weighted integer values onto a dense ``[min, max]`` axis."""
    flat_values = values.reshape(-1)
    lo = int(flat_values.min())
    dense = np.zeros(int(flat_values.max()) - lo + 1)
    np.add.at(dense, flat_values - lo, weights.reshape(-1))
    return lo, dense


def _fft_size(n: int) -> int:
    size = 1
    while size < n:
        size <<= 1
    return size


# Per-tail probability mass allowed outside the Chernoff-certified window
# the K-fold convolution is evaluated on. Orders of magnitude below
# _MASS_TOLERANCE, so the window-sum check still has room for FFT
# round-off on top of the certified tails.
_WINDOW_TAIL = 1e-10


def _conv(a: tuple[int, np.ndarray], b: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    """Linear convolution of two offset dense arrays ((lo, values))."""
    lo_a, arr_a = a
    lo_b, arr_b = b
    n = arr_a.size + arr_b.size - 1
    size = _fft_size(n)
    out = np.fft.irfft(np.fft.rfft(arr_a, size) * np.fft.rfft(arr_b, size), size)[:n]
    return lo_a + lo_b, out


def _chernoff_window(lo: int, dense: np.ndarray, k: int) -> tuple[int, int]:
    """Integer window ``[w_lo, w_hi]`` holding ≥ 1 − 2·_WINDOW_TAIL of the
    mass of ``dense^{*k}``, certified by Chernoff bounds on the exact mgf.

    For the sum Y of k iid draws, ``P(±Y ≥ a) ≤ exp(k·log M(±t) − t·a)``
    for every t > 0; solving for the ``a`` that makes the bound equal
    ``_WINDOW_TAIL`` and minimizing over a grid of t gives each tail's
    edge. The mgf is computed exactly over the dense support, so the bound
    holds for arbitrary (including empirical) distributions — no normality
    assumption anywhere.
    """
    values = np.arange(dense.size, dtype=np.float64) + lo
    mu = float(dense @ values)
    var = float(dense @ values**2) - mu**2
    sigma = math.sqrt(max(var, 0.0))
    if sigma == 0.0:
        center = int(round(k * mu))
        return center, center
    # The optimal t for an a-σ_Y excursion is ≈ a/(σ·sqrt(k)); bracket it.
    t_star = 8.0 / (sigma * math.sqrt(k))
    ts = t_star * np.logspace(-1.5, 1.5, 25)
    v_max = max(abs(values[0]), abs(values[-1]))
    ts = ts[ts * v_max < 600.0]  # keep exp() finite
    log_tail = math.log(_WINDOW_TAIL)
    edges = []
    for sign in (1.0, -1.0):
        if ts.size == 0:
            edges.append(None)
            continue
        log_mgf = np.log(np.exp(sign * ts[:, None] * values[None, :]) @ dense)
        bounds = (k * log_mgf - log_tail) / ts
        edges.append(float(bounds.min()))
    full_lo, full_hi = k * lo, k * (lo + dense.size - 1)
    w_hi = full_hi if edges[0] is None else min(full_hi, int(math.ceil(edges[0])))
    w_lo = full_lo if edges[1] is None else max(full_lo, -int(math.ceil(edges[1])))
    return w_lo, max(w_hi, w_lo)


def _pmf_power(lo: int, dense: np.ndarray, k: int, name: str, axis: str) -> tuple[int, np.ndarray]:
    """``dense^{*k}`` evaluated on its mass-carrying window, via one FFT.

    The full support of a K-fold convolution is ~K·|dense| bins (~1e5
    here) but all-but-``2·_WINDOW_TAIL`` of its mass lies in a
    Chernoff-certified window of ~1e4 bins, so the power is computed as a
    *cyclic* convolution just big enough for that window and unfolded onto
    it: any wrap-around contamination is part of the certified tail mass.
    Falls back to the exact full-support transform when the window doesn't
    pay. The window-sum check (≥ 1 − _MASS_TOLERANCE) then catches both
    real mass loss and FFT round-off; failing it raises
    :class:`AnalyticModelError` (→ Monte-Carlo fallback under ``auto``).
    """
    if k == 0 or dense.size == 1:
        return k * lo, np.ones(1)
    full_len = k * (dense.size - 1) + 1
    w_lo, w_hi = _chernoff_window(lo, dense, k)
    win_len = w_hi - w_lo + 1
    size = _fft_size(min(full_len, win_len))
    spectrum_power = np.fft.rfft(dense, size) ** k
    out = np.fft.irfft(spectrum_power, size)
    if size >= full_len:
        out_lo, arr = k * lo, out[:full_len]
    else:
        out_lo = w_lo
        arr = out[(np.arange(w_lo, w_hi + 1) - k * lo) % size]
    arr = np.clip(arr, 0.0, None)
    mass = float(arr.sum())
    if abs(mass - 1.0) > _MASS_TOLERANCE:
        raise AnalyticModelError(
            f"{name}: convolution window lost probability mass on the "
            f"{axis} axis (captured {mass:.12g} of 1)"
        )
    return out_lo, arr / mass


@dataclass(frozen=True)
class AnalyticErrorStats:
    """Exact per-output error statistics of one (multiplier, distributions)
    pairing at reduction depth ``reduce_dim``.

    Moment fields are per *output* (already scaled by ``reduce_dim``). The
    exact distributions of the output (``y_values``/``y_pmf``), the error
    (``eps_values``/``eps_pmf``) and the per-bin conditional error
    :meth:`conditional_error` are computed lazily — each FFT convolution
    runs at most once per instance.
    """

    multiplier_name: str
    reduce_dim: int
    y_mean: float
    y_var: float
    eps_mean: float
    eps_var: float
    cov: float
    # Dense per-product arrays the lazy convolutions run over: m0/m1 are
    # probability / δ-weighted mass by product value (offset p_lo), d0 is
    # probability mass by per-product error value (offset d_lo).
    p_lo: int
    m0: np.ndarray
    m1: np.ndarray
    d_lo: int
    d0: np.ndarray

    @property
    def y_std(self) -> float:
        return math.sqrt(max(self.y_var, 0.0))

    @property
    def eps_std(self) -> float:
        return math.sqrt(max(self.eps_var, 0.0))

    # -- lazy exact distributions ------------------------------------
    @cached_property
    def _y_axis(self) -> tuple[int, np.ndarray]:
        """(lo, pmf) of the exact output ``y = Σ_K p``."""
        if self.m0.size == 1:
            return self.reduce_dim * self.p_lo, np.ones(1)
        return _pmf_power(self.p_lo, self.m0, self.reduce_dim, self.multiplier_name, "y")

    @cached_property
    def y_pmf(self) -> np.ndarray:
        """Exact pmf of the output ``y`` (aligned with :attr:`y_values`)."""
        return self._y_axis[1]

    @cached_property
    def y_values(self) -> np.ndarray:
        return np.arange(self.y_pmf.size) + self._y_axis[0]

    @cached_property
    def _eps_axis(self) -> tuple[int, np.ndarray]:
        """(lo, pmf) of the exact error ``ε = Σ_K δ``."""
        if self.d0.size == 1:
            return self.reduce_dim * self.d_lo, np.ones(1)
        return _pmf_power(self.d_lo, self.d0, self.reduce_dim, self.multiplier_name, "eps")

    @cached_property
    def eps_pmf(self) -> np.ndarray:
        """Exact pmf of the error ``ε`` (aligned with :attr:`eps_values`)."""
        return self._eps_axis[1]

    @cached_property
    def eps_values(self) -> np.ndarray:
        return np.arange(self.eps_pmf.size) + self._eps_axis[0]

    @cached_property
    def _conditional(self) -> np.ndarray:
        """``E[ε|y]`` aligned with :attr:`y_values` (NaN where P(y) = 0).

        ``E[ε|y]·P(y) = K·(m1 * m0^{*(K−1)})(y)`` by symmetry of the K iid
        products (docs/ALGORITHMS.md); outside the numerator's (trimmed)
        support the conditional is left NaN along with the zero-mass bins.
        """
        k = self.reduce_dim
        y_lo, y_pmf = self._y_axis
        out = np.full(y_pmf.size, np.nan)
        if self.m0.size == 1:
            num_lo, numerator = (k - 1) * self.p_lo + self.p_lo, k * self.m1
        else:
            power = _pmf_power(
                self.p_lo, self.m0, k - 1, self.multiplier_name, "y|conditional"
            )
            num_lo, numerator = _conv(power, (self.p_lo, self.m1))
            numerator *= k
        # Align the numerator's integer support with the y grid.
        start = max(y_lo, num_lo)
        stop = min(y_lo + y_pmf.size, num_lo + numerator.size)
        if stop > start:
            y_slice = slice(start - y_lo, stop - y_lo)
            n_slice = slice(start - num_lo, stop - num_lo)
            with np.errstate(divide="ignore", invalid="ignore"):
                out[y_slice] = np.where(
                    y_pmf[y_slice] > 0, numerator[n_slice] / y_pmf[y_slice], np.nan
                )
        return out

    # -- derived quantities ------------------------------------------
    def _quantile(self, values: np.ndarray, pmf: np.ndarray, q: float) -> float:
        cdf = np.cumsum(pmf)
        index = int(np.searchsorted(cdf, min(max(q, 0.0), 1.0) * cdf[-1]))
        return float(values[min(index, values.size - 1)])

    def eps_quantile(self, q: float) -> float:
        """Exact ``q``-quantile (0..1) of the per-output error ε."""
        return self._quantile(self.eps_values, self.eps_pmf, q)

    def y_quantile(self, q: float) -> float:
        """Exact ``q``-quantile (0..1) of the exact output y."""
        return self._quantile(self.y_values, self.y_pmf, q)

    def conditional_error(self, min_mass: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
        """``(y, E[ε|y])`` restricted to output bins carrying real mass."""
        keep = self.y_pmf >= min_mass
        return self.y_values[keep], self._conditional[keep]

    def normalized_error(self) -> float:
        """RMS per-output error relative to the output spread.

        ``sqrt(E[ε]² + Var[ε]) / std(y)`` — the scale-free severity score
        the zoo ranking sorts by (0 for the exact multiplier). Pure
        moments: needs no FFT.
        """
        scale = self.y_std
        rms = math.sqrt(self.eps_mean**2 + max(self.eps_var, 0.0))
        return rms / scale if scale > 0 else rms


def analytic_error_stats(
    multiplier: Multiplier,
    reduce_dim: int = 72,
    act_bits: int = 8,
    weight_bits: int = 4,
    sigma_fraction: float = 0.35,
    act_dist: OperandDistribution | None = None,
    w_dist: OperandDistribution | None = None,
) -> AnalyticErrorStats:
    """Exact error statistics for GEMM outputs of depth ``reduce_dim``.

    Operand distributions default to the clipped-normal priors the
    Monte-Carlo profiler samples from; pass ``act_dist``/``w_dist`` for
    empirical per-layer histograms. Everything is computed from the joint
    LUT table — no GEMM is ever executed.
    """
    if reduce_dim < 1:
        raise AnalyticModelError(f"reduce_dim must be >= 1, got {reduce_dim}")
    act_dist = act_dist or OperandDistribution.clipped_normal(act_bits, sigma_fraction)
    w_dist = w_dist or OperandDistribution.clipped_normal(weight_bits, sigma_fraction)
    with tr.span("ge.analytic", multiplier=multiplier.name, reduce_dim=reduce_dim):
        met.inc("ge.analytic_models")
        weight, product, error = joint_error_table(multiplier, act_dist, w_dist)

        # Exact per-product moments; per-output values scale linearly in K.
        mu_p = float((weight * product).sum())
        mu_d = float((weight * error).sum())
        var_p = float((weight * product.astype(np.float64) ** 2).sum()) - mu_p**2
        var_d = float((weight * error.astype(np.float64) ** 2).sum()) - mu_d**2
        cov_pd = float((weight * product * error).sum()) - mu_p * mu_d
        k = reduce_dim

        p_lo, m0 = _dense_pmf(product, weight)
        _, m1 = _dense_pmf(product, weight * error)
        d_lo, d0 = _dense_pmf(error, weight)

        return AnalyticErrorStats(
            multiplier_name=multiplier.name,
            reduce_dim=k,
            y_mean=k * mu_p,
            y_var=k * var_p,
            eps_mean=k * mu_d,
            eps_var=k * var_d,
            cov=k * cov_pd,
            p_lo=p_lo,
            m0=m0,
            m1=m1,
            d_lo=d_lo,
            d0=d0,
        )


def analytic_error_model(
    multiplier: Multiplier,
    reduce_dim: int = 72,
    act_bits: int = 8,
    weight_bits: int = 4,
    sigma_fraction: float = 0.35,
    slope_significance: float = 0.25,
    saturation_percentile: float = 1.0,
    act_dist: OperandDistribution | None = None,
    w_dist: OperandDistribution | None = None,
    stats: AnalyticErrorStats | None = None,
) -> PiecewiseLinearErrorModel:
    """Closed-form :class:`PiecewiseLinearErrorModel` — no GEMM sampling.

    Mirrors :func:`repro.ge.error_model.fit_error_model` exactly, swapping
    sampled estimates for their population values: the least-squares line
    is ``k = Cov[ε,y]/Var[y]``, saturation bounds are the exact ε
    quantiles at ``saturation_percentile``, and the same slope-significance
    rule collapses insignificant slopes to the constant model (so unbiased
    EvoApprox designs degenerate to the STE here too).
    """
    with tr.span("ge.analytic_model"):
        if stats is None:
            stats = analytic_error_stats(
                multiplier,
                reduce_dim=reduce_dim,
                act_bits=act_bits,
                weight_bits=weight_bits,
                sigma_fraction=sigma_fraction,
                act_dist=act_dist,
                w_dist=w_dist,
            )
        if stats.y_var <= 0.0:
            k, c = 0.0, stats.eps_mean
        else:
            k = stats.cov / stats.y_var
            c = stats.eps_mean - k * stats.y_mean

        lower = stats.eps_quantile(saturation_percentile / 100.0)
        upper = stats.eps_quantile(1.0 - saturation_percentile / 100.0)
        if lower > upper:
            lower, upper = upper, lower

        explained_swing = abs(k) * (stats.y_quantile(0.99) - stats.y_quantile(0.01))
        if stats.eps_std == 0.0 or explained_swing < slope_significance * stats.eps_std:
            mean = stats.eps_mean
            return PiecewiseLinearErrorModel(0.0, mean, min(lower, mean), max(upper, mean))
        if upper <= lower:
            # Concentrated error pmfs can collapse the quantile band to a
            # point; clipping would flatten a genuinely sloped fit, so
            # widen to the exact support (same guard as fit_error_model).
            lower = float(stats.eps_values[0])
            upper = float(stats.eps_values[-1])
        return PiecewiseLinearErrorModel(float(k), float(c), lower, upper)


@lru_cache(maxsize=256)
def _cached_prior_model(
    name: str,
    reduce_dim: int,
    act_bits: int,
    weight_bits: int,
    sigma_fraction: float,
    slope_significance: float,
    saturation_percentile: float,
) -> PiecewiseLinearErrorModel:
    """Registry-multiplier models under the default priors, memoized.

    The analytic computation is already milliseconds, but sweeps and
    serving attach the same registry multiplier many times; keyed by name
    this turns repeats into dictionary hits. Only used for registry
    lookups (ad-hoc Multiplier instances bypass it — names may collide).
    """
    from repro.approx.registry import get_multiplier

    return analytic_error_model(
        get_multiplier(name),
        reduce_dim=reduce_dim,
        act_bits=act_bits,
        weight_bits=weight_bits,
        sigma_fraction=sigma_fraction,
        slope_significance=slope_significance,
        saturation_percentile=saturation_percentile,
    )
