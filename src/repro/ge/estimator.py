"""Estimator seam: one entry point, two error-model engines.

:func:`estimate_error_model` is the call site the rest of the library
uses (Algorithm 1, sweeps, the CLI, serving warmup). It dispatches on the
``error_model_method`` config knob (per-call ``method=`` >
``configure``, where ``--error-model-method`` lands >
``REPRO_ERROR_MODEL_METHOD`` > default ``auto``):

- ``"analytic"`` — closed-form model from the LUT and operand
  distributions (:mod:`repro.ge.analytic`), milliseconds, no sampling
  noise;
- ``"montecarlo"`` — the paper's 50-simulation sampling path
  (:mod:`repro.ge.montecarlo`), the ground truth;
- ``"auto"`` — analytic, falling back to Monte-Carlo whenever the
  analytic engine refuses (:class:`~repro.ge.analytic.AnalyticModelError`:
  degenerate operand histograms, codes outside the LUT domain, FFT mass
  loss). The fallback is counted (``ge.analytic_fallbacks``) so it shows
  up in ``repro report``.

:func:`cross_validate` is the agreement harness: it profiles once by
Monte-Carlo, fits both models, and measures their worst prediction
disagreement over the observed output range in units of the error spread
— asserted in tests for every registry multiplier and reported by
``scripts/bench.py --analytic``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.approx.multiplier import Multiplier
from repro.approx.registry import as_multiplier
from repro.errors import ConfigError, MultiplierError
from repro.ge.analytic import (
    AnalyticModelError,
    OperandDistribution,
    _cached_prior_model,
    analytic_error_model,
)
from repro.ge.error_model import PiecewiseLinearErrorModel, fit_error_model
from repro.ge.montecarlo import montecarlo_error_model, profile_multiplier_error
from repro.obs import metrics as met

_METHODS = ("auto", "analytic", "montecarlo")

# profile_multiplier_error kwargs that also parameterize the analytic
# model, with the shared defaults.
_ANALYTIC_KWARGS = {
    "reduce_dim": 72,
    "act_bits": 8,
    "weight_bits": 4,
    "sigma_fraction": 0.35,
}


def _analytic_dispatch(
    multiplier: Multiplier,
    slope_significance: float,
    act_dist: OperandDistribution | None,
    w_dist: OperandDistribution | None,
    profile_kwargs: dict,
) -> PiecewiseLinearErrorModel:
    kwargs = {name: profile_kwargs.get(name, default) for name, default in _ANALYTIC_KWARGS.items()}
    if act_dist is None and w_dist is None:
        try:
            from repro.approx.registry import get_multiplier

            registry_instance = get_multiplier(multiplier.name) is multiplier
        except MultiplierError:
            registry_instance = False
        if registry_instance:
            # Registry multipliers under the default priors recur across
            # sweep cells, replicas and epochs — memoize by name.
            return _cached_prior_model(
                multiplier.name,
                kwargs["reduce_dim"],
                kwargs["act_bits"],
                kwargs["weight_bits"],
                kwargs["sigma_fraction"],
                slope_significance,
                1.0,
            )
    return analytic_error_model(
        multiplier,
        slope_significance=slope_significance,
        act_dist=act_dist,
        w_dist=w_dist,
        **kwargs,
    )


def estimate_error_model(
    multiplier: str | Multiplier,
    num_simulations: int = 50,
    slope_significance: float = 0.25,
    rng=None,
    method: str | None = None,
    act_dist: OperandDistribution | None = None,
    w_dist: OperandDistribution | None = None,
    **profile_kwargs,
) -> PiecewiseLinearErrorModel:
    """The piecewise-linear error model of ``multiplier``, by the selected
    engine.

    ``method`` overrides the ``error_model_method`` knob for this call.
    ``num_simulations``/``rng``/``gemm_rows``/``out_dim`` only
    affect the Monte-Carlo engine; ``act_dist``/``w_dist`` (operand
    distributions, e.g. from a quant observer's ``code_histogram``) only
    the analytic one. Shared shape kwargs (``reduce_dim``, ``act_bits``,
    ``weight_bits``, ``sigma_fraction``) parameterize both, so switching
    engines never changes what is being modeled. ``multiplier`` may be a
    registry name.
    """
    multiplier = as_multiplier(multiplier)
    resolved = str(config.resolve("error_model_method", call=method)).lower()
    if resolved not in _METHODS:
        raise ConfigError(
            f"error_model_method must be one of {', '.join(_METHODS)}; got {resolved!r}"
        )
    if resolved == "analytic":
        return _analytic_dispatch(
            multiplier, slope_significance, act_dist, w_dist, profile_kwargs
        )
    if resolved == "auto":
        try:
            return _analytic_dispatch(
                multiplier, slope_significance, act_dist, w_dist, profile_kwargs
            )
        except AnalyticModelError:
            met.inc("ge.analytic_fallbacks")
    return montecarlo_error_model(
        multiplier,
        num_simulations=num_simulations,
        slope_significance=slope_significance,
        rng=rng,
        **profile_kwargs,
    )


@dataclass(frozen=True)
class CrossValidation:
    """Analytic-vs-Monte-Carlo agreement for one multiplier.

    ``max_abs_diff`` is the worst |f_analytic(y) − f_mc(y)| over the
    central (1st–99th percentile) observed output range;
    ``normalized_disagreement`` divides it by the Monte-Carlo error spread
    (floored at 1 code), making tolerances comparable across multipliers
    of wildly different error magnitudes.
    """

    multiplier_name: str
    analytic: PiecewiseLinearErrorModel
    montecarlo: PiecewiseLinearErrorModel
    max_abs_diff: float
    eps_std: float

    @property
    def normalized_disagreement(self) -> float:
        return self.max_abs_diff / max(self.eps_std, 1.0)

    def agrees(self, tolerance: float = 0.25) -> bool:
        """True when the engines agree within ``tolerance``·std(ε)."""
        return self.normalized_disagreement <= tolerance


def cross_validate(
    multiplier: Multiplier,
    num_simulations: int = 50,
    slope_significance: float = 0.25,
    rng=0,
    grid_points: int = 257,
    **profile_kwargs,
) -> CrossValidation:
    """Fit both engines on identical settings and measure their agreement.

    One Monte-Carlo profile supplies both the sampled fit and the ``y``
    evaluation grid, so the comparison sees exactly the data the sampling
    engine saw.
    """
    profile = profile_multiplier_error(
        multiplier,
        num_simulations=num_simulations,
        rng=rng,
        **profile_kwargs,
    )
    mc_model = fit_error_model(
        profile.y, profile.eps, slope_significance=slope_significance
    )
    analytic_model = _analytic_dispatch(
        multiplier, slope_significance, None, None, profile_kwargs
    )
    grid = np.linspace(
        float(np.percentile(profile.y, 1.0)),
        float(np.percentile(profile.y, 99.0)),
        grid_points,
    )
    max_abs_diff = float(np.max(np.abs(analytic_model(grid) - mc_model(grid))))
    return CrossValidation(
        multiplier_name=multiplier.name,
        analytic=analytic_model,
        montecarlo=mc_model,
        max_abs_diff=max_abs_diff,
        eps_std=float(np.asarray(profile.eps, dtype=np.float64).std()),
    )
