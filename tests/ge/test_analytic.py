"""Closed-form error models: distributions, exact statistics, estimator seam.

The two load-bearing guarantees (ISSUE 10 / ``docs/PERFORMANCE.md``):

1. the analytic model agrees with the Monte-Carlo fit within tolerance on
   every registry multiplier — it is a drop-in for Algorithm 1, sweeps and
   GE training, not an approximation of one;
2. ``method="auto"`` never fails: whenever the analytic engine refuses
   (:class:`AnalyticModelError`), the estimator falls back to the
   Monte-Carlo ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.approx import ExactMultiplier, available_multipliers, get_multiplier
from repro.errors import ConfigError, MultiplierError, QuantizationError
from repro.ge import (
    AnalyticModelError,
    OperandDistribution,
    analytic_error_model,
    analytic_error_stats,
    cross_validate,
    estimate_error_model,
    montecarlo_error_model,
    prefilter_multipliers,
    rank_multipliers,
)
from repro.ge.montecarlo import _sample_codes
from repro.quant.observer import MinMaxObserver, MSEObserver
from repro.quant.quantizer import qrange
from repro.utils.rng import new_rng

pytestmark = pytest.mark.analytic


class TestOperandDistribution:
    def test_uniform_support_and_mass(self):
        dist = OperandDistribution.uniform(4)
        lo, hi = qrange(4)
        np.testing.assert_array_equal(dist.values, np.arange(lo, hi + 1))
        assert dist.pmf.sum() == pytest.approx(1.0)
        assert np.ptp(dist.pmf) == 0.0

    def test_clipped_normal_matches_profiler_draws(self):
        """The prior is the *exact* pmf of ``_sample_codes`` draws."""
        dist = OperandDistribution.clipped_normal(4, sigma_fraction=0.35)
        rng = new_rng(0)
        codes = _sample_codes(rng, (400_000,), bits=4, sigma_fraction=0.35)
        empirical = OperandDistribution.from_samples(codes, bits=4)
        # Total-variation distance shrinks as 1/sqrt(N); 400k draws over
        # 15 bins put it well under 1%.
        tv = 0.5 * np.abs(dist.pmf - empirical.pmf).sum()
        assert tv < 0.01

    def test_from_histogram_round_trips_observer_layout(self):
        counts = np.zeros(15)
        counts[7] = 3.0  # code 0
        counts[14] = 1.0  # code +7
        dist = OperandDistribution.from_histogram(counts, bits=4)
        assert dist.pmf[dist.values == 0] == pytest.approx(0.75)
        assert dist.pmf[dist.values == 7] == pytest.approx(0.25)

    def test_from_histogram_rejects_wrong_bin_count(self):
        with pytest.raises(AnalyticModelError):
            OperandDistribution.from_histogram(np.ones(10), bits=4)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(AnalyticModelError):
            OperandDistribution(np.array([0, 2]), np.array([0.5, 0.5]))  # gap
        with pytest.raises(AnalyticModelError):
            OperandDistribution(np.array([0, 1]), np.array([0.0, 0.0]))  # no mass
        with pytest.raises(AnalyticModelError):
            OperandDistribution(np.array([0, 1]), np.array([-0.1, 1.1]))
        with pytest.raises(AnalyticModelError):
            OperandDistribution.from_samples(np.array([], dtype=np.int64), bits=4)
        with pytest.raises(AnalyticModelError):
            OperandDistribution.from_samples(np.array([99]), bits=4)


class TestExactStatistics:
    def test_exact_multiplier_has_zero_error(self):
        stats = analytic_error_stats(ExactMultiplier(), reduce_dim=8)
        assert stats.eps_mean == 0.0
        assert stats.eps_var == 0.0
        assert stats.normalized_error() == 0.0
        model = analytic_error_model(ExactMultiplier(), reduce_dim=8)
        assert model.is_constant and model.c == 0.0

    def test_moments_match_sampled_gemm(self):
        """E[ε], Var[ε] and Cov[ε,y] against a large Monte-Carlo draw."""
        from repro.ge import profile_multiplier_error

        stats = analytic_error_stats(get_multiplier("truncated4"))
        profile = profile_multiplier_error(
            get_multiplier("truncated4"), num_simulations=200, rng=0
        )
        eps = profile.eps.astype(np.float64)
        y = profile.y.astype(np.float64)
        n = eps.size  # 200 sims x 64 x 16 samples: ~1% standard error
        assert stats.eps_mean == pytest.approx(eps.mean(), abs=4 * eps.std() / np.sqrt(n))
        assert stats.eps_var == pytest.approx(eps.var(), rel=0.05)
        assert stats.y_var == pytest.approx(y.var(), rel=0.05)
        assert stats.cov == pytest.approx(float(np.cov(eps, y)[0, 1]), rel=0.05)

    def test_windowed_power_matches_direct_convolution(self):
        """The Chernoff-windowed FFT equals naive repeated convolution."""
        stats = analytic_error_stats(get_multiplier("truncated3"), reduce_dim=6)
        direct = stats.d0
        for _ in range(stats.reduce_dim - 1):
            direct = np.convolve(direct, stats.d0)
        full = np.zeros(direct.size)
        offset = stats.eps_values[0] - stats.reduce_dim * stats.d_lo
        full[offset : offset + stats.eps_pmf.size] += stats.eps_pmf
        np.testing.assert_allclose(full, direct, atol=1e-9)

    def test_pmf_means_match_moment_fields(self):
        stats = analytic_error_stats(get_multiplier("truncated4"))
        assert float(stats.eps_pmf @ stats.eps_values) == pytest.approx(
            stats.eps_mean, abs=1e-6
        )
        assert float(stats.y_pmf @ stats.y_values) == pytest.approx(
            stats.y_mean, abs=1e-6
        )

    def test_conditional_satisfies_total_expectation(self):
        """E[E[ε|y]] over the exact y pmf recovers E[ε]."""
        stats = analytic_error_stats(get_multiplier("truncated4"))
        cond = stats._conditional
        mask = np.isfinite(cond)
        recovered = float(stats.y_pmf[mask] @ cond[mask])
        assert recovered == pytest.approx(stats.eps_mean, abs=1e-4)

    def test_conditional_slope_matches_model_slope(self):
        """The P(y)-weighted regression of E[ε|y] on y has slope Cov/Var
        exactly — the population identity the fitted k comes from."""
        stats = analytic_error_stats(get_multiplier("truncated4"))
        y, cond = stats.conditional_error(min_mass=0.0)
        weights = stats.y_pmf[np.isin(stats.y_values, y)]
        finite = np.isfinite(cond)
        slope = np.polyfit(y[finite], cond[finite], deg=1, w=np.sqrt(weights[finite]))[0]
        assert slope == pytest.approx(stats.cov / stats.y_var, rel=1e-3)

    def test_out_of_domain_codes_raise(self):
        with pytest.raises(AnalyticModelError):
            analytic_error_stats(
                get_multiplier("truncated4"),
                act_dist=OperandDistribution.uniform(10),
            )

    def test_bad_reduce_dim_raises(self):
        with pytest.raises(AnalyticModelError):
            analytic_error_stats(get_multiplier("truncated4"), reduce_dim=0)


class TestCrossValidation:
    def test_every_registry_multiplier_agrees(self):
        """The acceptance harness: analytic vs MC on the whole registry."""
        for name in available_multipliers():
            validation = cross_validate(get_multiplier(name), rng=0)
            assert validation.agrees(0.25), (
                f"{name}: analytic and Monte-Carlo models disagree by "
                f"{validation.normalized_disagreement:.3f}·std(ε)"
            )

    def test_truncated_slope_sign_and_ste_degeneration(self):
        model = analytic_error_model(get_multiplier("truncated4"))
        assert model.k < 0  # Fig. 2: truncation biases errors downward with |y|
        ste = analytic_error_model(get_multiplier("evoapprox29"))
        assert ste.is_constant  # unbiased errors degenerate GE to the STE


class TestEstimatorSeam:
    def test_explicit_methods_dispatch(self):
        mult = get_multiplier("truncated3")
        analytic = estimate_error_model(mult, method="analytic")
        assert analytic == analytic_error_model(mult)
        mc = estimate_error_model(mult, method="montecarlo", rng=0)
        assert mc == montecarlo_error_model(mult, rng=0)

    def test_method_resolves_through_config(self):
        mult = get_multiplier("truncated3")
        previous = config.configure(error_model_method="montecarlo")
        try:
            configured = estimate_error_model(mult, rng=0)
        finally:
            config.configure(**previous)
        assert configured == montecarlo_error_model(mult, rng=0)

    def test_unknown_method_raises(self):
        with pytest.raises(ConfigError):
            estimate_error_model(get_multiplier("truncated3"), method="oracle")

    def test_auto_falls_back_to_montecarlo(self):
        """Out-of-domain operand histograms refuse analytically; auto
        silently delivers the Monte-Carlo ground truth instead."""
        mult = get_multiplier("truncated3")
        bad = OperandDistribution.uniform(10)
        with pytest.raises(AnalyticModelError):
            estimate_error_model(mult, method="analytic", act_dist=bad)
        fallback = estimate_error_model(mult, method="auto", act_dist=bad, rng=0)
        assert fallback == montecarlo_error_model(mult, rng=0)

    def test_custom_distribution_changes_the_model(self):
        mult = get_multiplier("truncated4")
        prior = estimate_error_model(mult, method="analytic")
        uniform = estimate_error_model(
            mult, method="analytic", act_dist=OperandDistribution.uniform(8)
        )
        assert prior != uniform


class TestZoo:
    def test_exact_ranks_first_with_zero_score(self):
        entries = rank_multipliers()
        assert entries[0].name == "exact"
        assert entries[0].score == 0.0
        assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
        assert all(a.score <= b.score for a, b in zip(entries, entries[1:]))
        assert {e.name for e in entries} == set(available_multipliers())

    def test_unknown_name_raises(self):
        with pytest.raises(MultiplierError):
            rank_multipliers(["nosuchmult"])

    def test_prefilter_keeps_best_in_input_order(self):
        names = ["truncated5", "exact", "truncated1"]
        kept = prefilter_multipliers(names, keep=2)
        assert kept == ["exact", "truncated1"]  # input order, worst dropped

    def test_prefilter_passes_unresolvable_names_through(self):
        kept = prefilter_multipliers(["nosuchmult", "exact", "truncated5"], keep=1)
        assert kept == ["nosuchmult", "exact"]

    def test_prefilter_identity_when_keep_covers_all(self):
        names = ["truncated3", "truncated4"]
        assert prefilter_multipliers(names, keep=5) == names

    def test_prefilter_rejects_nonpositive_keep(self):
        with pytest.raises(MultiplierError):
            prefilter_multipliers(["exact"], keep=0)


class TestObserverHistograms:
    def test_mse_observer_histogram_feeds_analytic_model(self):
        rng = new_rng(0)
        observer = MSEObserver(bits=8)
        observer.observe(rng.normal(scale=0.4, size=4096).astype(np.float32))
        counts = observer.code_histogram()
        dist = OperandDistribution.from_histogram(counts, bits=8)
        assert counts.sum() == 4096
        model = estimate_error_model(
            get_multiplier("truncated4"), method="analytic", act_dist=dist
        )
        assert np.isfinite(model.c)

    def test_minmax_observer_cannot_export(self):
        observer = MinMaxObserver(bits=8)
        observer.observe(np.ones(4))
        with pytest.raises(QuantizationError):
            observer.code_histogram()
