"""Monte-Carlo error profiling (paper section IV-B, Figs. 2 and 3)."""

import numpy as np
import pytest

from repro.approx import ExactMultiplier, get_multiplier
from repro.errors import ConfigError
from repro.ge import estimate_error_model, profile_multiplier_error


class TestProfiling:
    def test_profile_shapes(self):
        profile = profile_multiplier_error(
            get_multiplier("truncated3"), num_simulations=5, gemm_rows=8, out_dim=4, rng=0
        )
        assert profile.y.shape == profile.eps.shape
        assert profile.y.size == 5 * 8 * 4
        assert profile.multiplier_name == "truncated3"

    def test_exact_multiplier_has_zero_error(self):
        profile = profile_multiplier_error(ExactMultiplier(), num_simulations=3, rng=0)
        assert np.abs(profile.eps).max() == 0

    def test_deterministic_given_seed(self):
        a = profile_multiplier_error(get_multiplier("truncated4"), num_simulations=3, rng=5)
        b = profile_multiplier_error(get_multiplier("truncated4"), num_simulations=3, rng=5)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.eps, b.eps)

    @pytest.mark.parametrize("size", ["num_simulations", "gemm_rows", "reduce_dim", "out_dim"])
    def test_nonpositive_sizes_raise_config_error(self, size):
        with pytest.raises(ConfigError, match=f"{size} must be >= 1"):
            profile_multiplier_error(get_multiplier("truncated3"), rng=0, **{size: 0})

    def test_estimate_with_zero_simulations_raises_config_error(self):
        with pytest.raises(ConfigError, match="num_simulations"):
            estimate_error_model("truncated3", num_simulations=0, method="montecarlo")

    def test_samples_respect_quantization_ranges(self):
        profile = profile_multiplier_error(
            get_multiplier("truncated1"), num_simulations=2, reduce_dim=16, rng=0
        )
        # With 16 products of magnitude <= 127*7 the output is bounded.
        assert np.abs(profile.y).max() <= 16 * 127 * 7


class TestFittedModels:
    def test_truncated_multipliers_get_negative_slope(self):
        """Fig. 2: the truncated-multiplier error has a negative slope."""
        for name in ("truncated3", "truncated4", "truncated5"):
            model = estimate_error_model(get_multiplier(name), rng=0)
            assert model.k < 0, name
            assert not model.is_constant

    def test_deeper_truncation_steeper_slope(self):
        k3 = estimate_error_model(get_multiplier("truncated3"), rng=0).k
        k5 = estimate_error_model(get_multiplier("truncated5"), rng=0).k
        assert k5 < k3 < 0

    def test_evoapprox_models_are_constant(self):
        """Fig. 3 / section IV-B: EvoApprox errors fit only as constants, so
        ∂f/∂y = 0 and GE degenerates to the STE."""
        for ident in (470, 29, 228, 145, 469, 111, 249):
            model = estimate_error_model(get_multiplier(f"evoapprox{ident}"), rng=0)
            assert model.is_constant, f"evoapprox{ident}"

    def test_profiling_is_fast(self):
        """Paper: estimating f takes under a second."""
        import time

        start = time.perf_counter()
        estimate_error_model(get_multiplier("truncated5"), rng=0)
        assert time.perf_counter() - start < 2.0
