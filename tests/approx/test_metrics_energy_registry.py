"""MRE metric (Eq. 14), energy model and the multiplier registry."""

import numpy as np
import pytest

from repro.approx import (
    PAPER_MRE,
    ExactMultiplier,
    Multiplier,
    approx_matmul,
    as_multiplier,
    available_multipliers,
    build_plan,
    error_bias_ratio,
    exact_lut,
    get_multiplier,
    max_absolute_error,
    mean_error,
    mean_relative_error,
    network_energy,
    paper_mre,
)
from repro.errors import MultiplierError, ReproError
from repro.ge import estimate_error_model


class TestMRE:
    def test_exact_is_zero(self):
        assert mean_relative_error(ExactMultiplier()) == 0.0

    def test_manual_small_case(self):
        """Verify Eq. 14 on a hand-computable 2x2-bit multiplier."""
        lut = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 4, 6], [0, 3, 6, 8]], dtype=np.int32)
        # Only (3,3) wrong: |9-8|/9. Mean over 16 pairs.
        m = Multiplier("toy", lut, x_bits=2, w_bits=2)
        assert mean_relative_error(m) == pytest.approx((1 / 9) / 16)

    def test_constant_offset_error(self):
        lut = exact_lut() + 1
        m = Multiplier("offset", lut.astype(np.int32))
        assert mean_error(m) == pytest.approx(1.0)
        assert max_absolute_error(m) == 1

    def test_bias_ratio_extremes(self):
        one_sided = Multiplier("low", np.maximum(exact_lut() - 2, 0).astype(np.int32))
        assert error_bias_ratio(one_sided) > 0.9


class TestEnergy:
    def test_exact_network_has_no_savings(self):
        report = network_energy(1_000_000, ExactMultiplier())
        assert report.savings == 0.0
        assert report.total_relative_energy == 1.0

    def test_savings_equal_multiplier_savings_without_adders(self):
        m = get_multiplier("truncated5")
        report = network_energy(41_000_000, m)
        assert report.savings_percent == pytest.approx(38.0)

    def test_adder_fraction_dilutes_savings(self):
        m = get_multiplier("truncated5")
        diluted = network_energy(1000, m, adder_fraction=0.5)
        assert diluted.savings == pytest.approx(0.19)

    def test_validation(self):
        with pytest.raises(ValueError):
            network_energy(100, ExactMultiplier(), adder_fraction=1.5)
        with pytest.raises(ValueError):
            network_energy(-1, ExactMultiplier())


class TestRegistry:
    def test_all_paper_multipliers_available(self):
        names = available_multipliers()
        assert "exact" in names
        for t in range(1, 6):
            assert f"truncated{t}" in names
        for ident in (470, 29, 111, 104, 469, 228, 145, 249):
            assert f"evoapprox{ident}" in names

    def test_get_multiplier_cached(self):
        assert get_multiplier("truncated3") is get_multiplier("truncated3")

    def test_case_insensitive(self):
        assert get_multiplier("Truncated3").name == "truncated3"

    def test_unknown_rejected(self):
        with pytest.raises(MultiplierError):
            get_multiplier("booth16")
        with pytest.raises(MultiplierError):
            get_multiplier("truncatedX")

    def test_paper_mre_lookup(self):
        assert paper_mre("truncated5") == pytest.approx(0.198)
        assert paper_mre("exact") is None
        assert set(PAPER_MRE) >= {"truncated1", "evoapprox249"}

    def test_every_registered_multiplier_instantiates(self):
        for name in available_multipliers():
            m = get_multiplier(name)
            assert m.lut.shape == (256, 16)


class TestAsMultiplier:
    """One resolver for "a registry name or a Multiplier" arguments.

    Each former escape raised a bare ``AttributeError`` on a non-str,
    non-Multiplier argument; now it is a typed :class:`ReproError`.
    """

    def test_names_and_instances_resolve(self):
        mult = get_multiplier("truncated5")
        assert as_multiplier("Truncated5") is mult
        assert as_multiplier(mult) is mult

    def test_approx_matmul_accepts_a_name(self, rng):
        a = rng.integers(-127, 128, size=(6, 9), dtype=np.int32)
        b = rng.integers(-7, 8, size=(9, 4), dtype=np.int32)
        np.testing.assert_array_equal(
            approx_matmul(a, b, "truncated5"),
            approx_matmul(a, b, get_multiplier("truncated5")),
        )

    def test_get_multiplier_rejects_a_non_name(self):
        with pytest.raises(MultiplierError):
            get_multiplier(5)

    def test_approx_matmul_rejects_a_non_multiplier(self, rng):
        a = np.zeros((2, 3), dtype=np.int32)
        b = np.zeros((3, 2), dtype=np.int32)
        with pytest.raises(ReproError):
            approx_matmul(a, b, 5)

    def test_build_plan_rejects_a_non_multiplier(self):
        with pytest.raises(ReproError):
            build_plan(np.zeros((3, 2), dtype=np.int32), 5)

    def test_estimate_error_model_rejects_a_non_multiplier(self):
        with pytest.raises(ReproError):
            estimate_error_model(5)
