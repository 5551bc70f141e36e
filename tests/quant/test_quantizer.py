"""Symmetric quantizer semantics and invariants (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import QuantizationError
from repro.quant import (
    dequantize,
    fake_quantize_np,
    qrange,
    quantize,
    round_step_to_pow2,
    step_from_max,
)


class TestQRange:
    def test_symmetric_ranges(self):
        assert qrange(8) == (-127, 127)
        assert qrange(4) == (-7, 7)
        assert qrange(2) == (-1, 1)

    def test_rejects_too_few_bits(self):
        with pytest.raises(QuantizationError):
            qrange(1)


class TestPow2Rounding:
    def test_exact_powers_unchanged(self):
        for e in range(-8, 8):
            assert round_step_to_pow2(2.0**e) == 2.0**e

    def test_geometric_rounding(self):
        assert round_step_to_pow2(0.3) == 0.25
        assert round_step_to_pow2(0.4) == 0.5
        assert round_step_to_pow2(3.0) == 4.0  # sqrt(2)*2 ≈ 2.83 < 3

    def test_rejects_nonpositive(self):
        with pytest.raises(QuantizationError):
            round_step_to_pow2(0.0)
        with pytest.raises(QuantizationError):
            round_step_to_pow2(-1.0)
        with pytest.raises(QuantizationError):
            round_step_to_pow2(float("nan"))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_result_is_power_of_two(self, step):
        result = round_step_to_pow2(step)
        exponent = np.log2(result)
        assert exponent == pytest.approx(round(exponent))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_within_sqrt2_factor(self, step):
        result = round_step_to_pow2(step)
        ratio = result / step
        assert 2**-0.5 - 1e-9 <= ratio <= 2**0.5 + 1e-9


class TestQuantizeDequantize:
    def test_codes_are_integers_in_range(self, rng):
        x = rng.normal(0, 10, size=1000)
        codes = quantize(x, 0.125, 8)
        assert codes.dtype == np.int32
        assert codes.min() >= -127 and codes.max() <= 127

    def test_zero_maps_to_zero(self):
        assert quantize(np.zeros(3), 0.5, 8).sum() == 0

    def test_roundtrip_error_bounded_by_half_step(self, rng):
        # Unrounded step: everything is covered, so error <= step/2.
        x = rng.uniform(-1, 1, size=500)
        step = step_from_max(1.0, 8, pow2=False)
        err = np.abs(fake_quantize_np(x, step, 8) - x)
        assert err.max() <= step / 2 + 1e-7

    def test_pow2_roundtrip_error_bounded_by_clip_plus_half_step(self, rng):
        # Pow2 rounding may shrink the range; error is bounded by the
        # clipping distance plus half a step.
        x = rng.uniform(-1, 1, size=500)
        step = step_from_max(1.0, 8, pow2=True)
        clip_limit = max(0.0, 1.0 - 127 * step)
        err = np.abs(fake_quantize_np(x, step, 8) - x)
        assert err.max() <= clip_limit + step / 2 + 1e-7

    def test_clipping_beyond_range(self):
        out = fake_quantize_np(np.array([100.0]), 0.1, 4)
        assert out[0] == pytest.approx(0.7)  # 7 * 0.1

    def test_dequantize_scales(self):
        np.testing.assert_allclose(dequantize(np.array([4, -2]), 0.25), [1.0, -0.5])

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 40),
            elements=st.floats(-100, 100, allow_nan=False),
        ),
        st.integers(2, 8),
    )
    def test_fake_quantize_idempotent(self, x, bits):
        step = 0.5
        once = fake_quantize_np(x, step, bits)
        twice = fake_quantize_np(once, step, bits)
        np.testing.assert_allclose(once, twice)

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            np.float64, st.integers(1, 40), elements=st.floats(-50, 50, allow_nan=False)
        )
    )
    def test_fake_quantize_odd_symmetry(self, x):
        """Symmetric quantizer: Q(-x) == -Q(x) (no zero-point)."""
        step = 0.25
        np.testing.assert_allclose(
            fake_quantize_np(-x, step, 8), -fake_quantize_np(x, step, 8), atol=1e-9
        )


class TestStepFromMax:
    def test_covers_range(self):
        step = step_from_max(4.0, 4, pow2=False)
        assert step * 7 >= 4.0 - 1e-9

    def test_pow2_flag(self):
        step = step_from_max(1.0, 8, pow2=True)
        assert np.log2(step) == pytest.approx(round(np.log2(step)))

    def test_degenerate_zero_max(self):
        assert step_from_max(0.0, 8) > 0


def quantization_noise(x, step, bits):
    return float(np.mean((fake_quantize_np(x, step, bits) - x) ** 2))


class TestQuantizationNoise:
    def test_zero_for_representable_values(self):
        x = np.array([0.5, -0.25, 0.75])
        assert quantization_noise(x, 0.25, 8) == pytest.approx(0.0)

    def test_decreases_with_more_bits(self, rng):
        x = rng.uniform(-1, 1, 1000)
        noise4 = quantization_noise(x, step_from_max(1.0, 4), 4)
        noise8 = quantization_noise(x, step_from_max(1.0, 8), 8)
        assert noise8 < noise4
