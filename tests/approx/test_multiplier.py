"""Multiplier base class: LUT validation and signed evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import ExactMultiplier, Multiplier, exact_lut
from repro.errors import MultiplierError


class TestValidation:
    def test_wrong_lut_shape_rejected(self):
        with pytest.raises(MultiplierError):
            Multiplier("bad", np.zeros((10, 16), dtype=np.int32))

    def test_float_lut_rejected(self):
        with pytest.raises(MultiplierError):
            Multiplier("bad", np.zeros((256, 16), dtype=np.float32))

    def test_negative_entries_rejected(self):
        lut = exact_lut()
        lut[0, 0] = -1
        with pytest.raises(MultiplierError):
            Multiplier("bad", lut)


class TestExactMultiplier:
    def test_is_exact(self):
        assert ExactMultiplier().is_exact

    def test_unsigned_evaluation(self):
        m = ExactMultiplier()
        a = np.array([0, 5, 255])
        b = np.array([0, 3, 15])
        np.testing.assert_array_equal(m.apply_unsigned(a, b), a * b)

    def test_error_table_all_zero(self):
        assert np.abs(ExactMultiplier().error_table()).max() == 0

    def test_energy_savings_zero(self):
        assert ExactMultiplier().energy_savings == 0.0


class TestLutCaches:
    def test_signed_lut_f64_matches_and_is_cached(self):
        from repro.approx import get_multiplier

        m = get_multiplier("truncated4")
        table = m.signed_lut_f64()
        assert table.dtype == np.float64
        np.testing.assert_array_equal(table, m.signed_lut().astype(np.float64))
        # hot-path requirement: repeat calls return the same array object
        assert m.signed_lut_f64() is table

    def test_f32_and_f64_caches_are_independent(self):
        from repro.approx import get_multiplier

        m = get_multiplier("truncated3")
        f32, f64 = m.signed_lut_f32(), m.signed_lut_f64()
        assert f32.dtype == np.float32 and f64.dtype == np.float64
        np.testing.assert_array_equal(f32.astype(np.float64), f64)


class TestSignedEvaluation:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(-127, 127), st.integers(-7, 7))
    def test_exact_signed_matches_product(self, a, b):
        m = ExactMultiplier()
        assert m.apply_signed(np.array([a]), np.array([b]))[0] == a * b

    def test_sign_magnitude_symmetry(self):
        """g̃(-a, b) == -g̃(a, b) for any LUT multiplier."""
        from repro.approx import get_multiplier

        m = get_multiplier("truncated3")
        a = np.arange(-127, 128)
        b = np.full_like(a, 5)
        pos = m.apply_signed(np.abs(a), b)
        signed = m.apply_signed(a, b)
        np.testing.assert_array_equal(signed, np.sign(a) * pos)

    def test_out_of_range_unsigned_rejected(self):
        from repro.approx import get_multiplier

        m = ExactMultiplier()
        with pytest.raises(MultiplierError):
            m.apply_unsigned(np.array([256]), np.array([0]))
        with pytest.raises(MultiplierError):
            m.apply_unsigned(np.array([0]), np.array([16]))
        with pytest.raises(MultiplierError):
            m.apply_unsigned(np.array([-1]), np.array([0]))
        t5 = get_multiplier("truncated5")
        for a, b in ([300], [1]), ([-256], [1]), ([1], [16]), ([1], [-16]):
            with pytest.raises(MultiplierError):
                t5.apply_signed(np.array(a), np.array(b))
        for apply in (t5.apply_signed, t5.apply_unsigned):
            with pytest.raises(MultiplierError):
                apply(np.array([1.0]), np.array([1]))
            with pytest.raises(MultiplierError):
                apply(np.array([1]), np.array([1.0]))
        # |int8 -128| fits the 8-bit magnitude range once widened.
        assert m.apply_signed(np.array([-128], np.int8), np.array([3], np.int8)) == -384
