"""Approximate integer GEMM engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.approx.gemm as gemm_mod
from repro.approx import (
    ExactMultiplier,
    approx_matmul,
    exact_int_matmul,
    get_multiplier,
)
from repro.errors import MultiplierError, ShapeError


def _codes(rng, shape, bits):
    hi = 2 ** (bits - 1) - 1
    return rng.integers(-hi, hi + 1, size=shape, dtype=np.int32)


def _brute_force(a, b, multiplier):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            for kk in range(k):
                out[i, j] += multiplier.apply_signed(
                    np.array([a[i, kk]]), np.array([b[kk, j]])
                )[0]
    return out


class TestExact:
    def test_exact_multiplier_equals_int_matmul(self, rng):
        a = _codes(rng, (6, 9), 8)
        b = _codes(rng, (9, 4), 4)
        np.testing.assert_array_equal(
            approx_matmul(a, b, ExactMultiplier()), exact_int_matmul(a, b)
        )

    def test_int64_accumulation(self):
        a = np.full((1, 1000), 127, dtype=np.int32)
        b = np.full((1000, 1), 7, dtype=np.int32)
        assert exact_int_matmul(a, b)[0, 0] == 127 * 7 * 1000


class TestApproximate:
    @pytest.mark.parametrize("name", ["truncated3", "truncated5", "evoapprox228"])
    def test_matches_brute_force(self, rng, name):
        mult = get_multiplier(name)
        a = _codes(rng, (4, 5), 8)
        b = _codes(rng, (5, 3), 4)
        np.testing.assert_array_equal(approx_matmul(a, b, mult), _brute_force(a, b, mult))

    def test_blas_path_matches_int64_accumulation(self, rng):
        """The float64 BLAS fast path must be bit-exact vs int64 math."""
        a = _codes(rng, (50, 300), 8).astype(np.int64)
        b = _codes(rng, (300, 12), 4).astype(np.int64)
        np.testing.assert_array_equal(exact_int_matmul(a, b), a @ b)

    def test_large_values_use_int64_fallback(self):
        a = np.array([[2**40]], dtype=np.int64)
        b = np.array([[2**20]], dtype=np.int64)
        assert exact_int_matmul(a, b)[0, 0] == 2**60

    def test_signed_lut_odd_symmetry(self):
        mult = get_multiplier("truncated4")
        slut = mult.signed_lut()
        whi = 7
        for v in range(1, whi + 1):
            np.testing.assert_array_equal(slut[:, whi + v], -slut[:, whi - v])

    def test_zero_weight_column_contributes_nothing(self, rng):
        mult = get_multiplier("evoapprox228")
        a = _codes(rng, (6, 4), 8)
        b = np.zeros((4, 3), dtype=np.int32)
        np.testing.assert_array_equal(approx_matmul(a, b, mult), np.zeros((6, 3)))

    def test_truncated_output_biased_against_exact(self, rng):
        """Accumulated truncation error anticorrelates with the output."""
        mult = get_multiplier("truncated5")
        a = _codes(rng, (200, 64), 8)
        b = _codes(rng, (64, 8), 4)
        approx, exact = approx_matmul(a, b, mult), exact_int_matmul(a, b)
        err = (approx - exact).astype(np.float64).reshape(-1)
        y = exact.astype(np.float64).reshape(-1)
        corr = np.corrcoef(y, err)[0, 1]
        assert corr < -0.5

    def test_evoapprox_error_uncorrelated(self, rng):
        mult = get_multiplier("evoapprox228")
        a = _codes(rng, (200, 64), 8)
        b = _codes(rng, (64, 8), 4)
        approx, exact = approx_matmul(a, b, mult), exact_int_matmul(a, b)
        err = (approx - exact).astype(np.float64).reshape(-1)
        y = exact.astype(np.float64).reshape(-1)
        assert abs(np.corrcoef(y, err)[0, 1]) < 0.2


class TestValidation:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            approx_matmul(_codes(rng, (2, 3), 8), _codes(rng, (4, 2), 4), ExactMultiplier())

    def test_float_input_rejected(self):
        with pytest.raises(MultiplierError):
            approx_matmul(
                np.zeros((2, 2), dtype=np.float32),
                np.zeros((2, 2), dtype=np.int32),
                ExactMultiplier(),
            )

    def test_magnitude_overflow_rejected(self):
        a = np.array([[200]], dtype=np.int32)  # |200| < 256, fits x side
        b = np.array([[20]], dtype=np.int32)  # |20| >= 16, overflows w side
        with pytest.raises(MultiplierError):
            approx_matmul(a, b, get_multiplier("truncated1"))
        with pytest.raises(MultiplierError):
            approx_matmul(b.T * 30, a.T % 8, get_multiplier("truncated1"))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sign_flip_symmetry(self, seed):
        """approx(a, -b) == -approx(a, b) under sign-magnitude evaluation."""
        rng = np.random.default_rng(seed)
        mult = get_multiplier("truncated3")
        a = _codes(rng, (3, 4), 8)
        b = _codes(rng, (4, 2), 4)
        np.testing.assert_array_equal(
            approx_matmul(a, -b, mult), -approx_matmul(a, b, mult)
        )


class TestExactPrecisionTiers:
    """``exact_int_matmul`` picks float32 / float64 / int64 by the worst-case
    partial-sum bound; every tier must agree with int64 accumulation."""

    @staticmethod
    def _int64_reference(a, b):
        return a.astype(np.int64) @ b.astype(np.int64)

    def test_float32_tier_just_below_the_2_pow_23_bound(self):
        # max|a|*max|b|*K = 127*7*9436 = 8_388_604 < 2^23: float32 BLAS.
        k = 9436
        a = np.full((2, k), 127, dtype=np.int32)
        b = np.full((k, 2), 7, dtype=np.int32)
        a[0, ::2] *= -1
        out = exact_int_matmul(a, b)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, self._int64_reference(a, b))

    def test_float64_tier_just_above_the_2_pow_23_bound(self):
        # 127*7*9437 = 8_389_493 >= 2^23: float32 would round; float64 is
        # exact and must match int64 accumulation bit for bit.
        k = 9437
        a = np.full((2, k), 127, dtype=np.int32)
        b = np.full((k, 2), 7, dtype=np.int32)
        np.testing.assert_array_equal(
            exact_int_matmul(a, b), self._int64_reference(a, b)
        )

    def test_float64_tier_handles_wide_products(self):
        # 2^26 * 2^25 * 1 = 2^51 < 2^52: still the exact float64 regime.
        a = np.array([[1 << 26]], dtype=np.int64)
        b = np.array([[1 << 25]], dtype=np.int64)
        np.testing.assert_array_equal(
            exact_int_matmul(a, b), np.array([[1 << 51]], dtype=np.int64)
        )

    def test_int64_fallback_above_the_2_pow_52_bound(self):
        # 2^26 * 2^26 = 2^52: float64 integers stop being dense here, so
        # the engine must fall back to int64 accumulation.
        a = np.array([[1 << 26]], dtype=np.int64)
        b = np.array([[1 << 26]], dtype=np.int64)
        out = exact_int_matmul(a, b)
        np.testing.assert_array_equal(out, np.array([[1 << 52]], dtype=np.int64))
        # an odd value nearby would be unrepresentable in float64
        a2 = np.array([[(1 << 40) + 1]], dtype=np.int64)
        b2 = np.array([[1 << 20]], dtype=np.int64)
        np.testing.assert_array_equal(
            exact_int_matmul(a2, b2), self._int64_reference(a2, b2)
        )

    def test_randomised_tiers_agree_with_int64(self, rng):
        for hi in (3, 1 << 12, 1 << 27):
            a = rng.integers(-hi, hi + 1, size=(5, 17)).astype(np.int64)
            b = rng.integers(-hi, hi + 1, size=(17, 4)).astype(np.int64)
            np.testing.assert_array_equal(
                exact_int_matmul(a, b), self._int64_reference(a, b)
            )

    def test_empty_operands(self):
        a = np.zeros((0, 4), dtype=np.int32)
        b = np.zeros((4, 3), dtype=np.int32)
        out = exact_int_matmul(a, b)
        assert out.shape == (0, 3)
        assert out.dtype == np.int64
