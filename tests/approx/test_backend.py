"""The exact GEMM reference, the float GEMM seam and the active-path report.

``tiered_exact_int_matmul`` is the one exact integer GEMM; the cached
variant gradient estimation uses must agree with it bit for bit in every
tier. ``plan_cache_disabled()`` is the one switch onto the reference
path, and ``default_backend()`` reports it for the calling thread only.
"""

import threading

import numpy as np
import pytest

from repro.approx import plan_cache_disabled
from repro.approx.backend import default_backend, float_matmul, tiered_exact_int_matmul
from repro.approx.gemm import exact_int_matmul, exact_int_matmul_cached
from repro.errors import MultiplierError

# (max |a|, max |b|, K): the worst-case partial sum |a|·|b|·K selects
# each accumulation tier.
TIERS = {
    np.float32: (127, 7, 9),  # ~8e3 < 2^23
    np.float64: (2**20, 2**10, 9),  # ~9e12: past 2^23, below 2^52
    np.int64: (2**30, 2**29, 4),  # 2^61: past 2^52, below 2^63
}


class TestTieredReference:
    def test_float32_tier_for_small_codes(self, rng):
        a = rng.integers(-127, 128, size=(5, 8)).astype(np.int64)
        b = rng.integers(-127, 128, size=(8, 3)).astype(np.int64)
        expected = a @ b
        np.testing.assert_array_equal(tiered_exact_int_matmul(a, b), expected)

    def test_int64_tier_is_exact_past_float64(self):
        # 2^30 * 2^30 * 4 = 2^62: past the f64-exact bound, below int64 wrap.
        a = np.full((1, 4), 2**30, dtype=np.int64)
        b = np.full((4, 1), 2**30, dtype=np.int64)
        out = tiered_exact_int_matmul(a, b)
        assert out[0, 0] == 2**62

    def test_overflow_past_int64_raises(self):
        # 2^32 * 2^31 = 2^63: the int64 accumulator would wrap silently.
        a = np.array([[2**32]], dtype=np.int64)
        b = np.array([[2**31]], dtype=np.int64)
        with pytest.raises(MultiplierError, match="overflow the int64"):
            tiered_exact_int_matmul(a, b)
        with pytest.raises(MultiplierError, match="overflow the int64"):
            exact_int_matmul(a, b)

    def test_empty_operands_are_fine(self):
        out = tiered_exact_int_matmul(
            np.zeros((0, 3), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)
        )
        assert out.shape == (0, 2)

    @pytest.mark.parametrize("tier", list(TIERS), ids=lambda t: t.__name__)
    def test_cached_matches_uncached_bitwise(self, tier, rng):
        amax, bmax, k = TIERS[tier]
        a = rng.integers(-amax, amax + 1, size=(6, k), dtype=np.int64)
        b = rng.integers(-bmax, bmax + 1, size=(k, 5), dtype=np.int64)
        a[0, 0], b[0, 0] = amax, bmax  # pin the maxima that select the tier
        reference = exact_int_matmul(a, b)
        np.testing.assert_array_equal(reference, a @ b)
        cache: dict = {}
        for _ in range(2):  # the second call reuses the cached conversion
            out = exact_int_matmul_cached(a, b, cache)
            assert out.dtype == reference.dtype == np.int64
            np.testing.assert_array_equal(out, reference)
        assert cache["absmax"] == bmax
        assert cache[tier].dtype == tier  # b converted for this tier only
        assert len(cache) == 2

    @pytest.mark.parametrize("tier", list(TIERS), ids=lambda t: t.__name__)
    def test_float_a_returns_the_product_in_the_tier_dtype(self, tier, rng):
        # A layer passes its integer-valued float32 columns and keeps the
        # float product; integer a keeps the int64 contract.
        amax, bmax, k = TIERS[tier]
        a = rng.integers(-amax, amax + 1, size=(6, k), dtype=np.int64)
        b = rng.integers(-bmax, bmax + 1, size=(k, 5), dtype=np.int64)
        a[0, 0], b[0, 0] = amax, bmax
        out = exact_int_matmul(a.astype(np.float64), b)
        assert out.dtype == tier
        np.testing.assert_array_equal(out, a @ b)
        assert exact_int_matmul(a, b).dtype == np.int64

    def test_a_max_picks_the_tier_without_reading_a(self, rng):
        a = rng.integers(-7, 8, size=(4, 9)).astype(np.float32)
        b = rng.integers(-7, 8, size=(9, 3)).astype(np.int64)
        assert exact_int_matmul(a, b).dtype == np.float32
        wide = exact_int_matmul(a, b, a_max=2.0**20)
        assert wide.dtype == np.float64
        np.testing.assert_array_equal(wide, a.astype(np.int64) @ b)

    @pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
    def test_both_paths_raise_past_int64(self, cached):
        a = np.array([[2**32]], dtype=np.int64)
        b = np.array([[2**31]], dtype=np.int64)
        with pytest.raises(MultiplierError, match="overflow the int64"):
            if cached:
                exact_int_matmul_cached(a, b, {})
            else:
                exact_int_matmul(a, b)


class TestFloatMatmul:
    def test_is_a_plain_matmul(self, rng):
        a = rng.normal(size=(4, 3)).astype(np.float32)
        b = rng.normal(size=(3, 2)).astype(np.float32)
        np.testing.assert_array_equal(float_matmul(a, b), a @ b)


class TestActivePath:
    def test_default_is_plan_lut(self):
        assert default_backend().name == "plan-lut"

    def test_plan_cache_disabled_reports_exact_blas_on_this_thread_only(self):
        seen = {}

        def other_thread():
            seen["other"] = default_backend().name

        with plan_cache_disabled():
            seen["inside"] = default_backend().name
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen == {"inside": "exact-blas", "other": "plan-lut"}
        assert default_backend().name == "plan-lut"
