"""Weight-stationary kernel plans: bitwise equivalence, caching.

The plan path (``repro.approx.plan``) must be bitwise identical to the
uncached reference GEMM in every precision regime — its whole correctness
argument is that reordering exact integer sums cannot change them.
"""

import copy
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import Multiplier, available_multipliers, get_multiplier
from repro.approx.gemm import approx_matmul
from repro.approx.plan import (
    GemmPlan,
    PlanCache,
    build_plan,
    check_magnitude,
    plan_cache_disabled,
    plan_caching_enabled,
    repair_plan,
)
from repro.approx.truncated import BiasCorrectedTruncatedMultiplier
from repro.autograd import Tensor
from repro.autograd.grad_mode import no_grad
from repro.errors import MultiplierError, ShapeError
from repro.models import resnet20
from repro.quant import QuantConv2d, calibrate_model, quant_layers, quantize_model
from repro.quant.qfunction import _maybe_plan
from repro.sim import attach_multiplier

TRUNCATED = [f"truncated{t}" for t in range(1, 6)]
EVOAPPROX = [name for name in available_multipliers() if name.startswith("evoapprox")]


def _random_operands(rng, multiplier, m=37, k=29, n=11):
    xhi = 2 ** (multiplier.x_bits - 1) - 1
    whi = 2 ** (multiplier.w_bits - 1) - 1
    a = rng.integers(-xhi, xhi + 1, size=(m, k), dtype=np.int32)
    b = rng.integers(-whi, whi + 1, size=(k, n), dtype=np.int32)
    return a, b


class TestPlanBitwiseEquivalence:
    @pytest.mark.parametrize(
        "name", ["truncated1", "truncated3", "truncated5", "evoapprox29", "evoapprox470"]
    )
    def test_plan_matches_uncached_path(self, name):
        rng = np.random.default_rng(0)
        mult = get_multiplier(name)
        a, b = _random_operands(rng, mult)
        plan = build_plan(b, mult)
        np.testing.assert_array_equal(
            approx_matmul(a, b, mult, plan=plan), approx_matmul(a, b, mult)
        )

    def test_float64_regime_matches(self):
        # K large enough that max|product|*K crosses 2^23, forcing the
        # float64 BLAS tier in both paths.
        mult = get_multiplier("truncated1")
        k = int(2.0**23 / float(np.abs(mult.lut).max())) + 10
        rng = np.random.default_rng(1)
        a, b = _random_operands(rng, mult, m=3, k=k, n=2)
        plan = build_plan(b, mult)
        assert not plan.use_f32
        assert plan.dtype == np.dtype(np.float64)
        np.testing.assert_array_equal(
            approx_matmul(a, b, mult, plan=plan), approx_matmul(a, b, mult)
        )

    def test_sparse_weights_skip_inactive_values(self):
        # Only two active magnitudes -> the plan gathers 2 LUT columns.
        mult = get_multiplier("truncated4")
        rng = np.random.default_rng(2)
        b = rng.choice(np.array([-5, 0, 0, 3], dtype=np.int32), size=(20, 6))
        a = rng.integers(-127, 128, size=(9, 20), dtype=np.int32)
        plan = build_plan(b, mult)
        assert plan.num_values == 2
        assert not plan.bitplane  # fewer magnitudes than bit planes
        np.testing.assert_array_equal(
            approx_matmul(a, b, mult, plan=plan), approx_matmul(a, b, mult)
        )

    def test_all_zero_weights_yield_zeros(self):
        mult = get_multiplier("truncated3")
        b = np.zeros((12, 5), dtype=np.int32)
        a = np.arange(-10, 14, dtype=np.int32).reshape(2, 12)
        plan = build_plan(b, mult)
        assert plan.num_values == 0
        out = approx_matmul(a, b, mult, plan=plan)
        np.testing.assert_array_equal(out, np.zeros((2, 5), dtype=np.int64))
        assert out.dtype == np.int64

    def test_plan_execution_is_instrumented(self, profiled):
        mult = get_multiplier("truncated4")
        rng = np.random.default_rng(4)
        a, b = _random_operands(rng, mult, m=8, k=12, n=4)
        with profiled() as rows:
            plan = build_plan(b, mult)
            approx_matmul(a, b, mult, plan=plan)
        assert rows["approx.plan_build"]["calls"] == 1
        assert rows["plan_cache.build"]["calls"] == 1
        assert rows["approx.lut_gather"]["calls"] == 1
        assert rows["approx.matmul_blas"]["calls"] == 1
        assert rows["approx.lut_gathered_values"]["calls"] == plan.num_values
        # bytes reflect the plan dtype, not a hardcoded 8 bytes/element
        v = plan.num_values
        assert rows["approx.matmul_blas"]["bytes"] == (
            (8 * 12 * v + 12 * v * 4) * plan.dtype.itemsize
        )


class TestPlanValidation:
    def test_shape_mismatch_is_rejected(self):
        mult = get_multiplier("truncated3")
        rng = np.random.default_rng(0)
        a, b = _random_operands(rng, mult)
        plan = build_plan(b, mult)
        other = np.zeros((b.shape[0], b.shape[1] + 1), dtype=np.int32)
        with pytest.raises(ShapeError):
            approx_matmul(a, other, mult, plan=plan)

    def test_build_rejects_float_weights(self):
        with pytest.raises(MultiplierError):
            build_plan(np.zeros((4, 4), dtype=np.float32), get_multiplier("truncated3"))

    def test_build_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            build_plan(np.zeros((4,), dtype=np.int32), get_multiplier("truncated3"))

    def test_build_rejects_out_of_range_magnitudes(self):
        mult = get_multiplier("truncated3")
        whi = 2 ** (mult.w_bits - 1) - 1
        b = np.full((3, 3), whi + 1, dtype=np.int32)
        with pytest.raises(MultiplierError):
            build_plan(b, mult)

    def test_execute_rejects_wrong_reduce_dim(self):
        mult = get_multiplier("truncated3")
        plan = build_plan(np.ones((6, 2), dtype=np.int32), mult)
        with pytest.raises(ShapeError):
            plan.execute(np.zeros((3, 7), dtype=np.int32))

    @pytest.mark.parametrize(
        "name,b,bitplane",
        [
            # one active weight value: an indicator plan on any multiplier
            ("evoapprox228", np.full((1, 1), 3), False),
            # every magnitude 1..7 on a truncated design: a bit-plane plan
            ("truncated5", np.arange(-7, 8).reshape(1, 15), True),
        ],
    )
    @pytest.mark.parametrize("sign", [1, -1])
    def test_execute_rejects_out_of_range_activations(self, name, b, bitplane, sign):
        mult = get_multiplier(name)
        plan = build_plan(b.astype(np.int32), mult)
        assert plan.bitplane is bitplane
        xhi = 2 ** (mult.x_bits - 1) - 1
        plan.execute(np.array([[sign * xhi]], dtype=np.int32))  # in range
        bad = np.array([[sign * (xhi + 1)]], dtype=np.int32)
        with pytest.raises(MultiplierError, match="operand a"):
            plan.execute(bad)
        with pytest.raises(MultiplierError, match="operand a"):
            approx_matmul(bad, b, mult, plan=plan)

    def test_int32_minimum_is_rejected_not_overflowed(self):
        mult = get_multiplier("truncated3")
        b = np.ones((1, 1), dtype=np.int32)
        a = np.array([[np.iinfo(np.int32).min]], dtype=np.int32)
        with pytest.raises(MultiplierError, match="2147483648"):
            check_magnitude(a, 127, mult.name, "a")
        with pytest.raises(MultiplierError):
            approx_matmul(a, b, mult)
        with pytest.raises(MultiplierError):
            build_plan(b, mult).execute(a)


class TestPlanCache:
    def test_hit_requires_same_key_and_multiplier(self):
        mult = get_multiplier("truncated3")
        other = get_multiplier("truncated4")
        cache = PlanCache()
        builds = []

        def build():
            builds.append(1)
            return object()

        first = cache.get("linear", (0, 0), mult, build)
        assert cache.get("linear", (0, 0), mult, build) is first
        assert len(builds) == 1
        # key change -> rebuild
        second = cache.get("linear", (1, 0), mult, build)
        assert second is not first
        # multiplier swap -> rebuild even with an equal key
        cache.get("linear", (1, 0), other, build)
        assert len(builds) == 3
        assert len(cache) == 1

    def test_disabled_caching_bypasses_storage(self):
        cache = PlanCache()
        builds = []
        with plan_cache_disabled():
            assert not plan_caching_enabled()
            cache.get("t", (0,), None, lambda: builds.append(1))
            cache.get("t", (0,), None, lambda: builds.append(1))
        assert plan_caching_enabled()
        assert len(builds) == 2
        assert len(cache) == 0

    def test_counters_track_hits_misses_and_bypasses(self, profiled):
        cache = PlanCache()
        with profiled() as rows:
            cache.get("t", (0,), None, object)
            cache.get("t", (0,), None, object)
            cache.get("t", (1,), None, object)
            with plan_cache_disabled():
                cache.get("t", (1,), None, object)
        assert rows["plan_cache.miss"]["calls"] == 2
        assert rows["plan_cache.hit"]["calls"] == 1
        assert rows["plan_cache.bypass"]["calls"] == 1

    def test_clones_and_pickles_start_empty(self):
        cache = PlanCache()
        cache.get("t", (0,), None, object)
        assert len(copy.deepcopy(cache)) == 0
        assert len(pickle.loads(pickle.dumps(cache))) == 0
        assert len(cache) == 1

    def test_plan_payload_survives_round_trips(self):
        # GemmPlan itself is never pickled (the cache drops), but its
        # arrays must be reusable after the owning layer is deep-copied.
        mult = get_multiplier("truncated3")
        rng = np.random.default_rng(6)
        a, b = _random_operands(rng, mult, m=4, k=8, n=3)
        plan = build_plan(b, mult)
        expected = plan.execute(a)
        np.testing.assert_array_equal(plan.execute(a), expected)
        assert isinstance(plan, GemmPlan)


class TestThreadLocalScopes:
    """Plan scopes are per thread: a reference block on one thread must not
    move another thread's planned forward onto the uncached path."""

    @pytest.mark.parallel
    def test_disabled_scope_does_not_leak_into_other_threads(self, rng, profiled):
        conv = QuantConv2d(3, 4, 3, padding=1, rng=rng)
        conv.act_step, conv.weight_step = 1 / 16, 1 / 8
        conv.set_multiplier(get_multiplier("truncated5"))
        conv.eval()
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32))
        with no_grad():
            expected = conv(x).data  # builds the plan on this thread
        a_inside, b_done = threading.Event(), threading.Event()
        seen: dict = {}

        def thread_a():
            with plan_cache_disabled():
                seen["a"] = plan_caching_enabled()
                a_inside.set()
                b_done.wait(timeout=30)

        def thread_b():
            a_inside.wait(timeout=30)
            try:
                seen["b"] = plan_caching_enabled()
                with no_grad():
                    seen["out"] = conv(x).data
            finally:
                b_done.set()

        with profiled() as rows:
            threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert seen["a"] is False and seen["b"] is True
        assert plan_caching_enabled()
        assert rows["plan_cache.hit"]["calls"] == 1
        assert "plan_cache.bypass" not in rows
        np.testing.assert_array_equal(seen["out"], expected)


class TestRepairPlan:
    """In-place plan repair after sparse weight-code drift.

    A successful repair must leave the plan bitwise-equivalent to a fresh
    build for the new operand; anything the repair cannot express returns
    False and leaves the caller to rebuild.
    """

    def _check_repaired(self, rng, mult, plan, old_b, new_b):
        assert repair_plan(plan, old_b, new_b)
        xhi = 2 ** (mult.x_bits - 1) - 1
        a = rng.integers(-xhi, xhi + 1, size=(9, old_b.shape[0]), dtype=np.int32)
        np.testing.assert_array_equal(plan.execute(a), approx_matmul(a, new_b, mult))
        np.testing.assert_array_equal(
            plan.execute(a), build_plan(new_b, mult).execute(a)
        )

    def test_sign_flip_same_magnitude(self, rng):
        mult = get_multiplier("truncated3")
        _, b = _random_operands(rng, mult, k=8, n=5)
        plan = build_plan(b, mult)
        new_b = b.copy()
        nz = np.argwhere(new_b != 0)[0]
        new_b[tuple(nz)] = -new_b[tuple(nz)]
        self._check_repaired(rng, mult, plan, b, new_b)

    def test_magnitude_change_to_known_value(self, rng):
        mult = get_multiplier("truncated4")
        b = np.array([[1, -2], [3, 4], [-5, 6]], dtype=np.int32)
        plan = build_plan(b, mult)
        new_b = b.copy()
        new_b[0, 0] = 4  # 4 is already an active value
        self._check_repaired(rng, mult, plan, b, new_b)

    def test_entry_vanishing_to_zero(self, rng):
        mult = get_multiplier("truncated4")
        b = np.array([[1, -2], [3, 4], [-5, 6]], dtype=np.int32)
        plan = build_plan(b, mult)
        new_b = b.copy()
        new_b[1, 1] = 0  # the slot row goes all-zero, contributing 0.0
        self._check_repaired(rng, mult, plan, b, new_b)

    def test_unchanged_operand_is_trivially_repaired(self, rng):
        mult = get_multiplier("truncated3")
        _, b = _random_operands(rng, mult, k=6, n=4)
        plan = build_plan(b, mult)
        h_before = plan.big_h.copy()
        assert repair_plan(plan, b, b.copy())
        np.testing.assert_array_equal(plan.big_h, h_before)

    def test_new_magnitude_declines(self):
        mult = get_multiplier("truncated4")
        b = np.array([[1, 2], [2, 1]], dtype=np.int32)
        plan = build_plan(b, mult)
        new_b = b.copy()
        new_b[0, 0] = 7  # magnitude 7 has no slot in this plan
        assert not plan.bitplane
        assert not repair_plan(plan, b, new_b)

    def test_shape_mismatch_declines(self, rng):
        mult = get_multiplier("truncated3")
        _, b = _random_operands(rng, mult, k=6, n=4)
        plan = build_plan(b, mult)
        assert not repair_plan(plan, b[:4], b[:4].copy())

    def test_all_zero_plan_declines(self):
        mult = get_multiplier("truncated4")
        b = np.zeros((3, 2), dtype=np.int32)
        plan = build_plan(b, mult)
        new_b = b.copy()
        new_b[0, 0] = 1
        assert not plan.bitplane
        assert not repair_plan(plan, b, new_b)

    def test_precomputed_changed_indices_match_full_diff(self, rng):
        mult = get_multiplier("truncated4")
        _, b = _random_operands(rng, mult, k=10, n=6)
        while not (b != 0).any():  # pragma: no cover - astronomically unlikely
            _, b = _random_operands(rng, mult, k=10, n=6)
        new_b = b.copy()
        nz = np.argwhere(new_b != 0)[:3]
        for idx in nz:
            new_b[tuple(idx)] = -new_b[tuple(idx)]
        plan_full = build_plan(b, mult)
        plan_pre = build_plan(b, mult)
        assert repair_plan(plan_full, b, new_b)
        assert repair_plan(plan_pre, b, new_b, changed=np.nonzero(b != new_b))
        np.testing.assert_array_equal(plan_full.big_h, plan_pre.big_h)


def _pp_lut(kept: set[tuple[int, int]], x_bits: int = 8, w_bits: int = 4) -> np.ndarray:
    """Partial-product LUT summing only the ``a_i·b_j`` bits in ``kept``."""
    a = np.arange(2**x_bits, dtype=np.int64)[:, None]
    b = np.arange(2**w_bits, dtype=np.int64)[None, :]
    out = np.zeros((2**x_bits, 2**w_bits), dtype=np.int64)
    for i, j in kept:
        out += ((a >> i) & 1) * ((b >> j) & 1) * (1 << (i + j))
    return out.astype(np.int32)


def _all_magnitudes(rng, k, n, whi=7):
    """Random weight codes in which every magnitude ``1..whi`` occurs."""
    b = rng.integers(-whi, whi + 1, size=(k, n), dtype=np.int32)
    b.flat[:whi] = np.arange(1, whi + 1)
    return b


class TestBitplanePlans:
    """Bit-plane plans for multipliers whose LUT is linear in the weight bits."""

    def test_classification(self):
        for name in TRUNCATED:
            assert get_multiplier(name).is_weight_bit_linear, name
        for name in EVOAPPROX:
            assert not get_multiplier(name).is_weight_bit_linear, name
        assert not BiasCorrectedTruncatedMultiplier(5).is_weight_bit_linear
        # exact is linear too, but the layers run it as a plain exact GEMM
        b = np.arange(-7, 8, dtype=np.int32).reshape(5, 3)
        assert _maybe_plan(b, get_multiplier("exact")) is None

    @pytest.mark.parametrize("name", TRUNCATED + ["evoapprox228"])
    def test_basis_follows_the_lut(self, name, rng):
        mult = get_multiplier(name)
        plan = build_plan(_all_magnitudes(rng, 12, 4), mult)
        if mult.is_weight_bit_linear:
            assert plan.bitplane
            np.testing.assert_array_equal(plan.values, [1, 2, 4])
        else:
            assert not plan.bitplane
            assert plan.num_values == 7

    @pytest.mark.parametrize("regime", ["float32", "float64"])
    @pytest.mark.parametrize("name", TRUNCATED)
    def test_matches_reference(self, name, regime, rng):
        mult = get_multiplier(name)
        if regime == "float32":
            m, k, n = 37, 29, 11
        else:
            # max|product|*K crosses 2^23: both paths switch to float64
            m, k, n = 3, int(2.0**23 / float(np.abs(mult.lut).max())) + 10, 2
        a, _ = _random_operands(rng, mult, m=m, k=k, n=n)
        b = _all_magnitudes(rng, k, n)
        plan = build_plan(b, mult)
        assert plan.bitplane
        assert plan.use_f32 == (regime == "float32")
        np.testing.assert_array_equal(
            approx_matmul(a, b, mult, plan=plan),
            approx_matmul(a, b, mult),
        )

    @settings(max_examples=25, deadline=None)
    @given(
        dropped=st.sets(st.tuples(st.integers(0, 7), st.integers(0, 3))),
        seed=st.integers(0, 2**16),
    )
    def test_partial_product_luts_are_bitplane_exact(self, dropped, seed):
        kept = {(i, j) for i in range(8) for j in range(4)} - dropped
        mult = Multiplier("pp", _pp_lut(kept))
        assert mult.is_weight_bit_linear
        rng = np.random.default_rng(seed)
        a, _ = _random_operands(rng, mult, m=9, k=16, n=5)
        b = _all_magnitudes(rng, 16, 5)
        plan = build_plan(b, mult)
        assert plan.bitplane
        np.testing.assert_array_equal(
            plan.execute(a), approx_matmul(a, b, mult)
        )

    def _check_repaired(self, rng, mult, old_b, new_b):
        plan = build_plan(old_b, mult)
        assert plan.bitplane
        assert repair_plan(plan, old_b, new_b)
        fresh = build_plan(new_b, mult)
        np.testing.assert_array_equal(plan.big_h, fresh.big_h)
        a, _ = _random_operands(rng, mult, m=9, k=old_b.shape[0], n=1)
        np.testing.assert_array_equal(plan.execute(a), fresh.execute(a))
        np.testing.assert_array_equal(
            plan.execute(a), approx_matmul(a, new_b, mult)
        )

    def test_repair_sign_flip(self, rng):
        b = _all_magnitudes(rng, 10, 4)
        new_b = b.copy()
        new_b[:3] = -new_b[:3]
        self._check_repaired(rng, get_multiplier("truncated5"), b, new_b)

    @pytest.mark.parametrize("magnitude", range(8))
    def test_repair_move_to_any_magnitude(self, magnitude, rng):
        b = _all_magnitudes(rng, 10, 4)
        new_b = b.copy()
        new_b[0, :] = magnitude  # covers every old magnitude 1..4
        new_b[5, 1] = -magnitude
        self._check_repaired(rng, get_multiplier("truncated3"), b, new_b)

    def test_repair_move_to_zero(self, rng):
        b = _all_magnitudes(rng, 10, 4)
        new_b = b.copy()
        kk, nn = np.nonzero(b)
        new_b[kk[:5], nn[:5]] = 0
        self._check_repaired(rng, get_multiplier("truncated1"), b, new_b)

    def test_repair_refuses_out_of_range_codes(self, rng):
        b = _all_magnitudes(rng, 10, 4)
        plan = build_plan(b, get_multiplier("truncated4"))
        h_before = plan.big_h.copy()
        new_b = b.copy()
        new_b[2, 2] = -8  # bit 3 has no plane
        assert not repair_plan(plan, b, new_b)
        np.testing.assert_array_equal(plan.big_h, h_before)

    def test_builds_are_counted_by_kind(self, rng, profiled):
        b = _all_magnitudes(rng, 12, 4)
        with profiled() as rows:
            build_plan(b, get_multiplier("truncated5"))
            build_plan(b, get_multiplier("evoapprox228"))
        assert rows["plan_cache.build"]["calls"] == 2
        assert rows["plan_cache.build_bitplane"]["calls"] == 1


class TestGatherVolume:
    """LUT gather volume per planned GEMM on a warm ResNet20 forward.

    Counts gathered LUT columns and elements, not time, so the gate holds
    on any hardware: a bit-plane plan gathers ``w_bits - 1`` columns per
    activation, an indicator plan one per active weight magnitude, and a
    planned conv gathers each padded activation once, not ``kh·kw`` times.
    """

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(0)
        model = quantize_model(resnet20(width_mult=0.25, rng=0))
        calibrate_model(model, [rng.normal(size=(8, 3, 16, 16)).astype(np.float32)])
        return model.eval()

    def _gathers_per_gemm(self, model, name, profiled, monkeypatch):
        attach_multiplier(model, get_multiplier(name))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 16, 16)).astype(np.float32))
        # Each padded activation gathered once: Σ N·C·Hp·Wp·V over the
        # convs, plus M·K·V for the linear head.
        bound = []
        execute_conv, execute = GemmPlan.execute_conv, GemmPlan.execute

        def conv_bound(plan, codes, kernel, stride, padding):
            n, c, h, w = codes.shape
            bound.append(n * c * (h + 2 * padding) * (w + 2 * padding) * plan.num_values)
            return execute_conv(plan, codes, kernel, stride, padding)

        def gemm_bound(plan, a):
            bound.append(a.size * plan.num_values)
            return execute(plan, a)

        with no_grad():
            model(x)  # builds every plan
            monkeypatch.setattr(GemmPlan, "execute_conv", conv_bound)
            monkeypatch.setattr(GemmPlan, "execute", gemm_bound)
            with profiled() as rows:
                model(x)
        assert rows["plan_cache.hit"]["calls"] == len(list(quant_layers(model)))
        plans = [
            entry[2].plan for layer in quant_layers(model)
            for entry in layer._plan_cache._entries.values()
        ]
        ratio = rows["approx.lut_gathered_values"]["calls"] / rows["approx.lut_gather"]["calls"]
        assert len(bound) == len(plans)
        assert rows["approx.lut_gathered_elems"]["calls"] <= sum(bound)
        return ratio, plans

    def test_no_im2col_under_no_grad(self, model, profiled):
        attach_multiplier(model, get_multiplier("truncated5"))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3, 16, 16)).astype(np.float32))
        with no_grad():
            model(x)
            with profiled() as rows:
                model(x)
        assert "autograd.im2col" not in rows

    def test_truncated_gathers_at_most_the_bit_planes(self, model, profiled, monkeypatch):
        ratio, plans = self._gathers_per_gemm(model, "truncated5", profiled, monkeypatch)
        assert ratio <= get_multiplier("truncated5").w_bits - 1
        assert all(plan.bitplane for plan in plans)

    def test_evoapprox_gathers_its_active_values(self, model, profiled, monkeypatch):
        ratio, plans = self._gathers_per_gemm(model, "evoapprox228", profiled, monkeypatch)
        assert not any(plan.bitplane for plan in plans)
        # a weighted mean of the plans' active-value counts (row-block
        # threading, when it fires, executes a plan once per block)
        values = [plan.num_values for plan in plans]
        assert min(values) <= ratio <= max(values)
        assert ratio > get_multiplier("evoapprox228").w_bits - 1
