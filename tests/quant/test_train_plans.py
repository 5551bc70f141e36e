"""Training-path plan caching: N-step bitwise equivalence and revalidation.

The training loop reuses weight-derived kernel state across optimizer
steps: a plan is kept when the weight codes did not change and repaired
in place when a few did. Both are an *optimization only*: training with
the cached path and under ``plan_cache_disabled()`` (the uncached
reference) must produce bitwise-identical weights and logits at every
step.
"""

import copy
import functools
import importlib
import sys

import numpy as np
import pytest

from repro.approx import build_plan, get_multiplier, plan_cache_disabled
from repro.approx.plan import conv_plan_operand
from repro.autograd import Tensor, col2im, im2col
from repro.ge import PiecewiseLinearErrorModel
from repro.quant import QuantConv2d, QuantLinear
from repro.quant.qfunction import _gradient_scale, _quantize_codes
from repro.train import SGD

MULT = get_multiplier("truncated3")
# Non-constant slope so gradient estimation runs its exact GEMM too.
GE_MODEL = PiecewiseLinearErrorModel(0.05, 0.0, -4.0, 4.0)


def _build_mlp(error_model=GE_MODEL):
    rng = np.random.default_rng(7)
    layers = []
    for din, dout in ((12, 24), (24, 5)):
        layer = QuantLinear(din, dout, rng=rng)
        layer.act_step, layer.weight_step = 1 / 16, 1 / 8
        layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
        layer.set_multiplier(MULT, error_model)
        layers.append(layer)
    return layers


def _build_conv(groups=1, error_model=None):
    rng = np.random.default_rng(8)
    layers = [
        QuantConv2d(3, 6, 3, padding=1, rng=rng),
        QuantConv2d(6, 6, 3, stride=2, padding=1, groups=groups, rng=rng),
    ]
    for layer in layers:
        layer.act_step, layer.weight_step = 1 / 16, 1 / 8
        layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
        layer.set_multiplier(MULT, error_model)
    return layers


def _train(build, xs, gs, lr=0.05, mutate=None):
    """Train fresh layers on fixed batches; returns per-step weight/logit history."""
    layers = build()
    opt = SGD([p for layer in layers for p in layer.parameters()], lr=lr)
    history = []
    for step, (xb, gb) in enumerate(zip(xs, gs)):
        if mutate is not None:
            mutate(step, layers)
        opt.zero_grad()
        h = Tensor(xb)
        for layer in layers:
            h = layer(h)
        h.backward(gb)
        opt.step()
        history.append(
            ([layer.weight.data.copy() for layer in layers], h.data.copy())
        )
    return history


def _assert_histories_identical(reference, other, label):
    assert len(reference) == len(other)
    for step, ((ws_ref, y_ref), (ws, y)) in enumerate(zip(reference, other)):
        for w_ref, w in zip(ws_ref, ws):
            np.testing.assert_array_equal(
                w_ref, w, err_msg=f"{label}: weights diverged at step {step}"
            )
        np.testing.assert_array_equal(
            y_ref, y, err_msg=f"{label}: logits diverged at step {step}"
        )


def _batches(rng, steps, x_shape, g_shape, g_scale=1e-2):
    xs = [rng.normal(size=x_shape).astype(np.float32) for _ in range(steps)]
    gs = [(rng.normal(size=g_shape) * g_scale).astype(np.float32) for _ in range(steps)]
    return xs, gs


class TestTrainingBitwiseEquivalence:
    def test_linear_training_identical_across_cache_modes(self, rng):
        xs, gs = _batches(rng, 5, (6, 12), (6, 5))
        with plan_cache_disabled():
            reference = _train(_build_mlp, xs, gs)
        _assert_histories_identical(reference, _train(_build_mlp, xs, gs), "cached")

    @pytest.mark.parametrize("groups", [1, 2])
    def test_conv_training_identical_across_cache_modes(self, rng, groups):
        xs, gs = _batches(rng, 4, (3, 3, 8, 8), (3, 6, 4, 4))
        build = functools.partial(_build_conv, groups)
        with plan_cache_disabled():
            reference = _train(build, xs, gs)
        _assert_histories_identical(reference, _train(build, xs, gs), "cached")

    def test_refresh_weight_step_mid_run_stays_identical(self, rng):
        xs, gs = _batches(rng, 4, (6, 12), (6, 5))

        def mutate(step, layers):
            if step == 2:
                for layer in layers:
                    layer.refresh_weight_step()

        with plan_cache_disabled():
            reference = _train(_build_mlp, xs, gs, mutate=mutate)
        cached = _train(_build_mlp, xs, gs, mutate=mutate)
        _assert_histories_identical(reference, cached, "refresh_weight_step")

    def test_load_state_dict_mid_run_stays_identical(self, rng):
        xs, gs = _batches(rng, 4, (6, 12), (6, 5))
        donor_states = [layer.state_dict() for layer in _build_mlp()]

        def mutate(step, layers):
            if step == 2:
                for layer, state in zip(layers, donor_states):
                    layer.load_state_dict(state)

        def build():
            rng2 = np.random.default_rng(99)
            layers = []
            for din, dout in ((12, 24), (24, 5)):
                layer = QuantLinear(din, dout, rng=rng2)
                layer.act_step, layer.weight_step = 1 / 16, 1 / 8
                layer.set_multiplier(MULT, GE_MODEL)
                layers.append(layer)
            return layers

        with plan_cache_disabled():
            reference = _train(build, xs, gs, mutate=mutate)
        cached = _train(build, xs, gs, mutate=mutate)
        _assert_histories_identical(reference, cached, "load_state_dict")

    def test_large_lr_code_churn_stays_identical(self, rng):
        # lr large enough that many 4-bit codes flip every step, forcing
        # the repair / full-rebuild paths rather than pure revalidation.
        xs, gs = _batches(rng, 4, (6, 12), (6, 5), g_scale=1.0)
        with plan_cache_disabled():
            reference = _train(_build_mlp, xs, gs, lr=0.5)
        cached = _train(_build_mlp, xs, gs, lr=0.5)
        _assert_histories_identical(reference, cached, "large-lr")


class TestNoIntegerIm2col:
    """Quantized training unfolds its codes once, as floats, never via im2col."""

    @pytest.mark.parametrize(
        "build, x_shape, g_shape",
        [
            (_build_mlp, (6, 12), (6, 5)),
            (functools.partial(_build_conv, 1, GE_MODEL), (3, 3, 8, 8), (3, 6, 4, 4)),
        ],
        ids=["linear", "conv"],
    )
    def test_ge_training_step_runs_without_im2col(
        self, rng, monkeypatch, build, x_shape, g_shape
    ):
        original = importlib.import_module("repro.autograd.im2col").im2col

        def refuse(*args, **kwargs):
            raise AssertionError("im2col ran in a quantized training step")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        xs, gs = _batches(rng, 2, x_shape, g_shape)
        with plan_cache_disabled():
            reference = _train(build, xs, gs)
        _assert_histories_identical(reference, _train(build, xs, gs), "cached")

    @pytest.mark.parametrize("name", [None, "truncated5"])
    def test_gradients_match_im2col_to_rtol(self, rng, name):
        # The backward reads float (kh, kw, c) columns, rescales grad_w
        # after its GEMM and computes grad_x as a transposed convolution,
        # so both sum in another order than the im2col formulas: they
        # agree to float32 rounding, not bit for bit. Cached and uncached
        # training share this backward (TestTrainingBitwiseEquivalence).
        oc = 48
        layer = QuantConv2d(8, oc, 3, padding=1, rng=np.random.default_rng(4))
        layer.act_step, layer.weight_step = 1 / 16, 1 / 8
        if name is not None:
            layer.set_multiplier(get_multiplier(name), GE_MODEL)
        x = Tensor(rng.normal(size=(4, 8, 6, 6)).astype(np.float32), requires_grad=True)
        out = layer(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        out.backward(g)

        xq, x_mask = _quantize_codes(x.data, 1 / 16, 8)
        wq, w_mask = _quantize_codes(layer.weight.data, 1 / 8, 4)
        cols, _ = im2col(xq, (3, 3), 1, 1)
        y_exact = cols.astype(np.int64) @ wq.reshape(oc, -1).T.astype(np.int64)
        scale = _gradient_scale(layer.error_model, y_exact)
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, oc) * scale
        x_fq = cols.astype(np.float32) * np.float32(1 / 16)
        w_fq = wq.reshape(oc, -1).astype(np.float32) * np.float32(1 / 8)
        grad_w = (g2.T @ x_fq).reshape(wq.shape) * w_mask
        grad_x = col2im(g2 @ w_fq, x.shape, (3, 3), 1, 1) * x_mask
        for actual, expected in ((layer.weight.grad, grad_w), (x.grad, grad_x)):
            atol = 1e-6 * np.abs(expected).max()  # sums that cancel to near zero
            np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=atol)


class TestRevalidation:
    def test_unchanged_codes_revalidate_without_rebuilding(self, rng, profiled):
        # A vanishingly small learning rate bumps every Parameter version
        # without moving any weight across a 4-bit rounding boundary: the
        # codes are unchanged, so after the first build the plan must be
        # revalidated, never rebuilt.
        xs, gs = _batches(rng, 4, (6, 12), (6, 5))
        with profiled() as rows:
            _train(_build_mlp, xs, gs, lr=1e-12)
        assert rows["plan_cache.build"]["calls"] == 2  # one per layer
        assert rows["plan_cache.revalidate"]["calls"] == 6
        assert "plan_cache.repair" not in rows

    def test_sparse_code_drift_repairs_in_place(self, rng, profiled):
        # Flip exactly one weight to a magnitude the plan already knows:
        # the plan must be repaired in place, not rebuilt.
        layers = _build_mlp(error_model=None)
        layer = layers[0]
        x = rng.normal(size=(6, 12)).astype(np.float32)
        with profiled() as rows:
            layer(Tensor(x))
            new_w = layer.weight.data.copy()
            # sign-flip the largest weight: its 4-bit code is certainly
            # nonzero, and the flipped magnitude is one the plan knows
            idx = np.unravel_index(np.argmax(np.abs(new_w)), new_w.shape)
            new_w[idx] = -new_w[idx]
            layer.weight.data = new_w  # rebind bumps the version
            repaired_out = layer(Tensor(x)).data
        assert rows["plan_cache.build"]["calls"] == 1
        assert rows["plan_cache.repair"]["calls"] == 1
        layer._plan_cache.clear()
        with plan_cache_disabled():
            np.testing.assert_array_equal(repaired_out, layer(Tensor(x)).data)

    def test_conv_code_flips_repair_in_the_plan_layout(self, rng, profiled):
        # An SGD step flips conv weight codes: the plan is repaired in its
        # (kh, kw, c) row layout, and forward, both gradients and the GE
        # scale stay bitwise equal to the uncached reference.
        layer = QuantConv2d(3, 5, 3, padding=1, rng=np.random.default_rng(3))
        layer.act_step, layer.weight_step = 1 / 16, 1 / 8
        layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
        layer.set_multiplier(MULT, GE_MODEL)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        g = rng.normal(size=(2, 5, 6, 6)).astype(np.float32)
        opt = SGD(layer.parameters(), lr=0.05)
        with profiled() as rows:
            layer(Tensor(x)).backward(g)
            codes_before = layer._plan_cache._entries["conv"][2].wq.copy()
            opt.step()
            opt.zero_grad()
            xt = Tensor(x, requires_grad=True)
            out = layer(xt)
            out.backward(g)
        state = layer._plan_cache._entries["conv"][2]
        assert (state.wq != codes_before).any()
        assert rows["plan_cache.build"]["calls"] == 1
        assert rows["plan_cache.repair"]["calls"] == 1
        assert state.plan.bitplane
        fresh = build_plan(np.ascontiguousarray(conv_plan_operand(state.wq)), MULT)
        np.testing.assert_array_equal(state.plan.big_h, fresh.big_h)

        reference = copy.deepcopy(layer)  # a clone starts with an empty plan cache
        reference.weight.zero_grad()
        with plan_cache_disabled():
            xr = Tensor(x, requires_grad=True)
            ref_out = reference(xr)
            ref_out.backward(g)
        np.testing.assert_array_equal(out.data, ref_out.data)
        np.testing.assert_array_equal(xt.grad, xr.grad)
        np.testing.assert_array_equal(layer.weight.grad, reference.weight.grad)
        assert np.ndim(out.creator.scale) == 4  # GE ran its exact GEMM (NHWC scales)
        np.testing.assert_array_equal(out.creator.scale, ref_out.creator.scale)

    def test_plan_cache_disabled_keeps_no_training_state(self, rng, profiled):
        # The reference path stores, revalidates and repairs no plan. The
        # cached path does all three on the same batches: the large lr flips
        # codes, so plans get repaired.
        xs, gs = _batches(rng, 3, (2, 3, 8, 8), (2, 6, 4, 4), g_scale=1.0)

        def run():
            layers = _build_conv()
            opt = SGD([p for layer in layers for p in layer.parameters()], lr=0.5)
            with profiled() as rows:
                for xb, gb in zip(xs, gs):
                    opt.zero_grad()
                    h = Tensor(xb)
                    for layer in layers:
                        h = layer(h)
                    h.backward(gb)
                    opt.step()
            return rows, [len(layer._plan_cache) for layer in layers]

        with plan_cache_disabled():
            rows, stored = run()
        assert "plan_cache.repair" not in rows
        assert "plan_cache.revalidate" not in rows
        assert rows["plan_cache.bypass"]["calls"] == 2 * len(xs)
        assert stored == [0, 0]

        rows, stored = run()
        assert rows["plan_cache.repair"]["calls"] >= 1
        assert rows["plan_cache.revalidate"]["calls"] >= 1
        assert "plan_cache.bypass" not in rows
        assert stored == [1, 1]
