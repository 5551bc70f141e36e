"""Quantized layer behaviour: calibration lifecycle, integer execution,
approximate multipliers and gradient estimation hooks."""

import importlib

import numpy as np
import pytest

from repro.approx import get_multiplier
from repro.autograd import Tensor, conv2d, linear
from repro.errors import MultiplierError, QuantizationError
from repro.ge import PiecewiseLinearErrorModel
from repro.quant import QConfig, QuantConv2d, QuantLinear, fake_quantize_np


@pytest.fixture
def qconv(rng):
    layer = QuantConv2d(3, 6, 3, stride=1, padding=1, qconfig=QConfig(), rng=rng)
    layer.act_step, layer.weight_step = 1 / 32, 1 / 8
    # Keep weights strictly inside the 4-bit representable range so the
    # clipped-STE mask stays fully open (tests compare against an unmasked
    # float reference).
    layer.weight.data = np.clip(layer.weight.data, -0.85, 0.85)
    return layer


@pytest.fixture
def qlin(rng):
    layer = QuantLinear(8, 4, qconfig=QConfig(), rng=rng)
    layer.act_step, layer.weight_step = 1 / 32, 1 / 8
    layer.weight.data = np.clip(layer.weight.data, -0.85, 0.85)
    return layer


def _x(rng, shape):
    return Tensor(rng.normal(size=shape).astype(np.float32))


class TestLifecycle:
    def test_uncalibrated_forward_raises(self, rng):
        layer = QuantConv2d(3, 4, 3)
        with pytest.raises(QuantizationError):
            layer(_x(rng, (1, 3, 8, 8)))

    def test_finalize_without_begin_raises(self):
        with pytest.raises(QuantizationError):
            QuantLinear(4, 2).finalize_calibration()

    def test_calibration_sets_steps(self, rng):
        layer = QuantConv2d(3, 4, 3, padding=1)
        layer.begin_calibration()
        layer(_x(rng, (2, 3, 8, 8)))
        layer.finalize_calibration()
        assert layer.is_calibrated
        assert layer.act_step > 0 and layer.weight_step > 0

    def test_calibration_steps_are_pow2(self, rng):
        layer = QuantLinear(8, 4)
        layer.begin_calibration()
        layer(_x(rng, (4, 8)))
        layer.finalize_calibration()
        for step in (layer.act_step, layer.weight_step):
            assert np.log2(step) == pytest.approx(round(np.log2(step)))

    def test_from_float_copies_parameters(self, rng):
        from repro.nn import Conv2d

        conv = Conv2d(3, 4, 3, rng=rng)
        q = QuantConv2d.from_float(conv)
        np.testing.assert_allclose(q.weight.data, conv.weight.data)
        np.testing.assert_allclose(q.bias.data, conv.bias.data)
        assert q.stride == conv.stride and q.padding == conv.padding

    def test_refresh_weight_step(self, rng):
        layer = QuantLinear(8, 4)
        layer.begin_calibration()
        layer(_x(rng, (4, 8)))
        layer.finalize_calibration()
        layer.weight.data = layer.weight.data * 16.0
        old = layer.weight_step
        layer.refresh_weight_step()
        assert layer.weight_step > old


class TestExactIntegerPath:
    def test_conv_matches_fake_quant_reference(self, qconv, rng):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = qconv(Tensor(x)).data
        xq = fake_quantize_np(x, qconv.act_step, 8)
        wq = fake_quantize_np(qconv.weight.data, qconv.weight_step, 4)
        ref = conv2d(Tensor(xq), Tensor(wq), qconv.bias, 1, 1, 1).data
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_linear_matches_fake_quant_reference(self, qlin, rng):
        x = rng.normal(size=(5, 8)).astype(np.float32)
        out = qlin(Tensor(x)).data
        xq = fake_quantize_np(x, qlin.act_step, 8)
        wq = fake_quantize_np(qlin.weight.data, qlin.weight_step, 4)
        ref = linear(Tensor(xq), Tensor(wq), qlin.bias).data
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_depthwise_matches_fake_quant_reference(self, rng):
        layer = QuantConv2d(4, 4, 3, padding=1, groups=4, bias=False)
        layer.act_step, layer.weight_step = 1 / 32, 1 / 8
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        out = layer(Tensor(x)).data
        xq = fake_quantize_np(x, layer.act_step, 8)
        wq = fake_quantize_np(layer.weight.data, layer.weight_step, 4)
        ref = conv2d(Tensor(xq), Tensor(wq), None, 1, 1, 4).data
        np.testing.assert_allclose(out, ref, atol=1e-4)

    def test_grouped_matches_fake_quant_reference(self, rng):
        layer = QuantConv2d(4, 6, 3, padding=0, groups=2, bias=False)
        layer.act_step, layer.weight_step = 1 / 32, 1 / 8
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        out = layer(Tensor(x)).data
        xq = fake_quantize_np(x, layer.act_step, 8)
        wq = fake_quantize_np(layer.weight.data, layer.weight_step, 4)
        ref = conv2d(Tensor(xq), Tensor(wq), None, 1, 0, 2).data
        np.testing.assert_allclose(out, ref, atol=1e-4)

    @pytest.mark.parametrize("mult", ["exact", "truncated5", "evoapprox228"])
    def test_grouped_equals_per_group_dense_layers(self, rng, mult):
        # A grouped layer runs as the dense conv of its block-diagonal
        # weights; every product off the blocks is an exact zero.
        layer = QuantConv2d(4, 6, 3, stride=2, padding=1, groups=2, rng=rng)
        layer.act_step = 1 / 32
        layer.weight_step = np.array([1 / 8, 1 / 16, 1 / 8, 1 / 16, 1 / 8, 1 / 16], np.float32)
        layer.bias.data = rng.normal(size=6).astype(np.float32)
        layer.set_multiplier(mult)
        x = Tensor(rng.normal(size=(2, 4, 7, 7)).astype(np.float32), requires_grad=True)
        g = rng.normal(size=(2, 6, 4, 4)).astype(np.float32)
        out = layer(x)
        out.backward(g)
        parts = []
        for i in range(2):
            dense = QuantConv2d(2, 3, 3, stride=2, padding=1)
            dense.act_step = layer.act_step
            dense.weight_step = layer.weight_step[3 * i : 3 * i + 3]
            dense.weight.data = layer.weight.data[3 * i : 3 * i + 3]
            dense.bias.data = layer.bias.data[3 * i : 3 * i + 3]
            dense.set_multiplier(mult)
            xi = Tensor(x.data[:, 2 * i : 2 * i + 2], requires_grad=True)
            yi = dense(xi)
            yi.backward(g[:, 3 * i : 3 * i + 3])
            parts.append((yi.data, xi.grad, dense.weight.grad))
        ys, gxs, gws = (np.concatenate(p, axis=a) for p, a in zip(zip(*parts), (1, 1, 0)))
        np.testing.assert_array_equal(out.data, ys)
        np.testing.assert_allclose(x.grad, gxs, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(layer.weight.grad, gws, rtol=1e-6, atol=1e-7)


class TestApproximatePath:
    def test_exact_multiplier_equals_plain_integer(self, qconv, rng):
        x = _x(rng, (2, 3, 8, 8))
        ref = qconv(x).data
        qconv.set_multiplier(get_multiplier("exact"))
        np.testing.assert_allclose(qconv(x).data, ref, atol=1e-6)

    def test_truncated_output_differs_and_is_biased_low(self, qconv, rng):
        x = _x(rng, (2, 3, 8, 8))
        ref = qconv(x).data
        qconv.set_multiplier(get_multiplier("truncated5"))
        approx = qconv(x).data
        assert not np.allclose(approx, ref)

    def test_depthwise_approximate(self, rng):
        layer = QuantConv2d(4, 4, 3, padding=1, groups=4, bias=False)
        layer.act_step, layer.weight_step = 1 / 32, 1 / 8
        x = _x(rng, (2, 4, 6, 6))
        exact = layer(x).data
        layer.set_multiplier(get_multiplier("truncated4"))
        approx = layer(x).data
        assert approx.shape == exact.shape
        assert not np.allclose(approx, exact)

    def test_set_multiplier_none_restores_exact(self, qconv, rng):
        x = _x(rng, (1, 3, 8, 8))
        ref = qconv(x).data
        qconv.set_multiplier(get_multiplier("truncated5"))
        qconv.set_multiplier(None)
        np.testing.assert_allclose(qconv(x).data, ref)

    def test_set_multiplier_by_name(self, qconv, rng):
        x = _x(rng, (1, 3, 8, 8))
        qconv.set_multiplier(get_multiplier("truncated5"))
        ref = qconv(x).data
        qconv.set_multiplier("truncated5")
        assert qconv.multiplier is get_multiplier("truncated5")
        np.testing.assert_array_equal(qconv(x).data, ref)

    @pytest.mark.parametrize("bad", [5, 2.5, object()])
    def test_set_multiplier_rejects_non_multiplier(self, qconv, bad):
        with pytest.raises(MultiplierError):
            qconv.set_multiplier(bad)


class TestGradients:
    def test_ste_gradients_flow(self, qconv, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        out = qconv(x)
        out.sum().backward()
        assert x.grad is not None
        assert qconv.weight.grad is not None
        assert qconv.bias.grad is not None

    def test_ste_conv_gradient_matches_fake_quant_weight_grad(self, qconv, rng):
        """With STE, grad wrt W equals the float-conv grad on fq operands."""
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = qconv(Tensor(x))
        out.sum().backward()
        ste_grad = qconv.weight.grad.copy()

        xq = Tensor(fake_quantize_np(x, qconv.act_step, 8))
        w_float = Tensor(
            fake_quantize_np(qconv.weight.data, qconv.weight_step, 4), requires_grad=True
        )
        ref = conv2d(xq, w_float, None, 1, 1, 1)
        ref.sum().backward()
        np.testing.assert_allclose(ste_grad, w_float.grad, rtol=1e-4, atol=1e-4)

    def test_ge_scales_gradients(self, qlin, rng):
        """A non-constant error model must change gradient magnitudes."""
        x = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
        mult = get_multiplier("truncated5")

        qlin.set_multiplier(mult, None)
        qlin.weight.zero_grad()
        qlin(x).sum().backward()
        ste_grad = qlin.weight.grad.copy()

        em = PiecewiseLinearErrorModel(k=-0.5, c=0.0, lower=-1e9, upper=1e9)
        qlin.set_multiplier(mult, em)
        qlin.weight.zero_grad()
        qlin(x).sum().backward()
        ge_grad = qlin.weight.grad.copy()
        np.testing.assert_allclose(ge_grad, 0.5 * ste_grad, rtol=1e-4, atol=1e-6)

    def test_constant_error_model_equals_ste(self, qlin, rng):
        """Paper: ∂f/∂y = 0 makes GE identical to the plain STE."""
        x = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
        mult = get_multiplier("evoapprox228")
        qlin.set_multiplier(mult, None)
        qlin.weight.zero_grad()
        qlin(x).sum().backward()
        ste_grad = qlin.weight.grad.copy()

        em = PiecewiseLinearErrorModel(k=0.0, c=5.0, lower=-10.0, upper=10.0)
        qlin.set_multiplier(mult, em)
        qlin.weight.zero_grad()
        qlin(x).sum().backward()
        np.testing.assert_allclose(qlin.weight.grad, ste_grad)

    def test_input_gradient_nobody_reads_is_skipped(self, qconv, rng, monkeypatch):
        """A stem conv's input does not require grad: neither the quantized
        nor the float conv computes its input gradient, and the weight
        gradients are unchanged."""
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)

        def weight_grads(requires_grad):
            qconv.weight.zero_grad()
            w = Tensor(qconv.weight.data.copy(), requires_grad=True)
            qconv(Tensor(x, requires_grad=requires_grad)).sum().backward()
            conv2d(Tensor(x, requires_grad=requires_grad), w, None, 1, 1).sum().backward()
            return qconv.weight.grad.tobytes(), w.grad.tobytes()

        expected = weight_grads(True)

        def refuse(*args, **kwargs):
            raise AssertionError("computed an input gradient nobody reads")

        monkeypatch.setattr("repro.quant.qfunction.conv_input_grad", refuse)
        monkeypatch.setattr("repro.autograd.ops_matmul.conv_input_grad", refuse)
        # The package re-exports im2col under the module's own name.
        monkeypatch.setattr(importlib.import_module("repro.autograd.im2col"), "col2im", refuse)
        assert weight_grads(False) == expected

    def test_clipped_ste_blocks_out_of_range_activations(self, qlin):
        x = Tensor(np.full((1, 8), 100.0, dtype=np.float32), requires_grad=True)
        qlin(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros_like(x.data))


class TestOutputCollector:
    def test_collects_in_training_mode(self, qlin, rng):
        collector = []
        qlin.output_collector = collector
        qlin.train()
        qlin(_x(rng, (2, 8)))
        assert len(collector) == 1
        out, inv_step = collector[0]
        assert out.shape == (2, 4)
        assert inv_step == pytest.approx(1.0 / (qlin.act_step * qlin.weight_step))

    def test_not_collected_in_eval_mode(self, qlin, rng):
        collector = []
        qlin.output_collector = collector
        qlin.eval()
        qlin(_x(rng, (2, 8)))
        assert collector == []
