"""MAC counting (paper Table I)."""

import pickle

import numpy as np
import pytest

from repro.models import mobilenetv2, resnet20, resnet32, simplecnn
from repro.nn import Conv2d, Linear, Sequential
from repro.quant import QConfig, QuantConv2d, QuantLinear, quantize_model
from repro.quant.observer import OBSERVERS
from repro.sim import count_macs


class TestLayerFormulas:
    def test_single_conv(self):
        model = Sequential(Conv2d(3, 8, 3, stride=1, padding=1))
        report = count_macs(model, (3, 16, 16))
        assert report.total_macs == 16 * 16 * 8 * 3 * 9

    def test_strided_conv(self):
        model = Sequential(Conv2d(3, 4, 3, stride=2, padding=1))
        report = count_macs(model, (3, 16, 16))
        assert report.total_macs == 8 * 8 * 4 * 3 * 9

    def test_depthwise_conv(self):
        model = Sequential(Conv2d(8, 8, 3, padding=1, groups=8))
        report = count_macs(model, (8, 10, 10))
        assert report.total_macs == 10 * 10 * 8 * 1 * 9

    def test_linear(self):
        class Head(Sequential):
            def forward(self, x):
                from repro.autograd import flatten

                return self[0](flatten(x))

        model = Head(Linear(48, 10))
        report = count_macs(model, (3, 4, 4))
        assert report.total_macs == 480

    def test_params_included(self):
        model = Sequential(Conv2d(3, 4, 3, bias=False))
        assert count_macs(model, (3, 8, 8)).params == 4 * 3 * 9


class TestTableI:
    """The paper's Table I: #MACs for the three evaluated CNNs at 32x32."""

    def test_resnet20(self):
        assert count_macs(resnet20(rng=0), (3, 32, 32)).total_macs == pytest.approx(
            0.041e9, rel=0.05
        )

    def test_resnet32(self):
        assert count_macs(resnet32(rng=0), (3, 32, 32)).total_macs == pytest.approx(
            0.069e9, rel=0.05
        )

    def test_mobilenetv2(self):
        assert count_macs(mobilenetv2(rng=0), (3, 32, 32)).total_macs == pytest.approx(
            0.296e9, rel=0.05
        )


class TestQuantizedModels:
    def test_quantized_model_counts_like_float(self):
        fp_macs = count_macs(simplecnn(base_width=4, rng=0), (3, 16, 16)).total_macs
        qmodel = quantize_model(simplecnn(base_width=4, rng=0))
        q_macs = count_macs(qmodel, (3, 16, 16)).total_macs
        assert q_macs == fp_macs

    def test_probe_does_not_break_calibrated_model(self, quantized_model, tiny_dataset):
        from repro.distill import clone_model
        from repro.sim import evaluate_accuracy

        model = clone_model(quantized_model)
        before = evaluate_accuracy(model, tiny_dataset.test_x[:50], tiny_dataset.test_y[:50])
        count_macs(model, tiny_dataset.image_shape)
        after = evaluate_accuracy(model, tiny_dataset.test_x[:50], tiny_dataset.test_y[:50])
        assert before == after

    def test_forward_patch_restored_after_probe(self):
        model = simplecnn(base_width=4, rng=0)
        count_macs(model, (3, 16, 16))
        # A second probe must not double-count through stale patches.
        a = count_macs(model, (3, 16, 16)).total_macs
        b = count_macs(model, (3, 16, 16)).total_macs
        assert a == b

    @pytest.mark.parametrize("activation_observer", sorted(OBSERVERS))
    def test_probe_leaves_observers_untouched(self, activation_observer):
        fp_macs = count_macs(simplecnn(base_width=4, rng=0), (3, 16, 16)).total_macs
        qconfig = QConfig(activation_observer=activation_observer)
        qmodel = quantize_model(simplecnn(base_width=4, rng=0), qconfig)
        layers = [m for m in qmodel.modules() if isinstance(m, (QuantConv2d, QuantLinear))]

        def observer_state():
            return [pickle.dumps((m._act_observer, m._weight_observer)) for m in layers]

        before = observer_state()
        assert count_macs(qmodel, (3, 16, 16)).total_macs == fp_macs
        assert observer_state() == before
        assert not any(m.calibrating for m in layers)
