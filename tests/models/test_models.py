"""Model zoo: shapes, parameter counts (paper Table I) and training modes."""

import numpy as np
import pytest

from repro.autograd import Tensor, softmax_cross_entropy
from repro.errors import ConfigError
from repro.models import (
    MODELS,
    MobileNetV2,
    SimpleCNN,
    TinyMLP,
    create_model,
    mobilenetv2,
    resnet20,
    resnet32,
    simplecnn,
)


def _forward(model, size=32, batch=2):
    x = Tensor(np.random.default_rng(0).normal(size=(batch, 3, size, size)).astype(np.float32))
    return model(x)


class TestParameterCounts:
    """Table I of the paper: 0.3M / 0.5M / 2.2M parameters."""

    def test_resnet20(self):
        assert resnet20(rng=0).num_parameters() == pytest.approx(0.3e6, rel=0.15)

    def test_resnet32(self):
        assert resnet32(rng=0).num_parameters() == pytest.approx(0.5e6, rel=0.1)

    def test_mobilenetv2(self):
        assert mobilenetv2(rng=0).num_parameters() == pytest.approx(2.2e6, rel=0.05)


class TestForwardShapes:
    def test_resnet20_output(self):
        model = resnet20(width_mult=0.25, rng=0)
        assert _forward(model, 32).shape == (2, 10)

    def test_resnet32_output(self):
        model = resnet32(width_mult=0.25, rng=0)
        assert _forward(model, 32).shape == (2, 10)

    def test_mobilenetv2_output(self):
        model = mobilenetv2(width_mult=0.25, rng=0)
        assert _forward(model, 32).shape == (2, 10)

    def test_simplecnn_output(self):
        model = simplecnn(base_width=4, rng=0)
        assert _forward(model, 16).shape == (2, 10)

    def test_tinymlp_output(self):
        model = TinyMLP(3 * 8 * 8, hidden=16, rng=0)
        assert _forward(model, 8).shape == (2, 10)

    def test_custom_num_classes(self):
        model = resnet20(num_classes=4, width_mult=0.25, rng=0)
        assert _forward(model, 16).shape == (2, 4)

    def test_smaller_input_size(self):
        model = resnet20(width_mult=0.25, rng=0)
        assert _forward(model, 16).shape == (2, 10)


class TestWidthMultiplier:
    def test_reduces_parameters(self):
        full = resnet20(rng=0).num_parameters()
        quarter = resnet20(width_mult=0.25, rng=0).num_parameters()
        assert quarter < full / 8

    def test_mobilenet_width(self):
        full = mobilenetv2(rng=0).num_parameters()
        half = mobilenetv2(width_mult=0.5, rng=0).num_parameters()
        assert half < full / 2.5


class TestBackward:
    @pytest.mark.parametrize(
        "factory", [lambda: resnet20(width_mult=0.25, rng=0),
                    lambda: mobilenetv2(width_mult=0.25, rng=0),
                    lambda: simplecnn(base_width=4, rng=0)],
        ids=["resnet20", "mobilenetv2", "simplecnn"],
    )
    def test_all_parameters_receive_gradients(self, factory):
        model = factory()
        out = _forward(model, 16)
        loss = softmax_cross_entropy(out, np.array([0, 1]))
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing, f"parameters without gradient: {missing}"


class TestEvalMode:
    def test_eval_forward_is_deterministic(self):
        model = mobilenetv2(width_mult=0.25, rng=0)
        model.eval()
        a = _forward(model, 16).data
        b = _forward(model, 16).data
        np.testing.assert_allclose(a, b)


class TestRegistry:
    def test_known_names(self):
        for name in ["resnet20", "resnet32", "mobilenetv2", "simplecnn"]:
            assert name in MODELS

    def test_create_model(self):
        model = create_model("resnet20", width_mult=0.25, rng=0)
        assert model.num_parameters() > 0

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown model 'vgg16'"):
            create_model("vgg16")

    def test_case_insensitive(self):
        assert create_model("ResNet20", width_mult=0.25, rng=0) is not None
