"""Layer behaviour: Linear, Conv2d, BatchNorm2d, activations, pooling."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ShapeError
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
    Sequential,
)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 4, rng=rng)
        assert layer(Tensor(np.zeros((3, 8), dtype=np.float32))).shape == (3, 4)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 8

    def test_deterministic_init_with_seed(self):
        a, b = Linear(4, 2, rng=42), Linear(4, 2, rng=42)
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestConv2d:
    def test_output_shape(self, rng):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_depthwise_param_count(self):
        conv = Conv2d(8, 8, 3, groups=8, bias=False)
        assert conv.num_parameters() == 8 * 9

    def test_rejects_bad_groups(self):
        with pytest.raises(ShapeError):
            Conv2d(3, 4, 3, groups=2)


class TestBatchNorm2d:
    def test_training_normalises_batch(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)).astype(np.float32))
        out = bn(x)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-4)
        np.testing.assert_allclose(std, np.ones(4), atol=1e-2)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)).astype(np.float32))
        bn(x)
        assert bn.running_mean.mean() > 1.0  # moved toward the batch mean of 5

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        bn.set_buffer("running_mean", np.array([1.0, 2.0], dtype=np.float32))
        bn.set_buffer("running_var", np.array([4.0, 9.0], dtype=np.float32))
        bn.eval()
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out[0, 0], (1 - 1) / 2, atol=1e-3)
        np.testing.assert_allclose(out[0, 1], (1 - 2) / 3, atol=1e-3)

    def test_gradients_flow_to_affine_params(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(4, 3, 4, 4)).astype(np.float32))
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestContainers:
    def test_sequential_applies_in_order(self):
        seq = Sequential(Identity(), ReLU())
        out = seq(Tensor(np.array([-1.0, 2.0], dtype=np.float32)))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_sequential_len_getitem_iter(self):
        seq = Sequential(ReLU(), ReLU6())
        assert len(seq) == 2
        assert isinstance(seq[1], ReLU6)
        assert len(list(iter(seq))) == 2

    def test_sequential_append(self):
        seq = Sequential(ReLU())
        seq.append(Identity())
        assert len(seq) == 2

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4), dtype=np.float32)))
        assert out.shape == (2, 12)


class TestPoolingLayers:
    def test_shapes(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        assert AvgPool2d(2)(x).shape == (2, 3, 4, 4)
        assert MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert GlobalAvgPool()(x).shape == (2, 3)
