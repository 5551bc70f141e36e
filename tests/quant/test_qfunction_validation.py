"""Input validation of the quantized GEMM Functions."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import MultiplierError, QuantizationError, ShapeError
from repro.nn import Conv2d
from repro.quant import QConfig, QuantConv2d
from repro.quant.qfunction import (
    QuantConv2dFunction,
    QuantLinearFunction,
    _weight_step_per_channel,
)


class TestQuantLinearValidation:
    def test_rejects_non_2d_input(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        with pytest.raises(ShapeError):
            QuantLinearFunction.apply(x, w, None, 1 / 32, 1 / 8, 8, 4)

    @pytest.mark.parametrize(
        "x_shape, w_shape",
        [((2, 4), (4,)), ((2, 4), (5, 4, 1)), ((2, 4), (5, 3)), ((2, 4), (4, 5))],
        ids=["1d-weight", "3d-weight", "fewer-in-features", "transposed-weight"],
    )
    def test_rejects_bad_weight(self, rng, x_shape, w_shape):
        x = Tensor(rng.normal(size=x_shape).astype(np.float32))
        w = Tensor(rng.normal(size=w_shape).astype(np.float32))
        with pytest.raises(ShapeError):
            QuantLinearFunction.apply(x, w, None, 1 / 32, 1 / 8, 8, 4)


class TestQuantConvValidation:
    def test_depthwise_codes_wider_than_the_lut_raise(self, rng):
        # 8-bit weight codes cannot index truncated5's 4-bit weight axis;
        # the dense kernel rejects them the same way.
        qconfig = QConfig(weight_bits=8)
        layer = QuantConv2d(4, 4, 3, padding=1, groups=4, qconfig=qconfig, rng=rng)
        layer.act_step, layer.weight_step = 0.1, 1 / 64
        layer.set_multiplier("truncated5")
        with pytest.raises(MultiplierError):
            layer(Tensor(rng.normal(size=(1, 4, 5, 5)).astype(np.float32)))

    def test_rejects_inconsistent_groups(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 4, 3, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            QuantConv2dFunction.apply(x, w, None, 1, 1, 2, 1 / 32, 1 / 8, 8, 4)

    def test_rejects_channel_mismatch(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32))
        with pytest.raises(ShapeError):
            QuantConv2dFunction.apply(x, w, None, 1, 1, 1, 1 / 32, 1 / 8, 8, 4)

    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, padding, groups",
        [
            ((1, 4, 6, 6), (4, 4, 3, 3), 0, 1, 1),
            ((1, 4, 6, 6), (4, 4, 3, 3), -1, 1, 1),
            ((1, 4, 6, 6), (4, 4, 3, 3), 1, -1, 1),
            ((1, 4, 6, 6), (4, 4, 3, 3), 1, 1, 0),
            ((1, 4, 6, 6), (4, 4, 3, 3), 1, 1, -2),
            ((4, 6, 6), (4, 4, 3, 3), 1, 1, 1),
            ((1, 4, 6, 6), (4, 4, 3), 1, 1, 1),
        ],
        ids=["stride0", "stride-neg", "padding-neg", "groups0", "groups-neg", "3d-x", "3d-w"],
    )
    def test_rejects_bad_geometry(self, rng, x_shape, w_shape, stride, padding, groups):
        x = Tensor(rng.normal(size=x_shape).astype(np.float32))
        w = Tensor(rng.normal(size=w_shape).astype(np.float32))
        with pytest.raises(ShapeError):
            QuantConv2dFunction.apply(
                x, w, None, stride, padding, groups, 1 / 32, 1 / 8, 8, 4
            )

    @pytest.mark.parametrize("layer", [Conv2d, QuantConv2d])
    @pytest.mark.parametrize("groups", [0, -1, 3])
    def test_constructors_reject_bad_groups(self, layer, groups):
        with pytest.raises(ShapeError):
            layer(4, 4, 3, groups=groups)


class TestPerChannelStepValidation:
    def test_scalar_broadcasts(self):
        steps = _weight_step_per_channel(0.125, 4)
        np.testing.assert_allclose(steps, np.full(4, 0.125))

    def test_vector_passthrough(self):
        vec = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        np.testing.assert_allclose(_weight_step_per_channel(vec, 3), vec)

    def test_wrong_length_rejected(self):
        with pytest.raises(QuantizationError):
            _weight_step_per_channel(np.ones(5, dtype=np.float32), 3)
