"""Initialisation schemes."""

import numpy as np
import pytest

from repro.nn import init


class TestKaiming:
    def test_conv_std(self):
        w = init.kaiming_normal((64, 32, 3, 3), rng=0)
        expected = np.sqrt(2.0 / (32 * 9))
        assert w.std() == pytest.approx(expected, rel=0.1)

    def test_linear_std(self):
        w = init.kaiming_normal((128, 256), rng=0)
        expected = np.sqrt(2.0 / 256)
        assert w.std() == pytest.approx(expected, rel=0.1)

    def test_dtype_float32(self):
        assert init.kaiming_normal((4, 4), rng=0).dtype == np.float32

    def test_rejects_odd_shapes(self):
        with pytest.raises(ValueError):
            init.kaiming_normal((3,))


class TestConstant:
    def test_zeros_ones(self):
        z = init.zeros((3,))
        assert z.sum() == 0.0 and z.dtype == np.float32
