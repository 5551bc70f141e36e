"""The paper's step-decay LR schedule."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import Parameter
from repro.train import SGD, StepDecay


class TestStepDecay:
    def test_paper_schedule(self):
        """Paper: decay 0.1 every 15 epochs."""
        sched = StepDecay(1e-4, decay=0.1, every=15)
        assert sched.lr_at(0) == pytest.approx(1e-4)
        assert sched.lr_at(14) == pytest.approx(1e-4)
        assert sched.lr_at(15) == pytest.approx(1e-5)
        assert sched.lr_at(29) == pytest.approx(1e-5)

    def test_apply_updates_optimizer(self):
        opt = SGD([Parameter(np.ones(1))], lr=1.0)
        StepDecay(0.5, 0.1, 2).apply(opt, epoch=2)
        assert opt.lr == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ConfigError):
            StepDecay(-1.0)
        with pytest.raises(ConfigError):
            StepDecay(1.0, decay=0.0)
        with pytest.raises(ConfigError):
            StepDecay(1.0, every=0)
