"""Learning-rate schedules.

The paper fine-tunes with an initial rate in {1e-4, 1e-5} decayed by 0.1
every 15 epochs; :class:`StepDecay` reproduces that schedule.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.train.optim import Optimizer


class LRSchedule:
    """Base schedule mapping epoch index to a learning rate."""

    def __init__(self, initial_lr: float):
        if initial_lr <= 0:
            raise ConfigError(f"initial_lr must be positive, got {initial_lr}")
        self.initial_lr = float(initial_lr)

    def lr_at(self, epoch: int) -> float:
        raise NotImplementedError

    def apply(self, optimizer: Optimizer, epoch: int) -> float:
        lr = self.lr_at(epoch)
        optimizer.lr = lr
        return lr


class StepDecay(LRSchedule):
    """``lr = initial · decay^(epoch // every)`` — paper: decay 0.1 / 15 ep."""

    def __init__(self, initial_lr: float, decay: float = 0.1, every: int = 15):
        super().__init__(initial_lr)
        if not 0 < decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        if every < 1:
            raise ConfigError(f"decay period must be >= 1, got {every}")
        self.decay = float(decay)
        self.every = int(every)

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * self.decay ** (epoch // self.every)
