"""Weight-initialisation schemes."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import new_rng


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 2:  # linear: (out, in)
        return shape[1]
    if len(shape) == 4:  # conv: (out, in/groups, kh, kw)
        return shape[1] * shape[2] * shape[3]
    raise ValueError(f"cannot infer fan for weight shape {shape}")


def kaiming_normal(shape, rng=None, gain: float = np.sqrt(2.0)) -> np.ndarray:
    """He initialisation for ReLU networks."""
    std = gain / np.sqrt(_fan_in(tuple(shape)))
    return new_rng(rng).normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)
