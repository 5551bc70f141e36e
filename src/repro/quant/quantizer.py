"""Symmetric linear quantizer with power-of-two step sizes.

Matches the paper's quantized-model characteristics (section III):

- layer-wise quantization of parameters and activations,
- symmetric, no zero-points (eliminates GEMM cross-terms),
- step sizes rounded to the next power of two (shift-only rescaling).

Integer codes live in the symmetric range ``[-(2^(b-1)-1), 2^(b-1)-1]``
(e.g. [-127, 127] for 8 bits, [-7, 7] for 4 bits). The symmetric range keeps
code magnitudes inside the unsigned domain of the 8x4 approximate multipliers
under sign-magnitude evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError


def qrange(bits: int) -> tuple[int, int]:
    """Symmetric signed integer range for ``bits``-bit codes."""
    if bits < 2:
        raise QuantizationError(f"need at least 2 bits for signed codes, got {bits}")
    hi = 2 ** (bits - 1) - 1
    return -hi, hi


def round_step_to_pow2(step: float) -> float:
    """Round a positive step size to the nearest power of two.

    The paper rounds steps to powers of two so rescaling is a plain shift.
    Rounding happens in log2 space (geometric rounding).
    """
    if step <= 0 or not np.isfinite(step):
        raise QuantizationError(f"step size must be positive and finite, got {step}")
    return float(2.0 ** np.round(np.log2(step)))


def quantize(x: np.ndarray, step: float, bits: int) -> np.ndarray:
    """Map real values to integer codes: ``clip(round(x / step))``."""
    lo, hi = qrange(bits)
    codes = np.rint(np.asarray(x) / step)
    return np.clip(codes, lo, hi).astype(np.int32)


def dequantize(codes: np.ndarray, step: float) -> np.ndarray:
    """Map integer codes back to real values: ``codes * step``."""
    return np.asarray(codes, dtype=np.float32) * np.float32(step)


def fake_quantize_np(x: np.ndarray, step: float, bits: int) -> np.ndarray:
    """Quantize-dequantize round trip on raw arrays (no autograd)."""
    return dequantize(quantize(x, step, bits), step)


def step_from_max(max_abs: float, bits: int, pow2: bool = True) -> float:
    """Step size covering ``[-max_abs, max_abs]`` with ``bits``-bit codes."""
    _, hi = qrange(bits)
    max_abs = float(max_abs)
    if max_abs <= 0:
        max_abs = 1e-8  # degenerate all-zero tensor: any tiny step works
    step = max_abs / hi
    return round_step_to_pow2(step) if pow2 else step
