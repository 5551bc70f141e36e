"""Fake quantization with a straight-through estimator (STE).

The forward pass performs the quantize→dequantize round trip; the backward
pass passes gradients straight through inside the representable range and
zeroes them outside (clipped STE), following [18] (Bengio et al.) as cited
by the paper for the gradients of ``round``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.quant.quantizer import dequantize, qrange, quantize


class FakeQuantize(Function):
    """Quantize-dequantize with clipped-STE backward."""

    def forward(self, x, step: float, bits: int):
        x = np.asarray(x)
        with tr.span("quant.fake_quantize", nbytes=x.nbytes):
            met.inc("quant.fake_quantized_elements", x.size)
            lo, hi = qrange(bits)
            self.pass_mask = (x >= lo * step) & (x <= hi * step)
            return dequantize(quantize(x, step, bits), step).astype(x.dtype)

    def backward(self, grad_out):
        return (grad_out * self.pass_mask, None, None)


def fake_quantize(x, step: float, bits: int) -> Tensor:
    """Differentiable (STE) symmetric fake quantization."""
    return FakeQuantize.apply(as_tensor(x), float(step), int(bits))
