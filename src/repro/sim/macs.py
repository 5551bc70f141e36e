"""MAC and parameter counting via a shape-probing forward pass.

The GEMM layer classes are temporarily patched so a single probe forward
records every convolution/linear invocation with its actual input geometry —
robust to arbitrary model topologies (residual connections, reuse, etc.).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.autograd.im2col import conv_out_size
from repro.autograd.tensor import Tensor
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.quant.qlayers import QuantConv2d, QuantLinear


@dataclass(frozen=True)
class LayerMacs:
    """Per-layer MAC record (per single input sample)."""

    layer_type: str
    macs: int
    output_shape: tuple[int, ...]


@dataclass
class MacReport:
    """MACs and parameters of a model for one input geometry."""

    layers: list[LayerMacs] = field(default_factory=list)
    params: int = 0

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)


def _conv_macs(layer, x_shape) -> LayerMacs:
    _, c, h, w = x_shape
    k = layer.kernel_size
    oh = conv_out_size(h, k, layer.stride, layer.padding)
    ow = conv_out_size(w, k, layer.stride, layer.padding)
    macs = oh * ow * layer.out_channels * (layer.in_channels // layer.groups) * k * k
    return LayerMacs(type(layer).__name__, macs, (layer.out_channels, oh, ow))


def _linear_macs(layer, x_shape) -> LayerMacs:
    macs = layer.in_features * layer.out_features
    return LayerMacs(type(layer).__name__, macs, (layer.out_features,))


@contextlib.contextmanager
def _recording(report: MacReport):
    originals = {
        Conv2d: Conv2d.forward,
        QuantConv2d: QuantConv2d.forward,
        Linear: Linear.forward,
        QuantLinear: QuantLinear.forward,
    }

    def _wrap(cls, counter):
        original = originals[cls]

        def patched(self, x):
            report.layers.append(counter(self, x.shape))
            # An uncalibrated quantized layer runs in float, past its
            # observers: the all-zero probe must not become calibration data.
            if isinstance(self, (QuantConv2d, QuantLinear)) and not self.is_calibrated:
                return self._float_forward(x)
            return original(self, x)

        return patched

    Conv2d.forward = _wrap(Conv2d, _conv_macs)
    QuantConv2d.forward = _wrap(QuantConv2d, _conv_macs)
    Linear.forward = _wrap(Linear, _linear_macs)
    QuantLinear.forward = _wrap(QuantLinear, _linear_macs)
    try:
        yield
    finally:
        for cls, fn in originals.items():
            cls.forward = fn


def count_macs(model: Module, input_shape: tuple[int, int, int]) -> MacReport:
    """MACs per sample for ``input_shape = (channels, height, width)``.

    Works on float and quantized models alike. Calibration state is not
    required, and is left untouched: uncalibrated quantized layers are
    probed through their float fallback, past their observers.
    """
    report = MacReport(params=model.num_parameters())
    probe = Tensor(np.zeros((1, *input_shape), dtype=np.float32))
    was_training = model.training
    model.eval()
    try:
        with no_grad(), _recording(report):
            model(probe)
    finally:
        model.train(was_training)
    return report
