"""Symmetric linear quantization (8A4W) with STE and MinPropQE calibration."""

from repro.quant.bn_folding import fold_batchnorms, fold_conv_bn
from repro.quant.convert import (
    calibrate_model,
    named_quant_layers,
    quant_layers,
    quantize_model,
    refresh_weight_steps,
)
from repro.quant.observer import (
    MinMaxObserver,
    MinPropQEObserver,
    MSEObserver,
    create_observer,
)
from repro.quant.qconfig import QCONFIG_8A4W, QCONFIG_8A8W, QConfig
from repro.quant.qfunction import QuantConv2dFunction, QuantLinearFunction
from repro.quant.qlayers import QuantConv2d, QuantLinear
from repro.quant.quantizer import (
    dequantize,
    fake_quantize_np,
    qrange,
    quantize,
    round_step_to_pow2,
    step_from_max,
)

__all__ = [
    "QConfig",
    "QCONFIG_8A4W",
    "QCONFIG_8A8W",
    "quantize",
    "dequantize",
    "fake_quantize_np",
    "qrange",
    "round_step_to_pow2",
    "step_from_max",
    "MinMaxObserver",
    "MSEObserver",
    "MinPropQEObserver",
    "create_observer",
    "QuantConv2d",
    "QuantLinear",
    "QuantConv2dFunction",
    "QuantLinearFunction",
    "fold_conv_bn",
    "fold_batchnorms",
    "quantize_model",
    "calibrate_model",
    "quant_layers",
    "named_quant_layers",
    "refresh_weight_steps",
]
