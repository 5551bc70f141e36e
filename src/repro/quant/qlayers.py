"""Quantized layer modules: :class:`QuantConv2d` and :class:`QuantLinear`.

Lifecycle:

1. ``from_float(layer, qconfig)`` copies a float layer's parameters.
2. With ``calibrating = True``, forward passes run in float while observers
   collect activation statistics and (for MinPropQE) GEMM-shaped inputs.
3. ``finalize_calibration()`` freezes the activation and weight step sizes
   (power-of-two by default).
4. Forward then runs the quantized integer path. Attaching a multiplier via
   ``set_multiplier`` switches the GEMM to the approximate LUT engine; an
   optional error model activates gradient estimation in the backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.approx.multiplier import Multiplier
from repro.approx.plan import PlanCache
from repro.approx.registry import as_multiplier
from repro.autograd.im2col import check_groups, im2col
from repro.autograd.ops_matmul import conv2d, linear
from repro.autograd.tensor import Tensor
from repro.errors import QuantizationError
from repro.ge.error_model import PiecewiseLinearErrorModel
from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.quant.observer import MinPropQEObserver, create_observer
from repro.quant.qconfig import QConfig
from repro.quant.qfunction import QuantConv2dFunction, QuantLinearFunction


class _QuantGemmLayer(Module):
    """Shared calibration / step / multiplier state for quantized layers."""

    def __init__(self, qconfig: QConfig):
        super().__init__()
        self.qconfig = qconfig
        self.act_step: float | None = None
        self.weight_step: float | None = None
        self.calibrating = False
        self.multiplier: Multiplier | None = None
        self.error_model: PiecewiseLinearErrorModel | None = None
        # When set (a list), each training forward appends
        # (output_tensor, 1/(act_step·weight_step)) so regularizers — e.g.
        # the alpha-regularization baseline — can penalise GEMM outputs in
        # integer-code space.
        self.output_collector: list | None = None
        # Weight-stationary GEMM state (repro.approx.plan): quantized weight
        # codes, STE mask and kernel plan, reused across batches while the
        # weights and steps are unchanged.
        # ``_step_version`` bumps whenever the step sizes are (re)derived;
        # the weight Parameter's own version counter covers every weight
        # rebind, so the cache key goes stale the moment either changes. A
        # version-only change (optimizer step) is revalidated at the code
        # level: if the integer codes survived the step the plan is reused,
        # and a few flipped codes are repaired into it instead of rebuilt.
        self._plan_cache = PlanCache()
        self._step_version = 0
        self._act_observer = create_observer(
            qconfig.activation_observer, qconfig.activation_bits, qconfig.pow2_steps
        )
        self._weight_observer = create_observer(
            qconfig.weight_observer, qconfig.weight_bits, qconfig.pow2_steps
        )

    # -- calibration -----------------------------------------------------
    def begin_calibration(self) -> None:
        self.calibrating = True

    def finalize_calibration(self) -> None:
        """Freeze step sizes from the observed statistics."""
        if not self.calibrating:
            raise QuantizationError(
                f"{type(self).__name__}: finalize_calibration() without begin_calibration()"
            )
        self.act_step = self._act_observer.compute_step()
        if self.qconfig.per_channel_weights:
            self.weight_step = self._per_channel_weight_steps()
        else:
            self._weight_observer.observe(self._weight_data())
            self.weight_step = self._weight_observer.compute_step()
        self.calibrating = False
        self._step_version += 1

    def refresh_weight_step(self) -> None:
        """Re-derive the weight step after weights changed (e.g. between
        fine-tuning stages). Activation steps are kept."""
        self._step_version += 1
        if self.qconfig.per_channel_weights:
            self.weight_step = self._per_channel_weight_steps()
            return
        observer = create_observer(
            self.qconfig.weight_observer, self.qconfig.weight_bits, self.qconfig.pow2_steps
        )
        observer.observe(self._weight_data())
        self.weight_step = observer.compute_step()

    def _per_channel_weight_steps(self) -> np.ndarray:
        """Per-output-channel steps from channel maxima (pow2-rounded)."""
        from repro.quant.quantizer import step_from_max

        weight = self._weight_data()
        flat = weight.reshape(weight.shape[0], -1)
        maxima = np.abs(flat).max(axis=1)
        steps = [
            step_from_max(float(m), self.qconfig.weight_bits, self.qconfig.pow2_steps)
            for m in maxima
        ]
        return np.asarray(steps, dtype=np.float32)

    def _mean_weight_step(self) -> float:
        """Scalar summary of the weight step (per-channel aware)."""
        return float(np.mean(self.weight_step))

    def _weight_data(self) -> np.ndarray:
        return self.weight.data

    def forward(self, x: Tensor) -> Tensor:
        """Float with observers while calibrating, else the quantized path;
        a training forward also feeds ``output_collector``."""
        if self.calibrating:
            data = x.data if isinstance(x, Tensor) else np.asarray(x)
            self._act_observer.observe(data)
            if isinstance(self._weight_observer, MinPropQEObserver):
                self._weight_observer.observe_inputs(self._gemm_inputs(data))
            return self._float_forward(x)
        self._require_calibrated()
        out = self._quantized_forward(x, *self._plan_state())
        if self.output_collector is not None and self.training:
            inv_step = 1.0 / (self.act_step * self._mean_weight_step())
            self.output_collector.append((out, inv_step))
        return out

    @property
    def is_calibrated(self) -> bool:
        return self.act_step is not None and self.weight_step is not None

    def _require_calibrated(self) -> None:
        if not self.is_calibrated:
            raise QuantizationError(
                f"{type(self).__name__} used before calibration; run "
                "calibrate_model() first"
            )

    # -- approximation ----------------------------------------------------
    def set_multiplier(
        self,
        multiplier: Multiplier | str | None,
        error_model: PiecewiseLinearErrorModel | None = None,
    ) -> None:
        """Attach an approximate multiplier, by object or registry name
        (None restores exact integer execution); ``error_model`` enables
        gradient estimation. Anything else raises :class:`MultiplierError`."""
        self.multiplier = None if multiplier is None else as_multiplier(multiplier)
        self.error_model = error_model
        # Plans embed the multiplier's LUT; drop them on a switch so the
        # cache never outlives the multiplier it was built for.
        self._plan_cache.clear()

    def _plan_state(self) -> tuple[PlanCache, tuple]:
        """The layer's plan cache and current weight-version key."""
        key = (
            self.weight.version,
            self._step_version,
            self.qconfig.weight_bits,
        )
        return self._plan_cache, key


class QuantConv2d(_QuantGemmLayer):
    """Quantized convolution executing on integer codes."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        qconfig: QConfig | None = None,
        rng=None,
    ):
        super().__init__(qconfig or QConfig())
        check_groups(in_channels, out_channels, groups)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        from repro.nn import init

        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    @classmethod
    def from_float(cls, conv: Conv2d, qconfig: QConfig | None = None) -> "QuantConv2d":
        """Build from a float :class:`Conv2d`, copying parameters."""
        q = cls(
            conv.in_channels,
            conv.out_channels,
            conv.kernel_size,
            conv.stride,
            conv.padding,
            conv.groups,
            bias=conv.bias is not None,
            qconfig=qconfig,
        )
        q.weight.data = conv.weight.data.copy()
        if conv.bias is not None:
            q.bias.data = conv.bias.data.copy()
        return q

    def _float_forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding, self.groups)

    def _gemm_inputs(self, data: np.ndarray) -> np.ndarray:
        # Per-group propagation; the first group is a representative sample
        # for the step search.
        cg = self.in_channels // self.groups
        kernel = (self.kernel_size, self.kernel_size)
        return im2col(data[:, :cg], kernel, self.stride, self.padding)[0]

    def _quantized_forward(self, x: Tensor, plan_cache: PlanCache, plan_key: tuple) -> Tensor:
        return QuantConv2dFunction.apply(
            x,
            self.weight,
            self.bias,
            self.stride,
            self.padding,
            self.groups,
            self.act_step,
            self.weight_step,
            self.qconfig.activation_bits,
            self.qconfig.weight_bits,
            self.multiplier,
            self.error_model,
            plan_cache=plan_cache,
            plan_key=plan_key,
        )

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.multiplier.name if self.multiplier else "exact"
        return (
            f"QuantConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, {self.qconfig.label}, mult={tag})"
        )


class QuantLinear(_QuantGemmLayer):
    """Quantized fully connected layer executing on integer codes."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        qconfig: QConfig | None = None,
        rng=None,
    ):
        super().__init__(qconfig or QConfig())
        self.in_features = in_features
        self.out_features = out_features
        from repro.nn import init

        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    @classmethod
    def from_float(cls, linear: Linear, qconfig: QConfig | None = None) -> "QuantLinear":
        """Build from a float :class:`Linear`, copying parameters."""
        q = cls(
            linear.in_features,
            linear.out_features,
            bias=linear.bias is not None,
            qconfig=qconfig,
        )
        q.weight.data = linear.weight.data.copy()
        if linear.bias is not None:
            q.bias.data = linear.bias.data.copy()
        return q

    def _float_forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def _gemm_inputs(self, data: np.ndarray) -> np.ndarray:
        return data

    def _quantized_forward(self, x: Tensor, plan_cache: PlanCache, plan_key: tuple) -> Tensor:
        return QuantLinearFunction.apply(
            x,
            self.weight,
            self.bias,
            self.act_step,
            self.weight_step,
            self.qconfig.activation_bits,
            self.qconfig.weight_bits,
            self.multiplier,
            self.error_model,
            plan_cache=plan_cache,
            plan_key=plan_key,
        )

    def __repr__(self) -> str:  # pragma: no cover
        tag = self.multiplier.name if self.multiplier else "exact"
        return (
            f"QuantLinear({self.in_features}, {self.out_features}, "
            f"{self.qconfig.label}, mult={tag})"
        )
