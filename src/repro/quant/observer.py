"""Step-size calibration (observers).

Three strategies are provided:

- :class:`MinMaxObserver` — step from the maximum absolute value seen.
- :class:`MSEObserver` — step minimising the local quantization MSE.
- :class:`MinPropQEObserver` — Minimisation of the Propagated Quantization
  Error (MinPropQE, Vogel et al. DATE'19), the method the paper uses: the
  step is chosen to minimise the error *after* propagation through the
  layer's GEMM, measured on calibration activations.

All observers can snap the resulting step to the nearest power of two, per
the paper's quantization constraints.
"""

from __future__ import annotations

import numpy as np

from repro.errors import QuantizationError
from repro.quant.quantizer import (
    fake_quantize_np,
    qrange,
    quantize,
    step_from_max,
)


def _code_counts(data: np.ndarray, step: float, bits: int) -> np.ndarray:
    """Per-code occupancy of ``data`` quantized at ``step``.

    The returned counts cover the full symmetric ``bits``-bit range (one
    bin per code, ascending) — exactly the layout
    ``repro.ge.analytic.OperandDistribution.from_histogram`` consumes, so
    observer statistics feed the analytic error models directly.
    """
    lo, hi = qrange(bits)
    codes = quantize(data, step, bits).reshape(-1)
    return np.bincount((codes.astype(np.int64) - lo), minlength=hi - lo + 1).astype(np.float64)


class ObserverBase:
    """Accumulates statistics over calibration batches, then yields a step."""

    def __init__(self, bits: int, pow2: bool = True):
        self.bits = bits
        self.pow2 = pow2
        self._seen = False

    def observe(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def compute_step(self) -> float:
        raise NotImplementedError

    def _require_data(self) -> None:
        if not self._seen:
            raise QuantizationError(
                f"{type(self).__name__}.compute_step() called before observe()"
            )

    def code_histogram(self, step: float | None = None) -> np.ndarray:
        """Per-code histogram of the observed data at the calibrated step.

        Sample-retaining observers (MSE, MinPropQE) override this; the
        running-statistics ones cannot reconstruct a distribution.
        """
        raise QuantizationError(
            f"{type(self).__name__} retains no samples; use an MSE or "
            "MinPropQE observer to export code histograms"
        )


class MinMaxObserver(ObserverBase):
    """Step from the running maximum absolute value."""

    def __init__(self, bits: int, pow2: bool = True):
        super().__init__(bits, pow2)
        self.max_abs = 0.0

    def observe(self, x: np.ndarray) -> None:
        self._seen = True
        self.max_abs = max(self.max_abs, float(np.max(np.abs(x), initial=0.0)))

    def compute_step(self) -> float:
        self._require_data()
        return step_from_max(self.max_abs, self.bits, self.pow2)


def _candidate_steps(max_abs: float, bits: int, pow2: bool, num: int = 24) -> np.ndarray:
    """Candidate steps from the min-max step downward.

    Shrinking the step clips outliers but refines the bulk of the
    distribution — the classic MSE/propagated-error trade-off.
    """
    base = step_from_max(max_abs, bits, pow2=False)
    if pow2:
        base_exp = int(np.ceil(np.log2(base)))
        return 2.0 ** np.arange(base_exp, base_exp - 8, -1, dtype=np.float64)
    return base * np.linspace(1.0, 0.05, num)


class MSEObserver(ObserverBase):
    """Step minimising quantization MSE on the observed samples."""

    def __init__(self, bits: int, pow2: bool = True, max_samples: int = 200_000, rng_seed: int = 0):
        super().__init__(bits, pow2)
        self.max_samples = max_samples
        self._samples: list[np.ndarray] = []
        self._rng = np.random.default_rng(rng_seed)

    def observe(self, x: np.ndarray) -> None:
        self._seen = True
        flat = np.asarray(x, dtype=np.float32).reshape(-1)
        if flat.size > self.max_samples:
            flat = self._rng.choice(flat, self.max_samples, replace=False)
        self._samples.append(flat)

    def compute_step(self) -> float:
        self._require_data()
        data = np.concatenate(self._samples)
        max_abs = float(np.max(np.abs(data), initial=0.0)) or 1e-8
        best_step, best_err = None, np.inf
        for step in _candidate_steps(max_abs, self.bits, self.pow2):
            err = float(np.mean((fake_quantize_np(data, step, self.bits) - data) ** 2))
            if err < best_err:
                best_step, best_err = float(step), err
        return best_step

    def code_histogram(self, step: float | None = None) -> np.ndarray:
        """Histogram of the observed samples' integer codes."""
        self._require_data()
        data = np.concatenate(self._samples)
        return _code_counts(data, step if step is not None else self.compute_step(), self.bits)


class MinPropQEObserver(ObserverBase):
    """MinPropQE: pick the weight step minimising the *layer-output* error.

    For a GEMM layer ``y = X W``, the propagated error of quantizing W with
    step Δ is ``||X (Q_Δ(W) - W)||²`` over calibration inputs X. The observer
    collects GEMM-shaped calibration inputs via :meth:`observe_inputs` and
    the weight matrix via :meth:`set_weight`; :meth:`compute_step` sweeps
    candidate steps. If no inputs were provided, it degrades gracefully to
    local-MSE selection (equivalent to assuming white inputs).
    """

    def __init__(self, bits: int, pow2: bool = True, max_rows: int = 4096, rng_seed: int = 0):
        super().__init__(bits, pow2)
        self.max_rows = max_rows
        self._weight: np.ndarray | None = None
        self._inputs: list[np.ndarray] = []
        self._rng = np.random.default_rng(rng_seed)

    def set_weight(self, weight: np.ndarray) -> None:
        """Register the weight tensor to be quantized (any shape)."""
        self._seen = True
        self._weight = np.asarray(weight, dtype=np.float32)

    def observe_inputs(self, x_gemm: np.ndarray) -> None:
        """Register calibration GEMM inputs of shape (rows, k)."""
        x = np.asarray(x_gemm, dtype=np.float32)
        if x.ndim != 2:
            raise QuantizationError(f"expected (rows, k) GEMM inputs, got shape {x.shape}")
        if x.shape[0] > self.max_rows:
            idx = self._rng.choice(x.shape[0], self.max_rows, replace=False)
            x = x[idx]
        self._inputs.append(x)

    # ObserverBase API: observing raw tensors means weight registration here.
    def observe(self, x: np.ndarray) -> None:
        self.set_weight(x)

    def compute_step(self) -> float:
        self._require_data()
        w = self._weight
        if w is None:
            raise QuantizationError("MinPropQE requires set_weight() before compute_step()")
        w2 = w.reshape(w.shape[0], -1) if w.ndim > 1 else w.reshape(1, -1)
        max_abs = float(np.max(np.abs(w), initial=0.0)) or 1e-8
        x = np.concatenate(self._inputs) if self._inputs else None
        best_step, best_err = None, np.inf
        for step in _candidate_steps(max_abs, self.bits, self.pow2):
            werr = fake_quantize_np(w2, step, self.bits) - w2
            if x is None:
                err = float(np.mean(werr**2))
            else:
                # Propagated error through the GEMM: X @ (Wq - W)^T.
                err = float(np.mean((x @ werr.T) ** 2))
            if err < best_err:
                best_step, best_err = float(step), err
        return best_step

    def code_histogram(self, step: float | None = None) -> np.ndarray:
        """Histogram of the registered weight tensor's integer codes."""
        self._require_data()
        if self._weight is None:
            raise QuantizationError("MinPropQE requires set_weight() before code_histogram()")
        return _code_counts(
            self._weight, step if step is not None else self.compute_step(), self.bits
        )


OBSERVERS = {
    "minmax": MinMaxObserver,
    "mse": MSEObserver,
    "minpropqe": MinPropQEObserver,
}


def create_observer(name: str, bits: int, pow2: bool = True) -> ObserverBase:
    """Instantiate an observer by name (``minmax``, ``mse``, ``minpropqe``)."""
    key = name.lower()
    if key not in OBSERVERS:
        raise QuantizationError(
            f"unknown observer {name!r}; known: {sorted(OBSERVERS)}"
        )
    return OBSERVERS[key](bits, pow2)
