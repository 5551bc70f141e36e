"""Reproduction of *Knowledge Distillation and Gradient Estimation for Active
Error Compensation in Approximate Neural Networks* (De la Parra et al.,
DATE 2021).

The package is organised as one subpackage per subsystem:

- :mod:`repro.autograd` — pure-numpy reverse-mode automatic differentiation.
- :mod:`repro.nn` — neural-network layers and containers.
- :mod:`repro.models` — ResNet20/32, MobileNetV2 and small test CNNs.
- :mod:`repro.quant` — symmetric linear 8A4W quantization with STE.
- :mod:`repro.approx` — approximate multipliers (truncated, EvoApprox-style
  LUTs), approximate integer GEMM, MRE/energy metrics.
- :mod:`repro.ge` — Monte-Carlo error profiling and piecewise-linear gradient
  estimation of approximate GEMMs.
- :mod:`repro.distill` — knowledge-distillation losses and the two-stage
  ApproxKD scheme.
- :mod:`repro.train` — SGD optimizers, LR schedules, trainers and the
  baseline fine-tuners (normal/passive retraining, alpha-regularization).
- :mod:`repro.data` — synthetic CIFAR10-like dataset and loaders.
- :mod:`repro.sim` — ProxSim-style approximate execution of quantized models.
- :mod:`repro.pipeline` — Algorithm 1 end-to-end and experiment configs.
- :mod:`repro.config` — unified runtime-knob resolution (one precedence
  chain for every ``REPRO_*`` setting).
- :mod:`repro.serve` — micro-batched inference serving on the plan-cached
  path.
- :mod:`repro.obs` / :mod:`repro.parallel` / :mod:`repro.resilience` —
  observability, multi-worker execution, fault tolerance.

The supported top-level surface is the names re-exported below (also
documented in :mod:`repro.api` and snapshot-tested by
``tests/test_public_api.py``); deeper imports reach into implementation
modules and carry no stability promise.
"""

from repro.errors import (
    AutogradError,
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    MultiplierError,
    QuantizationError,
    ReproError,
    ShapeError,
)

__version__ = "1.0.0"

__all__ = [
    "AutogradError",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "DivergenceError",
    "MultiplierError",
    "QuantizationError",
    "ReproError",
    "ShapeError",
    "__version__",
]

# The curated public API: stable re-exports of the supported entry
# points, loaded lazily so `import repro` stays cheap and the module
# graph stays acyclic. tests/test_public_api.py snapshots this table —
# additions are reviewed there, removals/renames are breaking.
_LAZY_EXPORTS = {
    # data
    "make_synthetic_cifar": ("repro.data", "make_synthetic_cifar"),
    "Dataset": ("repro.data", "Dataset"),
    "DatasetProtocol": ("repro.data", "DatasetProtocol"),
    # models / training
    "create_model": ("repro.models", "create_model"),
    "TrainConfig": ("repro.train", "TrainConfig"),
    # approximation
    "get_multiplier": ("repro.approx", "get_multiplier"),
    "Multiplier": ("repro.approx", "Multiplier"),
    "PlanCache": ("repro.approx", "PlanCache"),
    # pipeline (Algorithm 1)
    "quantization_stage": ("repro.pipeline", "quantization_stage"),
    "approximation_stage": ("repro.pipeline", "approximation_stage"),
    "run_algorithm1": ("repro.pipeline", "run_algorithm1"),
    # evaluation
    "evaluate_accuracy": ("repro.sim", "evaluate_accuracy"),
    # runtime configuration
    "configure": ("repro.config", "configure"),
    # serving
    "Server": ("repro.serve", "Server"),
    "ServeConfig": ("repro.serve", "ServeConfig"),
    "Client": ("repro.serve", "Client"),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module_name, attr = _LAZY_EXPORTS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(__all__) | set(_LAZY_EXPORTS) | set(globals()))
