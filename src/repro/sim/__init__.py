"""ProxSim-style approximate execution and MAC/parameter accounting."""

from repro.sim.macs import LayerMacs, MacReport, count_macs
from repro.sim.faults import FaultReport, fault_sensitivity_sweep, inject_weight_faults
from repro.sim.resiliency import (
    LayerResiliency,
    greedy_heterogeneous_assignment,
    layer_resiliency,
    partial_approximation_energy,
)
from repro.sim.proxsim import (
    approximate_execution,
    attach_multiplier,
    detach_multiplier,
    evaluate_accuracy,
    resolve_multiplier,
)

__all__ = [
    "LayerMacs",
    "MacReport",
    "count_macs",
    "attach_multiplier",
    "detach_multiplier",
    "approximate_execution",
    "evaluate_accuracy",
    "resolve_multiplier",
    "LayerResiliency",
    "layer_resiliency",
    "greedy_heterogeneous_assignment",
    "partial_approximation_energy",
    "FaultReport",
    "inject_weight_faults",
    "fault_sensitivity_sweep",
]
