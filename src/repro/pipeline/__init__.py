"""End-to-end optimization flow (Algorithm 1), sweeps and replicates."""

from repro.pipeline.algorithm1 import (
    METHODS,
    Algorithm1Result,
    StageResult,
    approximation_stage,
    quantization_stage,
    run_algorithm1,
)
from repro.pipeline.replicate import ReplicateSummary, replicate_approximation_stage
from repro.pipeline.sweep import SweepPoint, SweepResult, run_sweep

__all__ = [
    "METHODS",
    "StageResult",
    "Algorithm1Result",
    "quantization_stage",
    "approximation_stage",
    "run_algorithm1",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "ReplicateSummary",
    "replicate_approximation_stage",
]
