"""Approximate multipliers, approximate GEMM and energy accounting.

Approximate GEMMs run a weight-stationary plan whenever the caller built
one; :class:`plan_cache_disabled` is the one switch onto the uncached
reference path, and it is scoped to the calling thread.
"""

from repro.approx.analysis import (
    MultiplierSummary,
    compare_multipliers,
    error_by_operand_magnitude,
    error_histogram,
    summarize_multiplier,
)
from repro.approx.compose import compose_truncated_accumulation
from repro.approx.logarithmic import DrumMultiplier, MitchellMultiplier

from repro.approx.energy import EnergyReport, network_energy
from repro.approx.evoapprox import (
    EVOAPPROX_SPECS,
    EvoApproxMultiplier,
    EvoApproxSpec,
    synthesize_evoapprox_lut,
)
from repro.approx.backend import default_backend, tiered_exact_int_matmul
from repro.approx.gemm import (
    approx_matmul,
    exact_int_matmul,
    exact_int_matmul_cached,
)
from repro.approx.metrics import (
    error_bias_ratio,
    max_absolute_error,
    mean_error,
    mean_relative_error,
)
from repro.approx.multiplier import ExactMultiplier, Multiplier, exact_lut
from repro.approx.plan import (
    GemmPlan,
    LayerKernelState,
    PlanCache,
    build_plan,
    plan_cache_disabled,
    plan_caching_enabled,
    repair_plan,
)
from repro.approx.registry import (
    PAPER_MRE,
    TABLE3_MULTIPLIERS,
    TABLE5_MULTIPLIERS,
    TABLE6_MULTIPLIERS,
    TABLE7_MULTIPLIERS,
    as_multiplier,
    available_multipliers,
    get_multiplier,
    paper_mre,
)
from repro.approx.truncated import (
    BiasCorrectedTruncatedMultiplier,
    TruncatedMultiplier,
    bias_corrected_truncated_lut,
    truncated_lut,
)

__all__ = [
    "Multiplier",
    "ExactMultiplier",
    "exact_lut",
    "TruncatedMultiplier",
    "truncated_lut",
    "BiasCorrectedTruncatedMultiplier",
    "bias_corrected_truncated_lut",
    "EvoApproxMultiplier",
    "EvoApproxSpec",
    "EVOAPPROX_SPECS",
    "synthesize_evoapprox_lut",
    "approx_matmul",
    "exact_int_matmul",
    "exact_int_matmul_cached",
    "tiered_exact_int_matmul",
    "default_backend",
    "GemmPlan",
    "LayerKernelState",
    "PlanCache",
    "build_plan",
    "plan_cache_disabled",
    "plan_caching_enabled",
    "repair_plan",
    "mean_relative_error",
    "mean_error",
    "max_absolute_error",
    "error_bias_ratio",
    "EnergyReport",
    "network_energy",
    "get_multiplier",
    "as_multiplier",
    "available_multipliers",
    "paper_mre",
    "PAPER_MRE",
    "MultiplierSummary",
    "summarize_multiplier",
    "compare_multipliers",
    "error_histogram",
    "error_by_operand_magnitude",
    "MitchellMultiplier",
    "DrumMultiplier",
    "compose_truncated_accumulation",
    "TABLE3_MULTIPLIERS",
    "TABLE5_MULTIPLIERS",
    "TABLE6_MULTIPLIERS",
    "TABLE7_MULTIPLIERS",
]
