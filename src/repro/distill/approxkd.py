"""ApproxKD — the paper's two-stage knowledge distillation (section III-A).

Stage 1 (*quantization stage*) distills the full-precision teacher into the
8A4W-quantized student at temperature ``T1``. Stage 2 (*approximation
stage*) freezes the quantized model as the new teacher and distills it into
the approximate student at temperature ``T2``; the paper finds ``T2 > T1``
necessary for multipliers with large MRE because high temperatures flatten
the teacher distribution that the (differently-distributed) approximate
outputs must match.

This module provides the loss builders and temperature policy; the stage
drivers live in :mod:`repro.pipeline.algorithm1`.
"""

from __future__ import annotations

# Temperatures swept in the paper's ablation (Table III).
TEMPERATURE_GRID: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0)


def recommended_t2(mre: float) -> float:
    """Temperature policy distilled from the paper's Table III ablation.

    Low-MRE multipliers (< ~6%) prefer small temperatures, mid-MRE (~6-15%)
    prefer 5, and large-MRE multipliers need 10.
    """
    if mre < 0.06:
        return 2.0
    if mre < 0.15:
        return 5.0
    return 10.0
