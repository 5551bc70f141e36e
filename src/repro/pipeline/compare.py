"""Method-comparison harness used by the table benchmarks.

Runs the approximation stage of Algorithm 1 with several fine-tuning
methods on the same starting quantized model and multiplier, so the
resulting accuracies are directly comparable (Tables V–VII of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.approx.metrics import mean_relative_error
from repro.approx.multiplier import Multiplier
from repro.approx.plan import cache_stats
from repro.data.synthetic_cifar import Dataset
from repro.distill.approxkd import recommended_t2
from repro.nn.module import Module
from repro.obs import events as obs_events
from repro.pipeline.algorithm1 import METHODS, StageResult, approximation_stage
from repro.sim.proxsim import resolve_multiplier
from repro.train.trainer import TrainConfig


@dataclass
class MethodComparison:
    """Per-multiplier comparison of fine-tuning methods."""

    multiplier_name: str
    mre: float
    energy_savings: float
    initial_accuracy: float
    results: dict[str, StageResult] = field(default_factory=dict)

    def final_accuracy(self, method: str) -> float:
        return self.results[method].accuracy_after

    def best_method(self) -> str:
        return max(self.results, key=lambda m: self.results[m].accuracy_after)


def compare_methods(
    quant_model: Module,
    data: Dataset,
    multiplier: Multiplier | str,
    methods: tuple[str, ...] = METHODS,
    train_config: TrainConfig | None = None,
    temperature: float | None = None,
    alpha: float = 1e-11,
    rng: int = 0,
) -> MethodComparison:
    """Fine-tune one multiplier with each method and collect the results.

    ``temperature`` defaults to the paper's Table III policy
    (:func:`repro.distill.approxkd.recommended_t2`) based on the
    multiplier's measured MRE.
    """
    mult = resolve_multiplier(multiplier)
    mre = mean_relative_error(mult)
    if temperature is None:
        temperature = recommended_t2(mre)
    comparison = MethodComparison(
        multiplier_name=mult.name,
        mre=mre,
        energy_savings=mult.energy_savings,
        initial_accuracy=0.0,
    )
    log = obs_events.get_event_log()
    for method in methods:
        _, result = approximation_stage(
            quant_model,
            data,
            mult,
            method=method,
            train_config=train_config,
            temperature=temperature,
            alpha=alpha,
            rng=rng,
        )
        comparison.results[method] = result
        comparison.initial_accuracy = result.accuracy_before
        if log.enabled:
            # Kernel-plan cache pressure per method (cumulative process-wide
            # metrics counters; non-zero only under --metrics or --profile).
            log.emit(
                "plan_cache",
                method=method,
                multiplier=mult.name,
                **cache_stats(),
            )
    return comparison
