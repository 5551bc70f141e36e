"""Per-layer resiliency analysis and heterogeneous (partial) approximation.

The paper evaluates *uniform* approximation (one multiplier for all layers)
and cites resiliency-based partial approximation [12]-[14] as the
alternative; its outlook proposes mixing approximation techniques. This
module implements that extension:

- :func:`layer_resiliency` approximates one quantized layer at a time and
  measures the accuracy drop — the classic sensitivity analysis used to
  decide which layers tolerate aggressive multipliers.
- :func:`greedy_heterogeneous_assignment` builds a per-layer assignment
  that maximises energy savings subject to an accuracy budget, using the
  resiliency ranking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.multiplier import Multiplier
from repro.approx.registry import get_multiplier
from repro.errors import ConfigError
from repro.nn.module import Module
from repro.quant.convert import named_quant_layers
from repro.sim.proxsim import evaluate_accuracy, resolve_multiplier


@dataclass(frozen=True)
class LayerResiliency:
    """Accuracy impact of approximating one layer in isolation."""

    layer_name: str
    accuracy: float
    drop: float


def layer_resiliency(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    multiplier: Multiplier | str,
    batch_size: int = 128,
) -> list[LayerResiliency]:
    """Measure the accuracy drop of approximating each layer alone.

    Layers are restored to their previous multiplier state afterwards.
    Results are sorted most-resilient first.
    """
    mult = resolve_multiplier(multiplier)
    layers = list(named_quant_layers(model))
    if not layers:
        raise ConfigError("layer_resiliency requires a quantized model")
    baseline = evaluate_accuracy(model, x, y, batch_size)
    results = []
    for name, layer in layers:
        saved = (layer.multiplier, layer.error_model)
        layer.set_multiplier(mult, None)
        acc = evaluate_accuracy(model, x, y, batch_size)
        layer.set_multiplier(*saved)
        results.append(LayerResiliency(name, acc, baseline - acc))
    results.sort(key=lambda r: r.drop)
    return results


def greedy_heterogeneous_assignment(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    multiplier: Multiplier | str,
    accuracy_budget: float,
    batch_size: int = 128,
) -> dict[str, str]:
    """Greedily approximate layers (most-resilient first) while the total
    accuracy drop stays within ``accuracy_budget``.

    Returns the assignment actually applied: layer name → multiplier name.
    The model is left with the returned assignment attached.
    """
    if accuracy_budget < 0:
        raise ConfigError(f"accuracy budget must be >= 0, got {accuracy_budget}")
    mult = resolve_multiplier(multiplier)
    baseline = evaluate_accuracy(model, x, y, batch_size)
    ranking = layer_resiliency(model, x, y, mult, batch_size)
    layers = dict(named_quant_layers(model))
    assignment: dict[str, str] = {}
    for entry in ranking:
        layer = layers[entry.layer_name]
        saved = (layer.multiplier, layer.error_model)
        layer.set_multiplier(mult, None)
        acc = evaluate_accuracy(model, x, y, batch_size)
        if baseline - acc <= accuracy_budget:
            assignment[entry.layer_name] = mult.name
        else:
            layer.set_multiplier(*saved)
    return assignment


def partial_approximation_energy(
    model: Module,
    input_shape: tuple[int, int, int],
    assignment: dict[str, str],
) -> float:
    """Fractional multiplier-energy savings of a heterogeneous assignment.

    MACs of layers in ``assignment`` are costed at their multiplier's
    savings; remaining layers run exact.
    """
    from repro.sim.macs import count_macs

    layers = [name for name, _ in named_quant_layers(model)]
    report = count_macs(model, input_shape)
    if len(report.layers) != len(layers):
        raise ConfigError(
            "layer count mismatch between MAC probe and quantized layers; "
            "is the model fully quantized?"
        )
    total = saved = 0
    for name, layer_macs in zip(layers, report.layers):
        total += layer_macs.macs
        if name in assignment:
            saved += layer_macs.macs * get_multiplier(assignment[name]).energy_savings
    return saved / total if total else 0.0
