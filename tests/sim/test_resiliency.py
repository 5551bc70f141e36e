"""Per-layer resiliency analysis and heterogeneous approximation."""

import pytest

from repro.distill import clone_model
from repro.errors import ConfigError
from repro.models import simplecnn
from repro.quant import named_quant_layers, quant_layers
from repro.sim import (
    evaluate_accuracy,
    greedy_heterogeneous_assignment,
    layer_resiliency,
    partial_approximation_energy,
)


class TestLayerResiliency:
    def test_one_entry_per_layer_sorted_by_drop(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        results = layer_resiliency(
            model, tiny_dataset.test_x[:80], tiny_dataset.test_y[:80], "truncated5"
        )
        assert len(results) == len(list(quant_layers(model)))
        drops = [r.drop for r in results]
        assert drops == sorted(drops)

    def test_layers_restored_after_analysis(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        layer_resiliency(
            model, tiny_dataset.test_x[:40], tiny_dataset.test_y[:40], "truncated5"
        )
        assert all(layer.multiplier is None for layer in quant_layers(model))

    def test_requires_quantized_model(self, tiny_dataset):
        with pytest.raises(ConfigError):
            layer_resiliency(
                simplecnn(base_width=4, rng=0),
                tiny_dataset.test_x[:10],
                tiny_dataset.test_y[:10],
                "truncated3",
            )


class TestGreedyAssignment:
    def test_respects_accuracy_budget(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        x, y = tiny_dataset.test_x[:100], tiny_dataset.test_y[:100]
        budget = 0.05
        assignment = greedy_heterogeneous_assignment(
            model, x, y, "truncated5", accuracy_budget=budget
        )
        baseline_model = clone_model(quantized_model)
        baseline = evaluate_accuracy(baseline_model, x, y)
        final = evaluate_accuracy(model, x, y)
        assert baseline - final <= budget + 1e-9
        assert isinstance(assignment, dict)

    def test_zero_budget_assigns_only_harmless_layers(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        x, y = tiny_dataset.test_x[:100], tiny_dataset.test_y[:100]
        assignment = greedy_heterogeneous_assignment(
            model, x, y, "truncated5", accuracy_budget=0.0
        )
        baseline = evaluate_accuracy(clone_model(quantized_model), x, y)
        assert evaluate_accuracy(model, x, y) >= baseline - 1e-9

    def test_negative_budget_rejected(self, quantized_model, tiny_dataset):
        with pytest.raises(ConfigError):
            greedy_heterogeneous_assignment(
                clone_model(quantized_model),
                tiny_dataset.test_x[:10],
                tiny_dataset.test_y[:10],
                "truncated5",
                accuracy_budget=-0.1,
            )


class TestPartialEnergy:
    def test_empty_assignment_saves_nothing(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        assert partial_approximation_energy(model, tiny_dataset.image_shape, {}) == 0.0

    def test_full_assignment_matches_uniform_savings(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        names = [n for n, _ in named_quant_layers(model)]
        savings = partial_approximation_energy(
            model, tiny_dataset.image_shape, {n: "truncated5" for n in names}
        )
        assert savings == pytest.approx(0.38, abs=1e-6)

    def test_partial_assignment_between_zero_and_full(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        names = [n for n, _ in named_quant_layers(model)]
        savings = partial_approximation_energy(
            model, tiny_dataset.image_shape, {names[0]: "truncated5"}
        )
        assert 0.0 < savings < 0.38
