"""ProxSim-style multiplier attachment and evaluation."""

import pytest

from repro.approx import get_multiplier
from repro.distill import clone_model
from repro.errors import ConfigError
from repro.models import simplecnn
from repro.quant import quant_layers
from repro.sim import (
    approximate_execution,
    attach_multiplier,
    detach_multiplier,
    evaluate_accuracy,
    resolve_multiplier,
)


class TestResolve:
    def test_by_name(self):
        assert resolve_multiplier("truncated3").name == "truncated3"

    def test_passthrough_instance(self):
        m = get_multiplier("truncated2")
        assert resolve_multiplier(m) is m

    def test_none(self):
        assert resolve_multiplier(None) is None


class TestAttachDetach:
    def test_attach_sets_all_layers(self, quantized_model):
        model = clone_model(quantized_model)
        attach_multiplier(model, "truncated4")
        assert all(
            layer.multiplier.name == "truncated4" for layer in quant_layers(model)
        )

    def test_attach_auto_error_model_for_biased_multiplier(self, quantized_model):
        model = clone_model(quantized_model)
        attach_multiplier(model, "truncated5", error_model="auto")
        layer = next(iter(quant_layers(model)))
        assert layer.error_model is not None
        assert layer.error_model.k < 0

    def test_attach_auto_error_model_for_exact_is_none(self, quantized_model):
        model = clone_model(quantized_model)
        attach_multiplier(model, "exact", error_model="auto")
        layer = next(iter(quant_layers(model)))
        assert layer.error_model is None

    def test_detach_restores_exact(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        before = evaluate_accuracy(model, tiny_dataset.test_x[:60], tiny_dataset.test_y[:60])
        attach_multiplier(model, "truncated5")
        detach_multiplier(model)
        after = evaluate_accuracy(model, tiny_dataset.test_x[:60], tiny_dataset.test_y[:60])
        assert before == after

    def test_attach_requires_quantized_model(self):
        with pytest.raises(ConfigError):
            attach_multiplier(simplecnn(base_width=4, rng=0), "truncated3")


class TestContextManager:
    def test_restores_previous_state(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        attach_multiplier(model, "truncated2")
        with approximate_execution(model, "truncated5"):
            inside = next(iter(quant_layers(model))).multiplier.name
        outside = next(iter(quant_layers(model))).multiplier.name
        assert inside == "truncated5"
        assert outside == "truncated2"

    def test_restores_on_exception(self, quantized_model):
        model = clone_model(quantized_model)
        with pytest.raises(RuntimeError):
            with approximate_execution(model, "truncated5"):
                raise RuntimeError("boom")
        assert next(iter(quant_layers(model))).multiplier is None


class TestEvaluateAccuracy:
    def test_range_and_restore_mode(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        model.train()
        acc = evaluate_accuracy(model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert 0.0 <= acc <= 1.0
        assert model.training  # restored

    def test_severe_approximation_hurts_accuracy(self, quantized_model, tiny_dataset):
        """The 48.8%-MRE multiplier must collapse accuracy toward chance."""
        model = clone_model(quantized_model)
        exact = evaluate_accuracy(model, tiny_dataset.test_x, tiny_dataset.test_y)
        attach_multiplier(model, "evoapprox249")
        broken = evaluate_accuracy(model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert broken < exact
        assert broken < 0.45

    def test_mild_approximation_mostly_harmless(self, quantized_model, tiny_dataset):
        model = clone_model(quantized_model)
        exact = evaluate_accuracy(model, tiny_dataset.test_x, tiny_dataset.test_y)
        attach_multiplier(model, "truncated1")
        mild = evaluate_accuracy(model, tiny_dataset.test_x, tiny_dataset.test_y)
        assert mild >= exact - 0.1
