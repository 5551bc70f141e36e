"""Teacher utilities and ApproxKD configuration."""

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.distill import (
    TEMPERATURE_GRID,
    clone_model,
    kd_batch_loss,
    precompute_teacher_logits,
    recommended_t2,
)
from repro.models import simplecnn


class TestCloneModel:
    def test_parameters_equal_but_independent(self):
        model = simplecnn(base_width=4, rng=0)
        clone = clone_model(model)
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_allclose(a.data, b.data)
        clone.classifier.weight.data[:] = 0.0
        assert model.classifier.weight.data.any()

    def test_clone_preserves_quant_state(self, quantized_model):
        clone = clone_model(quantized_model)
        from repro.quant import quant_layers

        for a, b in zip(quant_layers(quantized_model), quant_layers(clone)):
            assert a.act_step == b.act_step
            assert a.weight_step == b.weight_step


class TestPrecomputeLogits:
    def test_matches_direct_forward(self, trained_fp_model, tiny_dataset):
        x = tiny_dataset.test_x[:40]
        logits = precompute_teacher_logits(trained_fp_model, x, batch_size=16)
        with no_grad():
            direct = trained_fp_model(Tensor(x)).data
        np.testing.assert_allclose(logits, direct, atol=1e-5)

    def test_shape(self, trained_fp_model, tiny_dataset):
        logits = precompute_teacher_logits(trained_fp_model, tiny_dataset.test_x[:10])
        assert logits.shape == (10, 10)

    def test_restores_training_mode(self, tiny_dataset):
        model = simplecnn(base_width=4, rng=0)
        model.train()
        precompute_teacher_logits(model, tiny_dataset.test_x[:8])
        assert model.training


class TestKDBatchLoss:
    def test_indexes_precomputed_logits(self, rng):
        teacher_logits = rng.normal(size=(20, 10))
        loss_fn = kd_batch_loss(teacher_logits, temperature=2.0)
        indices = np.array([3, 7, 11])
        student = Tensor(teacher_logits[indices].copy(), requires_grad=True)
        labels = rng.integers(0, 10, size=3)
        loss = loss_fn(student, labels, indices)
        # With student == teacher the soft term is minimal; check finiteness
        # and gradient flow.
        loss.backward()
        assert np.isfinite(loss.item())
        assert student.grad is not None


class TestApproxKDConfig:
    def test_temperature_grid_matches_paper(self):
        assert TEMPERATURE_GRID == (1.0, 2.0, 5.0, 10.0)


class TestRecommendedT2:
    def test_policy_monotone_in_mre(self):
        assert recommended_t2(0.02) <= recommended_t2(0.10) <= recommended_t2(0.20)

    def test_paper_anchors(self):
        # Table III: truncated3 (5.5%) best at T=2; truncated5 best at 5-10;
        # EvoA 104/469/228/145 (19-21%) best at 10.
        assert recommended_t2(0.055) == 2.0
        assert recommended_t2(0.20) == 10.0
