"""Knowledge distillation for approximate CNNs (ApproxKD)."""

from repro.distill.approxkd import TEMPERATURE_GRID, recommended_t2
from repro.distill.losses import distillation_loss, hard_loss, soft_loss
from repro.distill.teacher import clone_model, kd_batch_loss, precompute_teacher_logits

__all__ = [
    "hard_loss",
    "soft_loss",
    "distillation_loss",
    "clone_model",
    "precompute_teacher_logits",
    "kd_batch_loss",
    "TEMPERATURE_GRID",
    "recommended_t2",
]
