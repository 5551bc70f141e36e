"""Optimizers, schedules, the fine-tuning loop and baseline methods."""

from repro.train.baselines import alpha_regularization_loss, remove_alpha_regularization
from repro.train.callbacks import Callback, TelemetryCallback
from repro.train.lr_schedule import LRSchedule, StepDecay
from repro.train.optim import SGD, Adam, Optimizer, clip_grad_norm, global_grad_norm
from repro.train.robustness import noisy_weight_training
from repro.train.trainer import (
    BatchLoss,
    History,
    TrainConfig,
    cross_entropy_loss,
    history_from_dict,
    history_to_dict,
    train_model,
)

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
    "noisy_weight_training",
    "Callback",
    "TelemetryCallback",
    "LRSchedule",
    "StepDecay",
    "TrainConfig",
    "History",
    "BatchLoss",
    "train_model",
    "cross_entropy_loss",
    "history_to_dict",
    "history_from_dict",
    "alpha_regularization_loss",
    "remove_alpha_regularization",
]
