"""Shared fixtures: small datasets and models sized for fast unit tests."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.data import make_synthetic_cifar
from repro.models import simplecnn
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.pipeline import quantization_stage
from repro.train import TrainConfig, cross_entropy_loss, train_model


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@contextlib.contextmanager
def _profiled():
    rows: dict[str, dict] = {}
    with met.collecting_metrics() as registry, tr.tracing(record=False, aggregate=True):
        yield rows
    summary = tr.profile_summary(registry)
    rows.update((row["name"], row) for row in summary["timers"] + summary["counters"])


@pytest.fixture
def profiled():
    """``with profiled() as rows:`` runs the block in ``--profile`` mode.

    On exit ``rows`` maps every span name and every metrics series to its
    :func:`repro.obs.trace.profile_summary` row (absent names were never
    hit).
    """
    return _profiled


@pytest.fixture(scope="session")
def tiny_dataset():
    """300/150 split of 16x16 synthetic images — fast but learnable."""
    return make_synthetic_cifar(num_train=300, num_test=150, image_size=16, seed=7)


@pytest.fixture(scope="session")
def trained_fp_model(tiny_dataset):
    """A SimpleCNN trained to high accuracy on the tiny dataset.

    Session-scoped: tests must not mutate it (clone first).
    """
    model = simplecnn(base_width=8, rng=0)
    config = TrainConfig(epochs=6, batch_size=64, lr=0.05, momentum=0.9, seed=0)
    train_model(model, tiny_dataset, cross_entropy_loss(), config)
    model.eval()
    return model


@pytest.fixture(scope="session")
def quantized_model(trained_fp_model, tiny_dataset):
    """8A4W-quantized + KD-fine-tuned version of the trained model.

    Session-scoped: tests must not mutate it (clone first).
    """
    config = TrainConfig(epochs=2, batch_size=64, lr=0.01, momentum=0.9, seed=0)
    model, _ = quantization_stage(
        trained_fp_model, tiny_dataset, train_config=config, temperature=1.0
    )
    model.eval()
    return model
