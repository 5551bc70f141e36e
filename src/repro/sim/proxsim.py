"""ProxSim-style execution management for approximate CNNs.

The original ProxSim [5] is a TensorFlow framework that swaps exact GEMM
kernels for approximate-multiplier kernels during training and inference.
This module provides the same control surface for our quantized models:
attach a multiplier (by object or registry name) to every quantized GEMM
layer, optionally with a gradient-estimation error model, run evaluations,
and restore exact execution afterwards.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.approx.multiplier import Multiplier
from repro.approx.registry import as_multiplier
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.data.dataloader import iterate_batches
from repro.errors import ConfigError
from repro.ge.error_model import PiecewiseLinearErrorModel
from repro.ge.estimator import estimate_error_model
from repro.nn.module import Module
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.quant.convert import quant_layers


def resolve_multiplier(multiplier: Multiplier | str | None) -> Multiplier | None:
    """Accept a Multiplier instance, a registry name, or None."""
    return None if multiplier is None else as_multiplier(multiplier)


def attach_multiplier(
    model: Module,
    multiplier: Multiplier | str | None,
    error_model: PiecewiseLinearErrorModel | str | None = None,
    rng=0,
) -> Multiplier | None:
    """Attach ``multiplier`` to every quantized layer of ``model``.

    ``error_model`` may be a fitted :class:`PiecewiseLinearErrorModel`, the
    string ``"auto"`` (profile the multiplier by Monte-Carlo simulation, as
    the paper does), or None (plain STE backward). A model without
    quantized layers raises :class:`~repro.errors.ConfigError`.
    """
    mult = resolve_multiplier(multiplier)
    layers = list(quant_layers(model))
    if not layers:
        raise ConfigError("attach_multiplier: model has no quantized layers")
    if error_model == "auto":
        if mult is None or mult.is_exact:
            error_model = None
        else:
            error_model = estimate_error_model(mult, rng=rng)
    for layer in layers:
        layer.set_multiplier(mult, error_model)
    return mult


def detach_multiplier(model: Module) -> None:
    """Restore exact integer execution on every quantized layer."""
    for layer in quant_layers(model):
        layer.set_multiplier(None, None)


@contextlib.contextmanager
def approximate_execution(
    model: Module,
    multiplier: Multiplier | str | None,
    error_model: PiecewiseLinearErrorModel | str | None = None,
):
    """Context manager: approximate execution inside, previous state after.

    Only safe when all quantized layers share the same multiplier state
    (the uniform-approximation setting used throughout the paper).
    """
    previous = [(layer, layer.multiplier, layer.error_model) for layer in quant_layers(model)]
    attach_multiplier(model, multiplier, error_model)
    try:
        yield model
    finally:
        for layer, mult, em in previous:
            layer.set_multiplier(mult, em)


def evaluate_accuracy(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 128,
) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)`` in eval mode."""
    was_training = model.training
    model.eval()
    correct = 0
    with tr.span("eval", samples=len(y)), no_grad():
        for xb, yb in iterate_batches(x, y, batch_size, shuffle=False):
            batch_started = time.perf_counter() if met.enabled else 0.0
            logits = model(Tensor(xb))
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            if met.enabled:
                met.observe("eval.batch_seconds", time.perf_counter() - batch_started)
    model.train(was_training)
    return correct / len(y)
