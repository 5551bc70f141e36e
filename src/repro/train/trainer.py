"""Generic fine-tuning loop shared by all retraining methods.

The paper's methods differ only in the per-batch loss (plain cross-entropy,
KD losses, alpha regularization) and in the backward behaviour of the
quantized layers (STE vs gradient estimation, configured on the layers
themselves). The trainer is agnostic to all of that: it takes a
``batch_loss(logits, labels, indices) -> Tensor`` closure and handles
batching, augmentation, the optimizer, the LR schedule and history
recording.

Resilience (``docs/RESILIENCE.md``) is opt-in through two keyword
arguments: ``checkpoints`` (a :class:`repro.resilience.CheckpointManager`)
saves an atomic, checksummed checkpoint after each epoch and — together
with ``resume=True`` — continues a killed run bit-for-bit (model,
optimizer momentum, RNG stream and history are all restored, so the
resumed run's remaining epochs are identical to an uninterrupted one);
``guard`` (a :class:`repro.resilience.DivergenceGuard`) rolls a diverging
epoch back and retries it at a reduced learning rate before a NaN can
reach the weights.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.autograd.tensor import Tensor
from repro.data.dataloader import augment_batch
from repro.data.synthetic_cifar import Dataset
from repro.errors import ConfigError, DivergenceError
from repro.nn.module import Module
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.sim.proxsim import evaluate_accuracy
from repro.train.lr_schedule import LRSchedule, StepDecay
from repro.train.optim import SGD, global_grad_norm
from repro.utils.rng import get_rng_state, new_rng, set_rng_state

if TYPE_CHECKING:  # imported lazily at runtime to keep the module graph acyclic
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.guard import DivergenceGuard

BatchLoss = Callable[[Tensor, np.ndarray, np.ndarray], Tensor]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one fine-tuning run.

    Defaults mirror the paper's fine-tuning setup (section IV-B): minibatch
    128, SGD momentum, step decay 0.1 every 15 epochs.
    """

    epochs: int = 30
    batch_size: int = 128
    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_decay: float = 0.1
    lr_decay_every: int = 15
    grad_clip: float | None = None
    augment: bool = False
    seed: int = 0
    eval_every: int = 1

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")

    def make_schedule(self) -> LRSchedule:
        return StepDecay(self.lr, self.lr_decay, self.lr_decay_every)


@dataclass
class History:
    """Per-epoch training record.

    ``epoch_time`` holds the wall seconds of each individual epoch
    (training batches plus that epoch's evaluation, if any); ``wall_time``
    remains the total of the whole run for backwards compatibility.
    """

    train_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    epoch_time: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def final_accuracy(self) -> float:
        if not self.test_accuracy:
            raise ConfigError("no evaluations recorded")
        return self.test_accuracy[-1]

    @property
    def best_accuracy(self) -> float:
        if not self.test_accuracy:
            raise ConfigError("no evaluations recorded")
        return max(self.test_accuracy)


def history_to_dict(history: History) -> dict:
    """JSON-safe view of a :class:`History` (checkpoint payloads)."""
    return asdict(history)


def history_from_dict(payload: dict) -> History:
    """Rebuild a :class:`History` saved with :func:`history_to_dict`."""
    return History(
        train_loss=[float(v) for v in payload.get("train_loss", [])],
        test_accuracy=[float(v) for v in payload.get("test_accuracy", [])],
        learning_rate=[float(v) for v in payload.get("learning_rate", [])],
        epoch_time=[float(v) for v in payload.get("epoch_time", [])],
        wall_time=float(payload.get("wall_time", 0.0)),
    )


def train_model(
    model: Module,
    data: Dataset,
    batch_loss: BatchLoss,
    config: TrainConfig,
    callbacks: list | None = None,
    *,
    guard: "DivergenceGuard | None" = None,
    checkpoints: "CheckpointManager | None" = None,
    resume: bool = False,
) -> History:
    """Run the fine-tuning loop and return its :class:`History`.

    ``callbacks`` (see :mod:`repro.train.callbacks`) are invoked after each
    evaluated epoch; any callback returning True stops training early.

    ``checkpoints`` saves crash-safe state after every epoch (at the
    manager's cadence) and, with ``resume=True``, restarts from the newest
    valid checkpoint instead of from scratch. ``guard`` watches each epoch
    for divergence (non-finite loss, exploding gradients, accuracy
    collapse), rolls back to the epoch-start snapshot and retries with a
    reduced learning rate; when its retry budget is spent a
    :class:`repro.errors.DivergenceError` is raised.
    """
    rng = new_rng(config.seed)
    optimizer = SGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        grad_clip=config.grad_clip,
    )
    schedule = config.make_schedule()
    history = History()
    log = obs_events.get_event_log()

    start_epoch = 0
    if checkpoints is not None and resume:
        loaded = checkpoints.load_latest(model, optimizer)
        if loaded is not None:
            start_epoch = loaded.epoch
            if "history" in loaded.state:
                history = history_from_dict(loaded.state["history"])
            if "rng" in loaded.state:
                set_rng_state(rng, loaded.state["rng"])
            if guard is not None:
                guard.lr_scale = float(loaded.state.get("lr_scale", 1.0))
            if log.enabled:
                log.checkpoint("resume", epoch=start_epoch, path=str(loaded.path))

    started = time.perf_counter()
    n = len(data.train_x)
    epoch = start_epoch
    while epoch < config.epochs:
        # A `continue` or `break` inside the `with` still closes the epoch
        # span, so rollback retries show up as separate epoch spans.
        with tr.span("epoch", epoch=epoch + 1):
            epoch_started = time.perf_counter()
            if guard is not None:
                guard.remember(epoch, model, optimizer, rng)
            lr = schedule.lr_at(epoch) * (guard.lr_scale if guard is not None else 1.0)
            optimizer.lr = lr
            model.train()
            order = rng.permutation(n)
            epoch_loss, batches = 0.0, 0
            failure: tuple[str, str] | None = None
            for start in range(0, n, config.batch_size):
                batch_started = time.perf_counter() if met.enabled else 0.0
                idx = order[start : start + config.batch_size]
                xb = data.train_x[idx]
                if config.augment:
                    xb = augment_batch(xb, rng)
                yb = data.train_y[idx]
                optimizer.zero_grad()
                logits = model(Tensor(xb))
                loss = batch_loss(logits, yb, idx)
                loss_value = loss.item()
                if guard is not None:
                    reason = guard.check_loss(loss_value)
                    if reason is not None:
                        failure = (reason, f"batch {batches}: loss={loss_value!r}")
                        break
                loss.backward()
                if guard is not None and guard.config.max_grad_norm is not None:
                    grad_norm = global_grad_norm(optimizer.params)
                    reason = guard.check_grad_norm(grad_norm)
                    if reason is not None:
                        failure = (reason, f"batch {batches}: grad_norm={grad_norm:.3e}")
                        break
                optimizer.step()
                epoch_loss += loss_value
                batches += 1
                if met.enabled:
                    met.observe(
                        "train.batch_seconds", time.perf_counter() - batch_started
                    )

            acc = None
            if failure is None and (
                (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1
            ):
                acc = evaluate_accuracy(
                    model, data.test_x, data.test_y, config.batch_size
                )
                if guard is not None:
                    reason = guard.check_accuracy(acc)
                    if reason is not None:
                        failure = (reason, f"accuracy={acc:.4f}")

            if failure is not None:
                reason, detail = failure
                retrying = guard.trip(epoch, reason, detail, model, optimizer, rng)
                if callbacks:
                    for cb in callbacks:
                        handler = getattr(cb, "on_rollback", None)
                        if handler is not None:
                            handler(epoch, reason, model)
                if retrying:
                    continue  # retry the same epoch at the reduced LR
                raise DivergenceError(
                    f"training diverged at epoch {epoch + 1}/{config.epochs} "
                    f"({reason}: {detail}) and the guard's retry budget is spent "
                    f"after {guard.attempts} rollback(s)"
                )

            history.train_loss.append(epoch_loss / max(batches, 1))
            history.learning_rate.append(lr)
            if acc is not None:
                history.test_accuracy.append(acc)
                if guard is not None:
                    guard.record_accuracy(acc)
            history.epoch_time.append(time.perf_counter() - epoch_started)
            if log.enabled:
                log.epoch(
                    epoch=epoch + 1,
                    epochs=config.epochs,
                    loss=history.train_loss[-1],
                    lr=lr,
                    accuracy=acc,
                    epoch_time=history.epoch_time[-1],
                )
            met.emit_snapshot(log, scope="epoch", epoch=epoch + 1)
            if checkpoints is not None and (
                (epoch + 1) % checkpoints.every == 0 or epoch == config.epochs - 1
            ):
                checkpoints.save(
                    epoch + 1,
                    model,
                    optimizer,
                    state={
                        "rng": get_rng_state(rng),
                        "history": history_to_dict(history),
                        "lr_scale": guard.lr_scale if guard is not None else 1.0,
                        "seed": config.seed,
                    },
                )
            if acc is not None and callbacks and any(
                cb.on_epoch_end(epoch, history, model) for cb in callbacks
            ):
                break
            epoch += 1
    if not history.test_accuracy and config.epochs == 0:
        history.test_accuracy.append(
            evaluate_accuracy(model, data.test_x, data.test_y, config.batch_size)
        )
    history.wall_time = time.perf_counter() - started
    return history


def cross_entropy_loss() -> BatchLoss:
    """Plain hard-label loss (Eq. 1) — used by normal/passive retraining."""
    from repro.autograd.ops_loss import softmax_cross_entropy

    def loss(logits: Tensor, labels: np.ndarray, indices: np.ndarray) -> Tensor:
        return softmax_cross_entropy(logits, labels)

    return loss
