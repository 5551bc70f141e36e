"""Trainer callbacks: the base class and per-epoch telemetry.

Callbacks observe the training loop after each evaluated epoch and may
request a stop. They compose: ``train_model(..., callbacks=[...])``.

When a :class:`repro.resilience.DivergenceGuard` is active, callbacks are
also notified of every rollback through :meth:`Callback.on_rollback`, so
stateful callbacks can discount the rolled-back epoch. The guard itself
is not a callback — it needs to run inside the batch loop — and is
passed to ``train_model`` separately via the ``guard`` keyword.
"""

from __future__ import annotations

from repro.nn.module import Module
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs.stats import LayerStats, StatsHook
from repro.train.trainer import History


class Callback:
    """Base callback; ``on_epoch_end`` returning True stops training."""

    def on_epoch_end(self, epoch: int, history: History, model: Module) -> bool:
        return False

    def on_rollback(self, epoch: int, reason: str, model: Module) -> None:
        """Called when the divergence guard rolled ``epoch`` back.

        The epoch was never committed to the history; ``model`` has
        already been restored to its epoch-start state. Default: no-op.
        """


class TelemetryCallback(Callback):
    """Drain :class:`~repro.obs.StatsHook` accumulators once per epoch.

    At each evaluated epoch the callback samples gradient norms, snapshots
    (and resets) every hook, keeps the snapshots in ``per_epoch`` for
    programmatic use, and emits one ``layer_stats`` event per layer to the
    event log. Never requests a stop.

    >>> hooks = attach_stats_hooks(model, layer_types=(QuantConv2d,))
    >>> train_model(model, data, loss, cfg, callbacks=[TelemetryCallback(hooks)])
    """

    def __init__(
        self,
        hooks: dict[str, StatsHook],
        event_log: "obs_events.EventLog | None" = None,
    ):
        self.hooks = hooks
        self._log = event_log
        self.per_epoch: list[dict[str, LayerStats]] = []

    def on_epoch_end(self, epoch: int, history: History, model: Module) -> bool:
        log = self._log or obs_events.get_event_log()
        snapshots: dict[str, LayerStats] = {}
        for name, hook in self.hooks.items():
            hook.observe_gradients()
            stats = hook.snapshot(reset=True)
            snapshots[name] = stats
            if log.enabled:
                log.emit(obs_events.LAYER_STATS, epoch=epoch + 1, **stats.to_dict())
            if met.enabled:
                # Gauge series per layer: the metrics snapshots turn the
                # per-epoch StatsHook values into a time series.
                met.set_gauge("layer.eps_mean", float(stats.eps_mean), layer=name)
                if stats.grad_norm is not None:
                    met.set_gauge("layer.grad_norm", float(stats.grad_norm), layer=name)
        self.per_epoch.append(snapshots)
        return False
