"""Trainer callbacks: the stop contract of ``Callback.on_epoch_end``."""

from repro.models import TinyMLP
from repro.train import (
    Callback,
    History,
    TrainConfig,
    cross_entropy_loss,
    train_model,
)


class TestBaseCallback:
    def test_default_never_stops(self):
        assert not Callback().on_epoch_end(0, History(), None)

    def test_true_stops_training(self, tiny_dataset):
        class StopAfterTwo(Callback):
            def on_epoch_end(self, epoch, history, model):
                return epoch >= 1

        model = TinyMLP(3 * 16 * 16, hidden=16, rng=0)
        cfg = TrainConfig(epochs=20, batch_size=64, lr=1e-6, seed=0)
        history = train_model(
            model, tiny_dataset, cross_entropy_loss(), cfg, callbacks=[StopAfterTwo()]
        )
        assert len(history.train_loss) == 2
