"""Kill-and-resume: a resumed run is bit-for-bit the uninterrupted run."""

import dataclasses

import numpy as np
import pytest

from repro.models import simplecnn
from repro.resilience import CheckpointManager
from repro.train import TrainConfig, cross_entropy_loss, train_model
from repro.utils.serialization import model_state_arrays

pytestmark = pytest.mark.resilience

FULL = TrainConfig(epochs=4, batch_size=128, lr=0.05, momentum=0.9, seed=3)
HALF = dataclasses.replace(FULL, epochs=2)


def make_model():
    return simplecnn(base_width=4, rng=0)


def assert_same_weights(a, b):
    want, got = model_state_arrays(a), model_state_arrays(b)
    assert set(want) == set(got)
    for key in want:
        np.testing.assert_array_equal(want[key], got[key], err_msg=key)


class TestBitwiseResume:
    def test_interrupted_run_resumes_identically(self, tiny_dataset, tmp_path):
        # Reference: the uninterrupted 4-epoch run.
        reference = make_model()
        ref_history = train_model(
            reference, tiny_dataset, cross_entropy_loss(), FULL
        )

        # "Crash" after epoch 2: train half the epochs with checkpointing...
        interrupted = make_model()
        train_model(
            interrupted,
            tiny_dataset,
            cross_entropy_loss(),
            HALF,
            checkpoints=CheckpointManager(tmp_path / "ckpt"),
        )

        # ...then resume a *fresh* process (fresh model object) to the end.
        resumed = make_model()
        history = train_model(
            resumed,
            tiny_dataset,
            cross_entropy_loss(),
            FULL,
            checkpoints=CheckpointManager(tmp_path / "ckpt"),
            resume=True,
        )

        assert_same_weights(reference, resumed)
        assert history.train_loss == ref_history.train_loss
        assert history.test_accuracy == ref_history.test_accuracy
        assert history.learning_rate == ref_history.learning_rate

    def test_resume_event_emitted(self, tiny_dataset, tmp_path, events):
        model = make_model()
        manager = CheckpointManager(tmp_path / "ckpt")
        train_model(model, tiny_dataset, cross_entropy_loss(), HALF,
                    checkpoints=manager)
        train_model(make_model(), tiny_dataset, cross_entropy_loss(), FULL,
                    checkpoints=manager, resume=True)
        resumes = [
            r for r in events.records
            if r["type"] == "checkpoint" and r["action"] == "resume"
        ]
        assert len(resumes) == 1
        assert resumes[0]["epoch"] == HALF.epochs

    def test_resume_with_no_checkpoints_trains_from_scratch(
        self, tiny_dataset, tmp_path
    ):
        reference = make_model()
        ref_history = train_model(reference, tiny_dataset, cross_entropy_loss(), HALF)
        fresh = make_model()
        history = train_model(
            fresh,
            tiny_dataset,
            cross_entropy_loss(),
            HALF,
            checkpoints=CheckpointManager(tmp_path / "empty"),
            resume=True,
        )
        assert_same_weights(reference, fresh)
        assert history.train_loss == ref_history.train_loss

    def test_completed_run_does_not_retrain(self, tiny_dataset, tmp_path):
        manager = CheckpointManager(tmp_path / "ckpt")
        done = make_model()
        train_model(done, tiny_dataset, cross_entropy_loss(), HALF,
                    checkpoints=manager)
        again = make_model()
        history = train_model(again, tiny_dataset, cross_entropy_loss(), HALF,
                              checkpoints=manager, resume=True)
        assert_same_weights(done, again)
        # All epochs were restored from the checkpoint, none re-run.
        assert len(history.train_loss) == HALF.epochs


class TestAlgorithm1StageResume:
    """``run_algorithm1(checkpoint_dir=..., resume=True)`` reloads the
    persisted quantization stage instead of re-running it."""

    CONFIG = TrainConfig(epochs=1, batch_size=64, lr=0.01, seed=0)

    def run(self, fp_model, data, run_dir, resume=False):
        from repro.pipeline import run_algorithm1

        return run_algorithm1(
            fp_model, data, "truncated4", quant_config=self.CONFIG,
            approx_config=self.CONFIG, checkpoint_dir=run_dir, resume=resume,
        )

    def test_artifact_skips_the_quantization_stage(
        self, trained_fp_model, tiny_dataset, tmp_path, events, monkeypatch
    ):
        import shutil

        import repro.pipeline.algorithm1 as algorithm1

        first = self.run(trained_fp_model, tiny_dataset, tmp_path / "run")
        # Drop the approximation checkpoints so stage 2 retrains from the
        # reloaded stage-1 model rather than restoring its own last epoch.
        shutil.rmtree(tmp_path / "run" / "approximation")

        def must_not_run(*args, **kwargs):
            raise AssertionError("quantization_stage ran despite its artifact")

        monkeypatch.setattr(algorithm1, "quantization_stage", must_not_run)
        resumed = self.run(trained_fp_model, tiny_dataset, tmp_path / "run", resume=True)

        assert_same_weights(first.quantized_model, resumed.quantized_model)
        assert_same_weights(first.approximate_model, resumed.approximate_model)
        assert resumed.quantization.accuracy_after == first.quantization.accuracy_after
        assert any(
            r["type"] == "checkpoint" and r["action"] == "stage_resume"
            for r in events.records
        )

    def test_corrupt_artifact_reruns_the_stage(
        self, trained_fp_model, tiny_dataset, tmp_path, events, monkeypatch
    ):
        import repro.pipeline.algorithm1 as algorithm1

        self.run(trained_fp_model, tiny_dataset, tmp_path / "run")
        artifact = tmp_path / "run" / "quantized-model.npz"
        artifact.write_bytes(b"not an npz archive")

        calls = []
        real_stage = algorithm1.quantization_stage

        def counting_stage(*args, **kwargs):
            calls.append(1)
            return real_stage(*args, **kwargs)

        monkeypatch.setattr(algorithm1, "quantization_stage", counting_stage)
        self.run(trained_fp_model, tiny_dataset, tmp_path / "run", resume=True)

        assert calls == [1]
        corrupt = [
            r for r in events.records
            if r["type"] == "checkpoint" and r["action"] == "corrupt"
        ]
        assert [r["path"] for r in corrupt] == [str(artifact)]
