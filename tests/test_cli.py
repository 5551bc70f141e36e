"""CLI: full pipeline through the command-line entry points."""

import pytest

from repro.cli import main

FAST_DATA = [
    "--num-train", "120", "--num-test", "60", "--image-size", "12",
    "--noise", "0.3", "--data-seed", "7",
]
FAST_TRAIN = ["--epochs", "1", "--batch-size", "64"]


@pytest.fixture(scope="module")
def fp_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fp.npz"
    code = main(
        ["train", "--model", "simplecnn", "--out", str(path), *FAST_DATA, *FAST_TRAIN]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def quant_checkpoint(fp_checkpoint, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "quant.npz"
    code = main(
        [
            "quantize",
            "--checkpoint", str(fp_checkpoint),
            "--out", str(path),
            *FAST_DATA,
            *FAST_TRAIN,
        ]
    )
    assert code == 0
    return path


class TestTrain:
    def test_creates_checkpoint_and_meta(self, fp_checkpoint):
        assert fp_checkpoint.exists()
        assert fp_checkpoint.with_suffix(".npz.meta.json").exists()


class TestQuantize:
    def test_creates_quantized_checkpoint(self, quant_checkpoint):
        import json

        meta = json.loads(quant_checkpoint.with_suffix(".npz.meta.json").read_text())
        assert meta["quantized"] is True

    def test_no_kd_flag(self, fp_checkpoint, tmp_path):
        out = tmp_path / "quant_nokd.npz"
        code = main(
            [
                "quantize", "--checkpoint", str(fp_checkpoint), "--out", str(out),
                "--no-kd", *FAST_DATA, *FAST_TRAIN,
            ]
        )
        assert code == 0 and out.exists()


class TestApproximate:
    def test_runs_and_saves(self, quant_checkpoint, tmp_path, capsys):
        out = tmp_path / "approx.npz"
        code = main(
            [
                "approximate",
                "--checkpoint", str(quant_checkpoint),
                "--multiplier", "truncated4",
                "--method", "approxkd_ge",
                "--out", str(out),
                *FAST_DATA,
                *FAST_TRAIN,
            ]
        )
        assert code == 0 and out.exists()
        assert "energy savings" in capsys.readouterr().out

    def test_rejects_fp_checkpoint(self, fp_checkpoint, capsys):
        code = main(
            [
                "approximate",
                "--checkpoint", str(fp_checkpoint),
                "--multiplier", "truncated4",
                *FAST_DATA,
                *FAST_TRAIN,
            ]
        )
        assert code == 1
        assert "quantized" in capsys.readouterr().err


class TestServe:
    def test_serve_flags_reach_the_server(self, fp_checkpoint, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH", "16")
        code = main(
            [
                "serve", str(fp_checkpoint), "--requests", "8", "--max-batch", "4",
                "--replicas", "1", *FAST_DATA,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 replica(s), max batch 4" in out
        assert "served 8 requests" in out


class TestEvaluate:
    def test_fp_checkpoint(self, fp_checkpoint, capsys):
        assert main(["evaluate", "--checkpoint", str(fp_checkpoint), *FAST_DATA]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_with_multiplier(self, quant_checkpoint, capsys):
        code = main(
            [
                "evaluate", "--checkpoint", str(quant_checkpoint),
                "--multiplier", "truncated5", *FAST_DATA,
            ]
        )
        assert code == 0

    def test_multiplier_on_fp_checkpoint_fails(self, fp_checkpoint, capsys):
        code = main(
            [
                "evaluate", "--checkpoint", str(fp_checkpoint),
                "--multiplier", "truncated5", *FAST_DATA,
            ]
        )
        assert code == 1


class TestSweepAndResiliency:
    def test_sweep_prints_grid_and_saves(self, quant_checkpoint, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--checkpoint", str(quant_checkpoint),
                "--multipliers", "truncated3",
                "--methods", "normal",
                "--out", str(out),
                *FAST_DATA,
                *FAST_TRAIN,
            ]
        )
        assert code == 0 and out.exists()
        assert "truncated3" in capsys.readouterr().out

    def test_sweep_requires_quantized(self, fp_checkpoint, capsys):
        code = main(
            [
                "sweep", "--checkpoint", str(fp_checkpoint),
                "--multipliers", "truncated3", *FAST_DATA, *FAST_TRAIN,
            ]
        )
        assert code == 1

    def test_resiliency_lists_layers(self, quant_checkpoint, capsys):
        code = main(
            [
                "resiliency",
                "--checkpoint", str(quant_checkpoint),
                "--multiplier", "truncated5",
                *FAST_DATA,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classifier" in out


class TestInspection:
    def test_multipliers_listing(self, capsys):
        assert main(["multipliers"]) == 0
        out = capsys.readouterr().out
        assert "truncated5" in out and "evoapprox249" in out

    def test_multipliers_extended(self, capsys):
        assert main(["multipliers", "--extended"]) == 0
        out = capsys.readouterr().out
        assert "mitchell" in out and "drum3" in out

    def test_profile_biased(self, capsys):
        assert main(["profile", "--multiplier", "truncated5"]) == 0
        assert "f(y)" in capsys.readouterr().out

    def test_profile_unbiased(self, capsys):
        assert main(["profile", "--multiplier", "evoapprox228"]) == 0
        assert "STE" in capsys.readouterr().out

    def test_profile_method_flag_reaches_estimator(self, capsys):
        assert main(
            ["profile", "--multiplier", "truncated5", "--error-model-method", "montecarlo"]
        ) == 0
        assert "method montecarlo" in capsys.readouterr().out

    def test_zoo_ranks_registry(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "zoo.json"
        assert main(["zoo", "--top", "3", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "exact" in out  # the exact design always ranks first
        payload = json.loads(out_json.read_text())
        assert payload["entries"][0]["name"] == "exact"
        assert payload["entries"][0]["rank"] == 1

    def test_zoo_subset(self, capsys):
        assert main(["zoo", "--multipliers", "truncated3", "truncated5"]) == 0
        out = capsys.readouterr().out
        assert "truncated3" in out and "truncated5" in out
        assert "evoapprox249" not in out

    def test_missing_checkpoint_errors_cleanly(self, tmp_path, capsys):
        code = main(["evaluate", "--checkpoint", str(tmp_path / "none.npz"), *FAST_DATA])
        assert code == 1


class TestObservabilityFlags:
    def test_trace_metrics_and_reports(self, fp_checkpoint, tmp_path, capsys):
        import json

        log = tmp_path / "run.jsonl"
        trace = tmp_path / "trace.json"
        code = main(
            [
                "evaluate",
                "--checkpoint", str(fp_checkpoint),
                "--log-json", str(log),
                "--trace", str(trace),
                "--metrics",
                *FAST_DATA,
            ]
        )
        assert code == 0
        assert log.exists() and trace.exists()
        capsys.readouterr()

        # text report renders the metrics + trace sections
        assert main(["report", str(log)]) == 0
        text = capsys.readouterr().out
        assert "eval.batch_seconds" in text
        assert "quantile error" in text

        # --format json emits the full machine-readable RunSummary
        assert main(["report", str(log), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics_snapshots"] >= 1
        assert "eval.batch_seconds" in payload["latency_quantiles"]
        assert payload["trace"]["path"] == str(trace)

        # the trace subcommand summarises the exported file
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out and "eval" in out

    def test_log_rotation_flag(self, fp_checkpoint, tmp_path, capsys):
        from repro.obs import events as ev

        log = tmp_path / "rotated.jsonl"
        code = main(
            [
                "evaluate",
                "--checkpoint", str(fp_checkpoint),
                "--log-json", str(log),
                "--log-rotate-mb", "0.001",
                "--metrics",
                *FAST_DATA,
            ]
        )
        assert code == 0
        # 0.001 MB ≈ 1 KB: the run_start config alone forces a rotation,
        # and read_events reassembles the stream transparently
        records = ev.read_events(log)
        assert [r["type"] for r in records][0] == ev.RUN_START
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        assert "run " in capsys.readouterr().out
