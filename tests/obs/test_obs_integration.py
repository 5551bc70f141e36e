"""End-to-end observability: CLI event streams, report parity, overhead."""

import time

import pytest

from repro.cli import main
from repro.models import simplecnn
from repro.obs import events as ev
from repro.parallel import fork_available
from repro.train import TrainConfig, cross_entropy_loss, train_model

pytestmark = pytest.mark.obs

FAST_DATA = [
    "--num-train", "120", "--num-test", "60", "--image-size", "12",
    "--noise", "0.3", "--data-seed", "7",
]
FAST_TRAIN = ["--epochs", "1", "--batch-size", "64"]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """train -> quantize -> approximate, each with its own JSONL log."""
    root = tmp_path_factory.mktemp("obs_cli")
    fp, quant, approx = root / "fp.npz", root / "quant.npz", root / "approx.npz"
    logs = {name: root / f"{name}.jsonl" for name in ("train", "quantize", "approximate")}
    assert main([
        "train", "--model", "simplecnn", "--out", str(fp),
        "--log-json", str(logs["train"]), *FAST_DATA, *FAST_TRAIN,
    ]) == 0
    assert main([
        "quantize", "--checkpoint", str(fp), "--out", str(quant),
        "--log-json", str(logs["quantize"]), *FAST_DATA, *FAST_TRAIN,
    ]) == 0
    assert main([
        "approximate", "--checkpoint", str(quant), "--multiplier", "truncated4",
        "--out", str(approx), "--log-json", str(logs["approximate"]),
        *FAST_DATA, *FAST_TRAIN,
    ]) == 0
    return {"checkpoints": {"fp": fp, "quant": quant}, "logs": logs}


class TestEventStreamWellFormed:
    @pytest.mark.parametrize("command", ["train", "quantize", "approximate"])
    def test_envelope_and_ordering(self, cli_run, command):
        records = ev.read_events(cli_run["logs"][command])
        assert records[0]["type"] == ev.RUN_START
        assert records[0]["command"] == command
        assert records[-1]["type"] == ev.RUN_END
        assert records[-1]["status"] == "ok"
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [r["t"] for r in records]
        assert times == sorted(times)
        # one run id for the whole stream
        assert len({r["run"] for r in records}) == 1

    @pytest.mark.parametrize("command", ["quantize", "approximate"])
    def test_stage_events_are_balanced(self, cli_run, command):
        records = ev.read_events(cli_run["logs"][command])
        open_stages: list[str] = []
        for r in ev.iter_events(records, ev.STAGE):
            if r["phase"] == "start":
                open_stages.append(r["name"])
            else:
                assert open_stages.pop() == r["name"]
        assert not open_stages

    def test_train_log_has_epochs_and_final_eval(self, cli_run):
        records = ev.read_events(cli_run["logs"]["train"])
        epochs = list(ev.iter_events(records, ev.EPOCH))
        assert len(epochs) == 1
        assert epochs[0]["epoch"] == 1 and epochs[0]["epoch_time"] > 0
        evals = list(ev.iter_events(records, ev.EVAL))
        assert evals[-1]["name"] == "train/final"

    def test_approximate_log_has_before_after_evals(self, cli_run):
        records = ev.read_events(cli_run["logs"]["approximate"])
        names = [r["name"] for r in ev.iter_events(records, ev.EVAL)]
        assert "approximation/before_ft" in names
        assert names[-1] == "approximation/after_ft"
        (stage_start,) = [
            r for r in ev.iter_events(records, ev.STAGE) if r["phase"] == "start"
        ]
        assert stage_start["multiplier"] == "truncated4"

    def test_run_start_carries_config_and_meta(self, cli_run):
        records = ev.read_events(cli_run["logs"]["train"])
        start = records[0]
        assert start["config"]["model"] == "simplecnn"
        assert start["config"]["epochs"] == 1
        assert "python" in start["meta"] and "numpy" in start["meta"]


class TestReportParity:
    def test_report_reproduces_final_accuracy(self, cli_run, tmp_path, capsys):
        """`repro report RUN.jsonl` must echo the exact `final accuracy:`
        line that `repro approximate --log-json RUN.jsonl` printed."""
        logfile = tmp_path / "rerun.jsonl"
        assert main([
            "approximate", "--checkpoint", str(cli_run["checkpoints"]["quant"]),
            "--multiplier", "truncated4", "--log-json", str(logfile),
            *FAST_DATA, *FAST_TRAIN,
        ]) == 0
        approx_out = capsys.readouterr().out
        (approx_line,) = [
            line for line in approx_out.splitlines() if line.startswith("final accuracy:")
        ]

        assert main(["report", str(logfile)]) == 0
        report_out = capsys.readouterr().out
        report_lines = [
            line for line in report_out.splitlines() if line.startswith("final accuracy:")
        ]
        assert len(report_lines) == 1
        assert report_lines[0].startswith(approx_line)

    def test_report_on_train_log(self, cli_run, capsys):
        assert main(["report", str(cli_run["logs"]["train"])]) == 0
        out = capsys.readouterr().out
        assert "run " in out and "train" in out
        assert "epoch wall time" in out

    def test_report_missing_file_errors_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        captured = capsys.readouterr()
        assert "not found" in captured.err
        assert "Traceback" not in captured.err


class TestConsoleFlags:
    def test_quiet_keeps_results_drops_info(self, cli_run, capsys):
        assert main([
            "evaluate", "--checkpoint", str(cli_run["checkpoints"]["fp"]),
            "--quiet", *FAST_DATA,
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out  # scripting-facing result line survives

        assert main([
            "quantize", "--checkpoint", str(cli_run["checkpoints"]["fp"]),
            "--out", str(cli_run["checkpoints"]["fp"].parent / "q2.npz"),
            "--quiet", *FAST_DATA, *FAST_TRAIN,
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy before FT" not in out  # info line silenced
        assert "accuracy after FT" in out

    def test_profile_flag_prints_hot_timers(self, cli_run, tmp_path, capsys):
        logfile = tmp_path / "prof.jsonl"
        assert main([
            "evaluate", "--checkpoint", str(cli_run["checkpoints"]["quant"]),
            "--multiplier", "truncated4", "--profile", "--log-json", str(logfile),
            *FAST_DATA,
        ]) == 0
        out = capsys.readouterr().out
        assert "approx.lut_gather" in out
        (profile_event,) = ev.iter_events(ev.read_events(logfile), ev.PROFILE)
        assert any(t["name"] == "approx.lut_gather" for t in profile_event["timers"])

    @pytest.mark.skipif(not fork_available(), reason="process workers need fork")
    def test_profile_merges_worker_rows(self, cli_run, tmp_path, capsys, monkeypatch):
        # A sweep of two cells fanned out to two worker processes: their
        # span rows come back through the metrics merge into one table.
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        logfile = tmp_path / "workers.jsonl"
        assert main([
            "sweep", "--checkpoint", str(cli_run["checkpoints"]["quant"]),
            "--multipliers", "truncated3", "truncated4", "--methods", "normal",
            "--workers", "2", "--profile", "--log-json", str(logfile),
            *FAST_DATA, *FAST_TRAIN,
        ]) == 0
        assert "parallel.task" in capsys.readouterr().out
        (profile_event,) = ev.iter_events(ev.read_events(logfile), ev.PROFILE)
        rows = {t["name"]: t for t in profile_event["timers"]}
        # parallel.task spans only ever open inside the worker processes
        assert rows["parallel.task"]["calls"] >= 2
        assert rows["sweep.cell"]["calls"] == 2
        assert main(["report", str(logfile)]) == 0
        assert "parallel.task" in capsys.readouterr().out


class TestOverhead:
    def test_event_log_overhead_within_budget(self, tiny_dataset, tmp_path):
        """Acceptance bound: trainer with the event log on (stats hooks off)
        stays within 5% wall time of an uninstrumented run."""
        config = TrainConfig(epochs=2, batch_size=64, eval_every=1, seed=0)

        def run_once(log: ev.EventLog) -> float:
            model = simplecnn(base_width=4, rng=0)
            previous = ev.set_event_log(log)
            try:
                start = time.perf_counter()
                train_model(model, tiny_dataset, cross_entropy_loss(), config)
                return time.perf_counter() - start
            finally:
                ev.set_event_log(previous)

        plain_times, logged_times = [], []
        for i in range(3):  # interleave to share any thermal/load drift
            plain_times.append(run_once(ev.EventLog()))
            logged = ev.EventLog()
            logged.add_sink(ev.JsonlSink(tmp_path / f"bench{i}.jsonl"))
            logged_times.append(run_once(logged))
            logged.close()

        plain, logged = min(plain_times), min(logged_times)
        # 5% budget plus a small absolute allowance for timer jitter on
        # runs this short (a full epoch here is well under a second).
        assert logged <= plain * 1.05 + 0.05, (
            f"event log overhead too high: {logged:.3f}s vs {plain:.3f}s"
        )
        # the instrumented runs actually produced epoch events
        records = ev.read_events(tmp_path / "bench0.jsonl")
        assert len(list(ev.iter_events(records, ev.EPOCH))) == config.epochs
