"""Offline summarisation of a JSONL run log (``repro report``).

Reconstructs, from the event stream alone, the things someone asks first
about a finished run: what command ran, how accuracy evolved, where the
wall time went (per epoch and per stage), and which timers were hottest.
The final accuracy reported here is byte-identical to what the producing
command printed — both read the same ``eval`` events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.obs import events as ev
from repro.obs import metrics as met_mod


@dataclass
class StageTime:
    """Duration of one named pipeline stage."""

    name: str
    duration: float
    accuracy_before: float | None = None
    accuracy_after: float | None = None


@dataclass
class RunSummary:
    """Everything ``repro report`` prints, as structured data."""

    run_id: str
    command: str | None = None
    status: str | None = None
    wall_time: float = 0.0
    num_events: int = 0
    skipped_records: int = 0
    final_accuracy: float | None = None
    final_accuracy_name: str | None = None
    evals: list[tuple[str, float]] = field(default_factory=list)
    accuracy_trajectory: list[float] = field(default_factory=list)
    epoch_times: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    stages: list[StageTime] = field(default_factory=list)
    hottest: list[dict] = field(default_factory=list)
    counters: list[dict] = field(default_factory=list)
    metrics: dict | None = None  # last metrics-event snapshot in the log
    metrics_snapshots: int = 0  # how many metrics events the log held
    trace: dict | None = None  # trace event payload (path + top self-time)

    @property
    def plan_cache(self) -> dict:
        """Kernel-plan cache pressure (the profile's ``plan_cache.*`` rows).

        Keyed by event (``hit``, ``miss``, ``build``, ``build_bitplane``,
        ...); sized events (builds, repairs) add ``<event>_bytes``.
        """
        out = {}
        for row in self.counters:
            name = str(row.get("name", ""))
            if name.startswith("plan_cache."):
                short = name[len("plan_cache."):]
                out[short] = int(row.get("calls", 0))
                if row.get("sum"):
                    out[f"{short}_bytes"] = int(row["sum"])
        return out

    def latency_quantiles(self) -> dict[str, dict[str, float]]:
        """p50/p95/p99 of every histogram series in the final snapshot."""
        if not self.metrics:
            return {}
        out = {}
        for key, payload in self.metrics.get("histograms", {}).items():
            out[key] = met_mod.snapshot_quantiles(payload)
        return out

    def plan_cache_hit_rate(self) -> "list[tuple[float, float]] | None":
        """``(t, cumulative hit rate)`` over the run's metrics snapshots.

        Needs the raw records; populated by :func:`summarize_run` when the
        log carries ``metrics`` events with plan-cache counters.
        """
        return self._hit_rate_series or None

    _hit_rate_series: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """Full machine-readable view (``repro report --format json``)."""
        payload = asdict(self)
        payload.pop("_hit_rate_series", None)
        payload["plan_cache"] = self.plan_cache
        payload["latency_quantiles"] = self.latency_quantiles()
        hit_rate = self.plan_cache_hit_rate()
        if hit_rate:
            payload["plan_cache_hit_rate"] = hit_rate
        payload["evals"] = [
            {"name": name, "accuracy": accuracy} for name, accuracy in self.evals
        ]
        payload["quantile_rel_error"] = met_mod.QUANTILE_REL_ERROR
        return payload


def summarize_run(path: str | Path, strict: bool = False) -> RunSummary:
    """Parse and summarise one JSONL event log.

    By default a truncated final line (the normal artifact of a crashed
    run) is skipped and counted in ``skipped_records``; ``strict=True``
    restores the old raise-on-any-corruption behaviour.
    """
    skipped: list[str] = []
    records = ev.read_events(path, strict=strict, skipped=skipped)
    if not records:
        raise ReproError(f"event log is empty: {path}")
    summary = RunSummary(run_id=str(records[0].get("run", "?")), num_events=len(records))
    summary.skipped_records = len(skipped)
    summary.wall_time = max(float(r.get("t", 0.0)) for r in records)

    for r in ev.iter_events(records, ev.RUN_START):
        summary.command = r.get("command") or summary.command
    for r in ev.iter_events(records, ev.RUN_END):
        summary.status = r.get("status")

    for r in ev.iter_events(records, ev.EPOCH):
        if r.get("accuracy") is not None:
            summary.accuracy_trajectory.append(float(r["accuracy"]))
        if r.get("epoch_time") is not None:
            summary.epoch_times.append(float(r["epoch_time"]))
        if r.get("loss") is not None:
            summary.train_loss.append(float(r["loss"]))

    for r in ev.iter_events(records, ev.EVAL):
        summary.evals.append((str(r.get("name", "?")), float(r["accuracy"])))
    if summary.evals:
        summary.final_accuracy_name, summary.final_accuracy = summary.evals[-1]
    elif summary.accuracy_trajectory:
        summary.final_accuracy_name = "last epoch"
        summary.final_accuracy = summary.accuracy_trajectory[-1]

    starts: dict[str, float] = {}
    for r in ev.iter_events(records, ev.STAGE):
        name = str(r.get("name", "?"))
        if r.get("phase") == "start":
            starts[name] = float(r.get("t", 0.0))
        elif r.get("phase") == "end":
            duration = r.get("duration")
            if duration is None and name in starts:
                duration = float(r.get("t", 0.0)) - starts[name]
            summary.stages.append(
                StageTime(
                    name=name,
                    duration=float(duration or 0.0),
                    accuracy_before=r.get("accuracy_before"),
                    accuracy_after=r.get("accuracy_after"),
                )
            )

    for r in ev.iter_events(records, ev.PROFILE):
        summary.hottest = list(r.get("timers", []))[:10]
        summary.counters = list(r.get("counters", []))

    for r in ev.iter_events(records, ev.METRICS):
        snapshot = r.get("metrics")
        if not isinstance(snapshot, dict):
            continue
        summary.metrics_snapshots += 1
        summary.metrics = snapshot
        counters = snapshot.get("counters", {})
        hits = float(counters.get("plan_cache.hit", 0))
        misses = float(counters.get("plan_cache.miss", 0))
        if hits + misses > 0:
            summary._hit_rate_series.append(
                (float(r.get("t", 0.0)), hits / (hits + misses))
            )

    for r in ev.iter_events(records, ev.TRACE):
        summary.trace = {
            k: v for k, v in r.items() if k in ("path", "spans", "top_self_time")
        }

    return summary


def render_summary(summary: RunSummary) -> str:
    """Human-readable multi-line rendering of a :class:`RunSummary`."""
    lines = [f"run {summary.run_id}: {summary.command or '(unknown command)'}"]
    status = summary.status or "(no run_end event)"
    lines.append(f"status: {status}   events: {summary.num_events}   "
                 f"wall time: {summary.wall_time:.2f}s")
    if summary.skipped_records:
        lines.append(
            f"warning: skipped {summary.skipped_records} truncated record(s) "
            f"at end of log (crashed run?)"
        )

    if summary.evals:
        lines.append("evaluations:")
        for name, accuracy in summary.evals:
            lines.append(f"  {name:28s} {100 * accuracy:7.2f}%")
    if summary.accuracy_trajectory:
        traj = "  ".join(f"{100 * a:.2f}" for a in summary.accuracy_trajectory)
        lines.append(f"accuracy by epoch [%]: {traj}")
    if summary.epoch_times:
        total = sum(summary.epoch_times)
        mean = total / len(summary.epoch_times)
        times = "  ".join(f"{t:.2f}" for t in summary.epoch_times)
        lines.append(
            f"epoch wall time [s]: {times}  (total {total:.2f}, mean {mean:.2f})"
        )
    if summary.stages:
        lines.append("stages:")
        for stage in summary.stages:
            accs = ""
            if stage.accuracy_before is not None and stage.accuracy_after is not None:
                accs = (
                    f"  {100 * stage.accuracy_before:.2f}% -> "
                    f"{100 * stage.accuracy_after:.2f}%"
                )
            lines.append(f"  {stage.name:36s} {stage.duration:8.2f}s{accs}")
    if summary.hottest:
        lines.append("hottest timers:")
        lines.append(f"  {'name':32s} {'calls':>9s} {'total[s]':>10s}")
        for row in summary.hottest:
            lines.append(
                f"  {row.get('name', '?'):32s} {row.get('calls', 0):9d} "
                f"{row.get('total', 0.0):10.4f}"
            )
    cache = summary.plan_cache
    if cache:
        hits = cache.get("hit", 0)
        misses = cache.get("miss", 0)
        lookups = hits + misses
        rate = f"  ({100.0 * hits / lookups:.1f}% hit)" if lookups else ""
        lines.append("plan cache:")
        lines.append(
            f"  hits {hits}  misses {misses}  "
            f"revalidates {cache.get('revalidate', 0)}  "
            f"bypasses {cache.get('bypass', 0)}  "
            f"plans built {cache.get('build', 0)} "
            f"({cache.get('build_bytes', 0)} bytes, "
            f"{cache.get('build_bitplane', 0)} bit-plane)  "
            f"repaired {cache.get('repair', 0)}{rate}"
        )
    quantiles = summary.latency_quantiles()
    if quantiles:
        lines.append(
            f"metrics ({summary.metrics_snapshots} snapshot(s), quantile error "
            f"<= {100 * met_mod.QUANTILE_REL_ERROR:.1f}%):"
        )
        lines.append(
            f"  {'series':32s} {'count':>8s} {'p50':>12s} {'p95':>12s} {'p99':>12s}"
        )
        for key in sorted(quantiles):
            payload = summary.metrics["histograms"][key]
            row = quantiles[key]
            lines.append(
                f"  {key:32s} {payload.get('count', 0):8d}"
                f" {row.get('p50', float('nan')):12.6f}"
                f" {row.get('p95', float('nan')):12.6f}"
                f" {row.get('p99', float('nan')):12.6f}"
            )
        gauges = summary.metrics.get("gauges", {}) if summary.metrics else {}
        if gauges:
            lines.append("  gauges:")
            for key in sorted(gauges):
                lines.append(f"    {key:32s} {gauges[key]:.6g}")
    hit_rate = summary.plan_cache_hit_rate()
    if hit_rate:
        series = "  ".join(f"{100 * rate:.1f}" for _, rate in hit_rate[-12:])
        lines.append(f"plan cache hit rate over time [%]: {series}")
    if summary.trace:
        lines.append("trace:")
        if summary.trace.get("path"):
            lines.append(
                f"  chrome trace: {summary.trace['path']} "
                f"({summary.trace.get('spans', '?')} span(s))"
            )
        for row in list(summary.trace.get("top_self_time", []))[:5]:
            lines.append(
                f"  {row.get('name', '?'):32s} {row.get('calls', 0):6d} calls "
                f"self {row.get('self_s', 0.0):9.4f}s"
            )
    if summary.final_accuracy is not None:
        lines.append(
            f"final accuracy:   {100 * summary.final_accuracy:.2f}% "
            f"({summary.final_accuracy_name})"
        )
    return "\n".join(lines)
