"""Fully instrumented ApproxKD run: events, spans, metrics, span profile.

Trains a narrow ResNet20, quantizes it, attaches an approximate multiplier,
and records everything the observability subsystem offers along the way:

- a JSONL event log (``instrumented_run.jsonl``) with run/epoch/eval/stage
  and per-epoch ``metrics`` events — afterwards,
  ``repro report instrumented_run.jsonl`` reconstructs the run offline,
  including p50/p95/p99 latency quantiles;
- hierarchical spans (:mod:`repro.obs.trace`) covering every epoch, eval,
  approximate GEMM and Monte-Carlo chunk — exported as a Chrome
  ``trace_event`` file (``instrumented_trace.json``) loadable in
  chrome://tracing or Perfetto, or summarised with
  ``repro trace instrumented_trace.json``. The error models of two
  multipliers are fitted on a two-process pool, so the trace contains
  spans from at least two worker processes parented onto the dispatching
  ``fit_error_models`` span;
- streaming metrics (:mod:`repro.obs.metrics`): per-batch train/eval
  latency histograms, Monte-Carlo draw latency, plan-cache hit counters
  and per-layer ε(y)/grad-norm gauges via
  :class:`~repro.train.TelemetryCallback`;
- :class:`~repro.obs.StatsHook` on every quantized GEMM layer, streaming
  per-epoch activation ranges into ``layer_stats`` events;
- the ``--profile`` span aggregation: the same spans are also folded per
  name into metrics counters, and :func:`~repro.obs.profile_summary`
  shows where the wall time went (LUT gathers, im2col, fake
  quantization) with self time per span name.

The approximate fine-tune is spelled out manually (clone, attach
multiplier, train) rather than through ``approximation_stage`` so the
stats hooks can be attached to the exact model instance that trains.

Run:  python examples/instrumented_training.py
"""

from repro.approx import get_multiplier
from repro.data import make_synthetic_cifar
from repro.distill import clone_model
from repro.ge import estimate_error_model
from repro.models import resnet20
from repro.obs import (
    EventLog,
    JsonlSink,
    attach_stats_hooks,
    detach_stats_hooks,
    profile_summary,
    render_profile,
    set_event_log,
)
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import map_workers
from repro.pipeline import quantization_stage
from repro.quant import QuantConv2d, QuantLinear
from repro.sim import attach_multiplier, evaluate_accuracy
from repro.train import TelemetryCallback, TrainConfig, cross_entropy_loss, train_model

LOGFILE = "instrumented_run.jsonl"
TRACEFILE = "instrumented_trace.json"


def fit_one(name: str):
    """Fit one multiplier's error model (module-level: process-picklable)."""
    return name, estimate_error_model(get_multiplier(name))


def main() -> None:
    data = make_synthetic_cifar(num_train=600, num_test=300, image_size=16, seed=1)
    model = resnet20(width_mult=0.25, rng=0)

    log = EventLog()
    log.add_sink(JsonlSink(LOGFILE))
    previous = set_event_log(log)
    tr.reset_tracing()
    tr.enable_tracing(record=True, aggregate=True)
    met.reset_metrics()
    met.enable_metrics()
    log.run_start(
        command="examples/instrumented_training", config={"model": "resnet20/0.25"}
    )
    try:
        with tr.span("instrumented_run"):
            train_model(
                model,
                data,
                cross_entropy_loss(),
                TrainConfig(epochs=4, batch_size=64, lr=0.05, momentum=0.9, seed=0),
            )

            ft = TrainConfig(
                epochs=2, batch_size=32, lr=0.01, momentum=0.9, grad_clip=1.0, seed=0
            )
            quant_model, _ = quantization_stage(model, data, train_config=ft, temperature=1.0)

            # Fit two error models on a two-process pool: the worker spans
            # (ge.analytic_model, ge.analytic, ...) travel back with the results
            # and appear in the exported trace under their worker pids,
            # parented onto this fit_error_models span.
            with tr.span("fit_error_models"):
                fitted = dict(
                    map_workers(
                        fit_one,
                        ["truncated4", "mitchell"],
                        workers=2,
                    )
                )

            # Approximate fine-tune, instrumented per layer: activation
            # ranges, ε(y) error of the attached multiplier, gradient norms.
            student = clone_model(quant_model)
            attach_multiplier(student, "truncated4", error_model=fitted["truncated4"])
            hooks = attach_stats_hooks(
                student, layer_types=(QuantConv2d, QuantLinear), track_error=True
            )
            telemetry = TelemetryCallback(hooks, event_log=log)
            log.stage("approximation", "start", multiplier="truncated4")
            train_model(student, data, cross_entropy_loss(), ft, callbacks=[telemetry])
            detach_stats_hooks(hooks)
            accuracy = evaluate_accuracy(student, data.test_x, data.test_y)
            log.eval("approximation/after_ft", accuracy)
            log.stage("approximation", "end", accuracy_after=accuracy)

        print(f"approximate accuracy: {100 * accuracy:.2f}%")
        print()
        print("last-epoch layer stats (first three quantized layers):")
        for name, stats in list(telemetry.per_epoch[-1].items())[:3]:
            print(
                f"  {name:24s} act[{stats.act_min:8.2f},{stats.act_max:8.2f}]  "
                f"eps_mean={stats.eps_mean:8.3f}  grad_norm={stats.grad_norm}"
            )
        print()
        print(render_profile(profile_summary(), top=8))

        # Final metrics snapshot + exported Chrome trace, mirroring what
        # the CLI's --metrics/--trace flags do at run end.
        snapshot = met.emit_snapshot(log, scope="final")["metrics"]
        eval_hist = snapshot["histograms"].get("eval.batch_seconds")
        if eval_hist is not None:
            q = met.snapshot_quantiles(eval_hist)
            print()
            print(
                f"eval batch latency: p50={q['p50'] * 1e3:.2f}ms  "
                f"p95={q['p95'] * 1e3:.2f}ms  p99={q['p99'] * 1e3:.2f}ms  "
                f"({eval_hist['count']} batches, error <= "
                f"{100 * met.QUANTILE_REL_ERROR:.1f}%)"
            )
        tr.disable_tracing()
        spans = tr.get_trace_recorder().spans()
        tr.write_chrome_trace(TRACEFILE, spans)
        worker_pids = {s.pid for s in spans}
        log.emit(
            "trace",
            path=TRACEFILE,
            spans=len(spans),
            top_self_time=tr.self_time_summary(spans)[:10],
        )
        print(f"trace: {TRACEFILE} ({len(spans)} spans, {len(worker_pids)} processes)")
        log.run_end(status="ok")
    finally:
        tr.disable_tracing()
        met.disable_metrics()
        set_event_log(previous)
        log.close()
    print()
    print(f"event log written to {LOGFILE}; inspect it with:")
    print(f"  repro report {LOGFILE}")
    print(f"  repro trace {TRACEFILE}")


if __name__ == "__main__":
    main()
