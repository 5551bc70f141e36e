"""Command-line interface for the reproduction pipeline.

Subcommands mirror the stages of Algorithm 1 plus inspection utilities:

- ``repro train``        — train a full-precision model on synthetic data.
- ``repro quantize``     — 8A4W quantization stage (optionally with KD).
- ``repro approximate``  — approximation stage with any fine-tuning method.
- ``repro evaluate``     — accuracy of a checkpoint, optionally under an
  approximate multiplier.
- ``repro multipliers``  — list available multipliers with MRE and savings.
- ``repro profile``      — error model of one multiplier (closed-form
  analytic by default, Monte-Carlo via ``--error-model-method``).
- ``repro zoo``          — rank the whole multiplier registry by analytic
  error statistics in milliseconds (table or ``--json``).
- ``repro serve``        — micro-batched inference serving of a checkpoint
  (``docs/SERVING.md``): a built-in load run by default, or an HTTP
  front end with ``--port``.
- ``repro report``       — summarise a JSONL run log written by ``--log-json``
  (``--format json`` emits the full machine-readable RunSummary).
- ``repro trace``        — self-time flame summary of a Chrome trace
  written by ``--trace``.

Every subcommand supports the observability flags (``docs/OBSERVABILITY.md``):
``--log-json PATH`` streams structured events to a JSONL file
(``--log-rotate-mb MB`` rotates it into numbered segments), ``--metrics``
collects streaming counters/gauges/latency histograms and snapshots them
into the log, ``--trace PATH`` records hierarchical spans — including
spans merged back from worker processes — and exports a Chrome
``trace_event`` JSON, ``--quiet`` suppresses progress chatter (final
result lines stay on stdout for scripting), ``--verbose`` renders the
event stream on the console, and ``--profile`` folds every span into
per-name counters and prints the hot-path timer table after the command.

``sweep`` additionally takes ``--workers N`` (``docs/PERFORMANCE.md``):
its grid cells spread over a worker pool, with results identical to the
serial ones on a fixed seed. ``sweep``/``profile``/``approximate`` accept
``--error-model-method {auto,analytic,montecarlo}`` to pick the error
model estimator (``repro.ge.estimator``; also via
``REPRO_ERROR_MODEL_METHOD``).

The training subcommands (``train``/``quantize``/``approximate``/``sweep``)
additionally support the resilience flags (``docs/RESILIENCE.md``):
``--resume`` restarts from the last good epoch (or, for ``sweep``, the
next grid cell), ``--checkpoint-dir`` overrides the checkpoint location
(default: ``<out>.ckpt``), and ``--guard`` arms the divergence guard that
rolls back NaN/exploding epochs and retries them at a reduced LR.

Model checkpoints are ``.npz`` files (see
:mod:`repro.utils.serialization`) with a ``.meta.json`` sidecar recording
the architecture so later stages can rebuild it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import config
from repro.approx import (
    available_multipliers,
    get_multiplier,
    mean_relative_error,
    network_energy,
)
from repro.data import make_synthetic_cifar
from repro.errors import ReproError
from repro.ge import estimate_error_model
from repro.models import create_model
from repro.obs import console as obs_console
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.obs.report import render_summary, summarize_run
from repro.obs.runmeta import run_metadata
from repro.pipeline import METHODS, approximation_stage, quantization_stage
from repro.quant import quantize_model
from repro.sim import attach_multiplier, count_macs, evaluate_accuracy
from repro.train import TrainConfig, cross_entropy_loss, train_model
from repro.utils.serialization import load_model, save_model


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-train", type=int, default=600)
    parser.add_argument("--num-test", type=int, default=300)
    parser.add_argument("--image-size", type=int, default=16)
    parser.add_argument("--noise", type=float, default=0.4)
    parser.add_argument("--data-seed", type=int, default=42)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="simplecnn")
    parser.add_argument("--width-mult", type=float, default=0.25)


def _add_train_args(parser: argparse.ArgumentParser, default_lr: float) -> None:
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--lr", type=float, default=default_lr)
    parser.add_argument("--seed", type=int, default=0)


def _dataset(args):
    return make_synthetic_cifar(
        num_train=args.num_train,
        num_test=args.num_test,
        image_size=args.image_size,
        noise=args.noise,
        seed=args.data_seed,
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        momentum=0.9,
        seed=args.seed,
    )


def _resilience(args, console: obs_console.Console):
    """Build (CheckpointManager | None, DivergenceGuard | None) from flags.

    Checkpointing turns on when ``--checkpoint-dir`` is given, or when
    ``--resume`` is requested and a default directory can be derived from
    ``--out``.
    """
    from repro.resilience import CheckpointManager, DivergenceGuard, GuardConfig

    directory = args.checkpoint_dir
    if directory is None and getattr(args, "out", None):
        directory = f"{args.out}.ckpt"
    manager = None
    if args.checkpoint_dir is not None or (args.resume and directory is not None):
        if directory is None:
            raise ReproError("--resume needs --checkpoint-dir (or --out to derive it)")
        manager = CheckpointManager(
            directory, keep=args.keep_checkpoints, every=args.checkpoint_every
        )
        console.info(f"checkpoints: {directory}")
    guard = None
    if args.guard:
        guard = DivergenceGuard(
            GuardConfig(max_retries=args.max_retries, lr_backoff=args.lr_backoff)
        )
    return manager, guard


def _build_model(name: str, width_mult: float):
    kwargs = {"rng": 0}
    if name != "simplecnn":
        kwargs["width_mult"] = width_mult
    return create_model(name, **kwargs)


def _meta_path(checkpoint: Path) -> Path:
    return checkpoint.with_suffix(checkpoint.suffix + ".meta.json")


def _save_checkpoint(model, path: Path, meta: dict) -> None:
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, path)
    _meta_path(path).write_text(json.dumps(meta, indent=2))


def _load_checkpoint(path: Path):
    import json

    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise ReproError(f"missing checkpoint metadata: {meta_file}")
    meta = json.loads(meta_file.read_text())
    model = _build_model(meta["model"], meta["width_mult"])
    if meta.get("quantized"):
        quantize_model(model, fold_bn=meta.get("fold_bn", True))
    load_model(model, path)
    return model, meta


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_train(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    data = _dataset(args)
    model = _build_model(args.model, args.width_mult)
    checkpoints, guard = _resilience(args, console)
    console.info(f"training {args.model} for {args.epochs} epochs")
    history = train_model(
        model,
        data,
        cross_entropy_loss(),
        _train_config(args),
        guard=guard,
        checkpoints=checkpoints,
        resume=args.resume,
    )
    log.eval("train/final", history.final_accuracy)
    console.result(f"final accuracy: {100 * history.final_accuracy:.2f}%")
    out = Path(args.out)
    _save_checkpoint(
        model,
        out,
        {"model": args.model, "width_mult": args.width_mult, "quantized": False},
    )
    console.result(f"saved: {out}")
    return 0


def cmd_quantize(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    data = _dataset(args)
    fp_model, meta = _load_checkpoint(Path(args.checkpoint))
    fold_bn = not args.keep_bn
    checkpoints, guard = _resilience(args, console)
    quant_model, result = quantization_stage(
        fp_model,
        data,
        train_config=_train_config(args),
        temperature=args.temperature,
        use_kd=not args.no_kd,
        fold_bn=fold_bn,
        guard=guard,
        checkpoints=checkpoints,
        resume=args.resume,
    )
    console.info(f"accuracy before FT: {100 * result.accuracy_before:.2f}%")
    console.result(f"accuracy after FT:  {100 * result.accuracy_after:.2f}%")
    out = Path(args.out)
    _save_checkpoint(
        quant_model,
        out,
        {**meta, "quantized": True, "fold_bn": fold_bn},
    )
    console.result(f"saved: {out}")
    return 0


def cmd_approximate(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    data = _dataset(args)
    quant_model, meta = _load_checkpoint(Path(args.checkpoint))
    if not meta.get("quantized"):
        raise ReproError("approximate requires a quantized checkpoint; run quantize first")
    checkpoints, guard = _resilience(args, console)
    approx_model, result = approximation_stage(
        quant_model,
        data,
        args.multiplier,
        method=args.method,
        train_config=_train_config(args),
        temperature=args.temperature,
        guard=guard,
        checkpoints=checkpoints,
        resume=args.resume,
    )
    console.info(f"initial accuracy: {100 * result.accuracy_before:.2f}%")
    console.result(f"final accuracy:   {100 * result.accuracy_after:.2f}%")
    macs = count_macs(approx_model, data.image_shape).total_macs
    report = network_energy(macs, get_multiplier(args.multiplier))
    console.result(f"energy savings:   {report.savings_percent:.0f}%")
    if args.out:
        out = Path(args.out)
        _save_checkpoint(approx_model, out, meta)
        console.result(f"saved: {out}")
    return 0


def cmd_evaluate(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    data = _dataset(args)
    model, meta = _load_checkpoint(Path(args.checkpoint))
    if args.multiplier:
        if not meta.get("quantized"):
            raise ReproError("--multiplier requires a quantized checkpoint")
        attach_multiplier(model, args.multiplier)
    acc = evaluate_accuracy(model, data.test_x, data.test_y)
    log.eval("evaluate", acc, multiplier=args.multiplier)
    console.result(f"accuracy: {100 * acc:.2f}%")
    return 0


def cmd_serve(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    import time

    from repro.serve import HttpFrontend, ServeConfig, Server, run_load
    from repro.serve.loadgen import dataset_samples

    data = _dataset(args)
    model, meta = _load_checkpoint(Path(args.checkpoint))
    if args.multiplier:
        if not meta.get("quantized"):
            raise ReproError("--multiplier requires a quantized checkpoint")
        attach_multiplier(model, args.multiplier)
    server = Server(
        model,
        ServeConfig(
            deadline_ms=args.deadline_ms,
            max_batch=args.max_batch,
            queue_depth=args.queue_depth,
            replicas=args.replicas,
        ),
    )
    warm = dataset_samples(data, limit=min(server.config.max_batch, 8))
    server.start(warm=warm)
    console.info(
        f"serving {args.checkpoint}: {server.config.replicas} replica(s), "
        f"max batch {server.config.max_batch}, "
        f"deadline {server.config.deadline_ms}ms"
    )
    try:
        if args.port is not None:
            with HttpFrontend(server, host=args.host, port=args.port) as frontend:
                console.result(f"listening on {frontend.url} (POST /v1/predict)")
                try:
                    deadline = (
                        time.monotonic() + args.duration if args.duration > 0 else None
                    )
                    while deadline is None or time.monotonic() < deadline:
                        time.sleep(0.2)
                except KeyboardInterrupt:
                    console.info("interrupted; draining")
        else:
            report = run_load(
                server,
                data,
                requests=args.requests,
                concurrency=args.concurrency,
                batch_fraction=args.batch_fraction,
                batch_size=args.request_batch,
                slo_p95_ms=args.slo_p95_ms,
                mode="open" if args.arrival_rate is not None else "closed",
                offered_rps=args.arrival_rate,
            )
            log.emit("serve_load", **report.to_dict())
            rate = (
                f", offered {report.offered_rps:.1f} rps / achieved "
                f"{report.achieved_rps:.1f} rps"
                if report.mode == "open"
                else ""
            )
            console.result(
                f"served {report.requests} requests ({report.samples} samples) "
                f"in {report.duration_s:.2f}s: {report.throughput_sps:.1f} "
                f"samples/s, p50 {report.latency_p50_ms:.1f}ms, "
                f"p95 {report.latency_p95_ms:.1f}ms "
                f"({'within' if report.slo_met else 'MISSES'} "
                f"{report.slo_p95_ms:.0f}ms SLO), mean batch "
                f"{report.server_stats['mean_batch_size']:.1f}{rate}"
            )
    finally:
        server.stop()
    return 0


def cmd_sweep(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    from repro.pipeline import run_sweep

    data = _dataset(args)
    quant_model, meta = _load_checkpoint(Path(args.checkpoint))
    if not meta.get("quantized"):
        raise ReproError("sweep requires a quantized checkpoint; run quantize first")
    state_path = args.state or (f"{args.out}.partial.json" if args.out else None)
    if args.resume and state_path is None:
        raise ReproError("sweep --resume needs --state (or --out to derive it)")
    result = run_sweep(
        quant_model,
        data,
        multipliers=args.multipliers,
        methods=tuple(args.methods),
        train_config=_train_config(args),
        retries=args.retries,
        state_path=state_path,
        resume=args.resume,
        workers=args.workers,
        prefilter=args.prefilter,
    )
    console.result(
        f"{'multiplier':16s} {'method':12s} {'T2':>4s} {'init[%]':>8s} {'final[%]':>9s}"
    )
    for p in result.points:
        if p.ok:
            console.result(
                f"{p.multiplier:16s} {p.method:12s} {p.temperature:4.0f} "
                f"{100 * p.initial_accuracy:8.2f} {100 * p.final_accuracy:9.2f}"
            )
        else:
            console.result(
                f"{p.multiplier:16s} {p.method:12s} {p.temperature:4.0f} "
                f"FAILED ({p.error_type}, {p.attempts} attempt(s))"
            )
    if result.failures():
        console.warning(f"{len(result.failures())} cell(s) failed; see --log-json for faults")
    if args.out:
        result.to_json(args.out)
        console.result(f"saved: {args.out}")
    return 0


def cmd_resiliency(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    from repro.sim import layer_resiliency

    data = _dataset(args)
    quant_model, meta = _load_checkpoint(Path(args.checkpoint))
    if not meta.get("quantized"):
        raise ReproError("resiliency requires a quantized checkpoint")
    entries = layer_resiliency(quant_model, data.test_x, data.test_y, args.multiplier)
    console.info(
        f"per-layer accuracy drop under {args.multiplier} (most resilient first):"
    )
    for entry in entries:
        console.result(f"  {entry.layer_name:36s} {100 * entry.drop:7.2f}%")
    return 0


def cmd_multipliers(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    names = available_multipliers()
    if args.extended:
        names += ["truncated4bc", "truncated5bc", "mitchell", "drum3", "drum4"]
    console.result(f"{'name':16s} {'MRE[%]':>7s} {'savings[%]':>10s}")
    for name in names:
        mult = get_multiplier(name)
        console.result(
            f"{name:16s} {100 * mean_relative_error(mult):7.1f} "
            f"{100 * mult.energy_savings:10.0f}"
        )
    return 0


def cmd_profile(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    mult = get_multiplier(args.multiplier)
    model = estimate_error_model(mult, rng=args.seed)
    method = config.resolve("error_model_method")
    console.info(
        f"multiplier: {mult.name} (MRE {100 * mean_relative_error(mult):.1f}%, "
        f"method {method})"
    )
    if model.is_constant:
        console.result(f"error model: constant f(y) = {model.c:.2f} -> GE degenerates to STE")
    else:
        console.result(
            f"error model: f(y) = min({model.upper:.1f}, "
            f"max({model.k:.4f}*y + {model.c:.2f}, {model.lower:.1f}))"
        )
    return 0


def cmd_zoo(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    import json
    import time

    from repro.ge import rank_multipliers

    names = args.multipliers or None
    started = time.perf_counter()
    entries = rank_multipliers(names)
    elapsed_ms = 1000.0 * (time.perf_counter() - started)
    if args.top:
        entries = entries[: args.top]
    console.result(
        f"{'rank':>4s} {'name':16s} {'score':>8s} {'E[eps]':>9s} {'std[eps]':>9s} "
        f"{'k':>8s} {'model':>8s} {'savings[%]':>10s}"
    )
    for e in entries:
        console.result(
            f"{e.rank:4d} {e.name:16s} {e.score:8.4f} {e.eps_mean:9.1f} "
            f"{e.eps_std:9.1f} {e.k:+8.4f} {'STE' if e.is_constant else 'GE':>8s} "
            f"{100 * e.energy_savings:10.0f}"
        )
    console.info(f"ranked {len(entries)} multiplier(s) analytically in {elapsed_ms:.1f}ms")
    log.emit("zoo", count=len(entries), elapsed_ms=elapsed_ms)
    if args.json:
        payload = {"elapsed_ms": elapsed_ms, "entries": [e.to_dict() for e in entries]}
        Path(args.json).write_text(json.dumps(payload, indent=2))
        console.result(f"saved: {args.json}")
    return 0


def cmd_report(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    import json
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the summary itself reports skips
        summary = summarize_run(args.logfile, strict=args.strict)
    if args.format == "json":
        console.result(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        console.result(render_summary(summary))
    return 0


def cmd_trace(args, console: obs_console.Console, log: obs_events.EventLog) -> int:
    spans = tr.read_chrome_trace(args.tracefile)
    console.result(tr.render_flame_summary(spans, top=args.top))
    return 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    obs_flags = argparse.ArgumentParser(add_help=False)
    group = obs_flags.add_argument_group("observability")
    group.add_argument(
        "--log-json",
        metavar="PATH",
        help="write structured JSONL events to PATH (see 'repro report')",
    )
    group.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress output; final result lines stay on stdout",
    )
    group.add_argument(
        "--verbose",
        action="store_true",
        help="render the structured event stream on the console",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="aggregate spans and counters per name and print the timer "
        "table afterwards",
    )
    group.add_argument(
        "--trace",
        metavar="PATH",
        help="record hierarchical spans and write a Chrome trace_event JSON "
        "to PATH (view in chrome://tracing / Perfetto, or 'repro trace PATH')",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/gauges/latency histograms and emit snapshots "
        "into the event log (rendered by 'repro report')",
    )
    group.add_argument(
        "--log-rotate-mb",
        type=float,
        default=None,
        metavar="MB",
        help="rotate the --log-json file into numbered segments once it "
        "exceeds MB megabytes ('repro report' reads them transparently)",
    )

    em_flags = argparse.ArgumentParser(add_help=False)
    em = em_flags.add_argument_group("error model")
    em.add_argument(
        "--error-model-method",
        choices=("auto", "analytic", "montecarlo"),
        default=None,
        metavar="NAME",
        help="error-model estimator (default: REPRO_ERROR_MODEL_METHOD or auto): "
        "auto = closed-form analytic with Monte-Carlo fallback, analytic = "
        "closed-form only, montecarlo = the paper's 50-simulation sampling path",
    )

    serve_flags = argparse.ArgumentParser(add_help=False)
    sv = serve_flags.add_argument_group(
        "serving (defaults: REPRO_SERVE_* environment, then built-ins)"
    )
    sv.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="micro-batching latency deadline from the oldest queued request",
    )
    sv.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="maximum samples coalesced into one served micro-batch",
    )
    sv.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="queued-sample bound before requests are rejected with backpressure",
    )
    sv.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="model replica workers (default: one per usable CPU)",
    )

    res_flags = argparse.ArgumentParser(add_help=False)
    res = res_flags.add_argument_group("resilience")
    res.add_argument(
        "--resume",
        action="store_true",
        help="restart from the last good checkpoint (or sweep cell) instead of scratch",
    )
    res.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        help="directory for crash-safe epoch checkpoints (default: <out>.ckpt)",
    )
    res.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="save a checkpoint every N epochs (default: 1)",
    )
    res.add_argument(
        "--keep-checkpoints",
        type=int,
        default=3,
        metavar="N",
        help="retain the newest N checkpoints (default: 3)",
    )
    res.add_argument(
        "--guard",
        action="store_true",
        help="arm the divergence guard (rollback + LR backoff on NaN/explosion)",
    )
    res.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="guard: rollback retries per epoch before giving up (default: 3)",
    )
    res.add_argument(
        "--lr-backoff",
        type=float,
        default=0.5,
        metavar="F",
        help="guard: LR scale factor applied on each rollback (default: 0.5)",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Approximate-CNN optimization flow (DATE 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "train", help="train a full-precision model", parents=[obs_flags, res_flags]
    )
    _add_model_args(p)
    _add_data_args(p)
    _add_train_args(p, default_lr=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "quantize",
        help="8A4W quantization stage",
        parents=[obs_flags, res_flags],
    )
    _add_data_args(p)
    _add_train_args(p, default_lr=0.02)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--no-kd", action="store_true", help="plain fine-tuning instead of KD")
    p.add_argument("--keep-bn", action="store_true", help="do not fold BatchNorm")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser(
        "approximate",
        help="approximation stage",
        parents=[obs_flags, res_flags, em_flags],
    )
    _add_data_args(p)
    _add_train_args(p, default_lr=0.02)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--multiplier", required=True)
    p.add_argument("--method", choices=METHODS, default="approxkd_ge")
    p.add_argument("--temperature", type=float, default=5.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser(
        "evaluate",
        help="evaluate a checkpoint",
        parents=[obs_flags],
    )
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--multiplier")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "sweep",
        help="multiplier x method sweep on a quantized checkpoint",
        parents=[obs_flags, res_flags, em_flags],
    )
    _add_data_args(p)
    _add_train_args(p, default_lr=0.02)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--multipliers", nargs="+", required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker pool size for the sweep's grid cells "
        "(default: 1 = serial; results are identical at any worker count)",
    )
    p.add_argument("--methods", nargs="+", default=["normal", "approxkd_ge"], choices=METHODS)
    p.add_argument("--out", help="write the sweep as JSON")
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failing sweep cell this many times before recording the failure",
    )
    p.add_argument(
        "--state",
        metavar="PATH",
        help="partial-result file persisted after every cell (default: <out>.partial.json)",
    )
    p.add_argument(
        "--prefilter",
        type=int,
        default=None,
        metavar="N",
        help="rank the requested multipliers analytically and sweep only the "
        "N most promising (milliseconds; skips whole train cells)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "resiliency", help="per-layer resiliency analysis", parents=[obs_flags]
    )
    _add_data_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--multiplier", required=True)
    p.set_defaults(func=cmd_resiliency)

    p = sub.add_parser(
        "multipliers", help="list available multipliers", parents=[obs_flags]
    )
    p.add_argument("--extended", action="store_true", help="include extension families")
    p.set_defaults(func=cmd_multipliers)

    p = sub.add_parser(
        "profile",
        help="fit a multiplier's error model",
        parents=[obs_flags, em_flags],
    )
    p.add_argument("--multiplier", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "zoo",
        help="rank the multiplier registry by analytic error statistics",
        parents=[obs_flags],
    )
    p.add_argument(
        "--multipliers",
        nargs="+",
        default=None,
        help="rank only these multipliers (default: the whole registry)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="show only the N best-ranked multipliers",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        help="also write the full ranking (with model parameters) as JSON",
    )
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser(
        "serve",
        help="serve a checkpoint with micro-batched inference (docs/SERVING.md)",
        parents=[obs_flags, serve_flags],
    )
    p.add_argument("checkpoint", help="model checkpoint (.npz) to serve")
    p.add_argument(
        "--multiplier",
        default=None,
        help="attach an approximate multiplier (quantized checkpoints only)",
    )
    _add_data_args(p)
    p.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose an HTTP front end on PORT (0 = ephemeral) instead of "
        "running the built-in load",
    )
    p.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    p.add_argument(
        "--duration",
        type=float,
        default=0.0,
        metavar="S",
        help="with --port: serve for S seconds then drain (0 = until ctrl-C)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=256,
        metavar="N",
        help="without --port: total load-run requests (default: 256)",
    )
    p.add_argument(
        "--concurrency",
        type=int,
        default=8,
        metavar="N",
        help="without --port: concurrent load-run clients (default: 8)",
    )
    p.add_argument(
        "--batch-fraction",
        type=float,
        default=0.25,
        metavar="F",
        help="fraction of load-run requests that are batches (default: 0.25)",
    )
    p.add_argument(
        "--request-batch",
        type=int,
        default=8,
        metavar="N",
        help="samples per batch request in the load run (default: 8)",
    )
    p.add_argument(
        "--slo-p95-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="p95 latency SLO the load report is judged against (default: 250)",
    )
    p.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="RPS",
        help="without --port: open-loop load at this offered request rate "
        "(Poisson arrivals) instead of the closed-loop client pool",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "report", help="summarise a JSONL run log", parents=[obs_flags]
    )
    p.add_argument("logfile", help="event log written with --log-json")
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on a truncated final record instead of skipping it",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or the full "
        "RunSummary as machine-readable JSON",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "trace",
        help="self-time flame summary of a Chrome trace written with --trace",
        parents=[obs_flags],
    )
    p.add_argument("tracefile", help="Chrome trace_event JSON written with --trace")
    p.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="show the N hottest span names by self time (default: 15)",
    )
    p.set_defaults(func=cmd_trace)

    return parser


def _loggable_config(args) -> dict:
    """JSON-safe view of the parsed arguments for the run_start event."""
    skip = {"func", "log_json", "quiet", "verbose", "profile", "trace", "metrics",
            "log_rotate_mb"}
    return {
        key: value
        for key, value in vars(args).items()
        if key not in skip and isinstance(value, (str, int, float, bool, list, type(None)))
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    console = obs_console.get_console()
    # --error-model-method overrides the environment for this run only.
    method = getattr(args, "error_model_method", None)
    previous_config = config.configure(error_model_method=method) if method else {}
    if args.quiet:
        console.level = obs_events.WARNING
    elif args.verbose:
        console.level = obs_events.DEBUG
    else:
        console.level = obs_events.INFO

    log = obs_events.EventLog()
    if args.log_json:
        max_bytes = None
        if args.log_rotate_mb is not None:
            max_bytes = max(1024, int(args.log_rotate_mb * 1024 * 1024))
        log.add_sink(obs_events.JsonlSink(args.log_json, max_bytes=max_bytes))
    if args.verbose:
        log.add_sink(obs_console.ConsoleSink(console, level=obs_events.DEBUG))
    previous_log = obs_events.set_event_log(log)

    if args.trace or args.profile:
        tr.reset_tracing()
        tr.enable_tracing(record=bool(args.trace), aggregate=args.profile)
    if args.metrics or args.profile:
        # --profile's span aggregates and counters live in the metrics registry.
        met.reset_metrics()
        met.enable_metrics()

    log.run_start(
        command=args.command,
        config=_loggable_config(args),
        meta=run_metadata(command=args.command),
    )
    try:
        error: str | None = None
        try:
            code = args.func(args, console, log)
            status = "ok" if code == 0 else "failed"
        except ReproError as exc:
            console.error(str(exc))
            code, status, error = 1, "error", str(exc)
        if args.trace or args.profile:
            tr.disable_tracing()
        if args.profile:
            profile = tr.profile_summary()
            log.emit(obs_events.PROFILE, **profile)
            console.result(tr.render_profile(profile))
        if args.metrics:
            met.emit_snapshot(log, scope="final")
        if args.trace:
            spans = tr.get_trace_recorder().spans()
            tr.write_chrome_trace(args.trace, spans)
            log.emit(
                obs_events.TRACE,
                path=str(args.trace),
                spans=len(spans),
                top_self_time=tr.self_time_summary(spans)[:10],
            )
            console.info(f"trace: {args.trace} ({len(spans)} spans)")
        if error is not None:
            log.run_end(status=status, error=error)
        else:
            log.run_end(status=status, exit_code=code)
    finally:
        if args.trace or args.profile:
            tr.disable_tracing()
        if args.metrics or args.profile:
            met.disable_metrics()
        obs_events.set_event_log(previous_log)
        log.close()
        config.configure(**previous_config)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
