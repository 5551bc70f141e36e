"""Parameter-sweep harness over multipliers, methods and temperatures.

Productises what the table benchmarks do: run the approximation stage of
Algorithm 1 over a grid, collect a structured result set, and export it as
JSON for downstream analysis. Used by the examples and available to
library users who want the paper's protocol on their own models.

The sweep is fault-isolated (``docs/RESILIENCE.md``): every cell runs
inside a try/except boundary with optional per-cell retries, so one bad
multiplier becomes a recorded :class:`SweepPoint` failure (error type,
message, traceback, attempt count) instead of killing the grid. With
``state_path`` set, the partial result is persisted atomically after
every cell, and ``resume=True`` skips already-completed cells — an
interrupted sweep continues from the next cell, not from scratch.

Grid cells are independent, so ``workers > 1`` runs them across a worker
pool (``docs/PERFORMANCE.md``) while keeping every resilience property:
cells still retry and fail in isolation (inside the worker), the partial
state is still persisted after every completed cell, ``resume`` still
skips by cell key, and the returned points are ordered exactly like a
serial sweep's — on a fixed seed the parallel result is point-for-point
identical to the serial one.
"""

from __future__ import annotations

import time as _time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from repro.approx.metrics import mean_relative_error
from repro.approx.multiplier import Multiplier
from repro.data.synthetic_cifar import Dataset
from repro.distill.approxkd import recommended_t2
from repro.errors import ConfigError
from repro.nn.module import Module
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import amortized_workers, map_workers
from repro.pipeline.algorithm1 import METHODS, approximation_stage
from repro.resilience.retry import FailureRecord, call_with_retry
from repro.sim.proxsim import resolve_multiplier
from repro.train.trainer import TrainConfig
from repro.utils.serialization import load_results, save_results


@dataclass(frozen=True)
class SweepPoint:
    """One (multiplier, method, temperature) cell of the sweep grid.

    ``status`` is ``"ok"`` for a completed cell and ``"failed"`` for one
    whose every attempt raised; failed cells carry the error as data
    (``error_type``/``error``/``traceback``/``attempts``) and ``None`` in
    the accuracy fields.
    """

    multiplier: str
    method: str
    temperature: float
    mre: float
    energy_savings: float
    initial_accuracy: float | None
    final_accuracy: float | None
    best_accuracy: float | None
    wall_time: float
    status: str = "ok"
    error_type: str | None = None
    error: str | None = None
    traceback: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepResult:
    """All points of one sweep plus its configuration."""

    points: list[SweepPoint] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def best_point(self) -> SweepPoint:
        candidates = [p for p in self.points if p.ok]
        if not candidates:
            raise ConfigError(
                "empty sweep" if not self.points else "sweep has no successful points"
            )
        return max(candidates, key=lambda p: p.final_accuracy)

    def filter(
        self,
        multiplier: str | None = None,
        method: str | None = None,
        include_failed: bool = False,
    ):
        """Successful points matching the given multiplier and/or method.

        ``include_failed=True`` also returns the recorded failure cells.
        """
        return [
            p
            for p in self.points
            if (include_failed or p.ok)
            and (multiplier is None or p.multiplier == multiplier)
            and (method is None or p.method == method)
        ]

    def failures(self) -> list[SweepPoint]:
        """The recorded failure cells of the sweep."""
        return [p for p in self.points if not p.ok]

    def to_json(self, path: str | Path) -> None:
        """Serialise the sweep (points + config) to a JSON file (atomic)."""
        save_results(
            {"config": self.config, "points": [asdict(p) for p in self.points]},
            path,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "SweepResult":
        """Load a sweep saved by :meth:`to_json` (old files load fine —
        pre-resilience points default to ``status="ok"``)."""
        payload = load_results(path)
        known = {f.name for f in fields(SweepPoint)}
        points = [
            SweepPoint(**{k: v for k, v in p.items() if k in known})
            for p in payload.get("points", [])
        ]
        return cls(points=points, config=payload.get("config", {}))


def _item_name(item: "str | Multiplier") -> str:
    """Canonical grid name of a sweep input, resolvable or not.

    Both the failed-resolve path and the successful path key their cells
    through this, so a cell keeps one identity across runs — a resume
    after a transient resolve failure neither duplicates nor skips it.
    """
    return item.name if isinstance(item, Multiplier) else str(item)


def _cell_key(multiplier: str, method: str, temperature: float) -> tuple[str, str, float]:
    """The resume identity of one grid cell."""
    return (str(multiplier), str(method), float(temperature))


@dataclass(frozen=True)
class _Cell:
    """One grid cell scheduled for execution, in grid order."""

    index: int
    name: str
    method: str
    temperature: float
    mult: Multiplier | None  # None when the multiplier failed to resolve
    mre: float
    energy_savings: float
    resolve_failure: FailureRecord | None

    @property
    def key(self) -> tuple[str, str, float]:
        return _cell_key(self.name, self.method, self.temperature)


@dataclass(frozen=True)
class _CellContext:
    """Everything a worker needs to run one cell (picklable)."""

    quant_model: Module
    data: Dataset
    train_config: TrainConfig
    rng: int
    retries: int


def _failed_point(cell: _Cell, failure: FailureRecord) -> SweepPoint:
    return SweepPoint(
        multiplier=cell.name,
        method=cell.method,
        temperature=float(cell.temperature),
        mre=cell.mre,
        energy_savings=cell.energy_savings,
        initial_accuracy=None,
        final_accuracy=None,
        best_accuracy=None,
        wall_time=0.0,
        status="failed",
        error_type=failure.error_type,
        error=failure.error,
        traceback=failure.traceback,
        attempts=failure.attempts,
    )


def _run_cell(context: _CellContext, cell: _Cell) -> SweepPoint:
    """Execute one resolved grid cell behind the fault-isolation boundary.

    Module-level so the process pool can pickle it; events emitted here
    land on the worker's captured log and are merged back by the parent.
    """
    log = obs_events.get_event_log()
    where = f"sweep[{cell.name}/{cell.method}/T{cell.temperature:g}]"
    log.stage(where, "start")
    cell_started = _time.perf_counter()
    with tr.span(
        "sweep.cell",
        multiplier=cell.name,
        method=cell.method,
        temperature=cell.temperature,
    ):
        stage, failure = call_with_retry(
            lambda: approximation_stage(
                context.quant_model,
                context.data,
                cell.mult,
                method=cell.method,
                train_config=context.train_config,
                temperature=cell.temperature,
                rng=context.rng,
            )[1],
            where=where,
            retries=context.retries,
        )
    if met.enabled:
        met.observe("sweep.cell_seconds", _time.perf_counter() - cell_started)
    if failure is not None:
        log.stage(where, "end", status="failed", error=failure.error)
        return _failed_point(cell, failure)
    log.stage(
        where,
        "end",
        accuracy_before=stage.accuracy_before,
        accuracy_after=stage.accuracy_after,
        duration=stage.history.wall_time,
    )
    return SweepPoint(
        multiplier=cell.name,
        method=cell.method,
        temperature=cell.temperature,
        mre=cell.mre,
        energy_savings=cell.energy_savings,
        initial_accuracy=stage.accuracy_before,
        final_accuracy=stage.accuracy_after,
        best_accuracy=stage.history.best_accuracy,
        wall_time=stage.history.wall_time,
    )


def _build_grid(
    multipliers: "list[str | Multiplier]",
    methods: tuple[str, ...],
    temperatures: "tuple[float, ...] | None",
) -> list[_Cell]:
    """Resolve every multiplier and lay out the grid in serial cell order.

    Resolution failures are retried once and recorded on their cells (one
    per method/temperature, so the grid shape stays predictable).
    """
    cells: list[_Cell] = []
    for item in multipliers:
        name = _item_name(item)
        resolved, failure = call_with_retry(
            lambda item=item: _resolve(item), where=f"sweep[{name}]"
        )
        if failure is not None:
            mult, mre, savings = None, 0.0, 0.0
            temps = temperatures or (0.0,)
        else:
            mult, mre = resolved
            savings = mult.energy_savings
            temps = temperatures or (recommended_t2(mre),)
        for temperature in temps:
            for method in methods:
                cells.append(
                    _Cell(
                        index=len(cells),
                        name=name,
                        method=method,
                        temperature=float(temperature),
                        mult=mult,
                        mre=mre,
                        energy_savings=savings,
                        resolve_failure=failure,
                    )
                )
    return cells


def run_sweep(
    quant_model: Module,
    data: Dataset,
    multipliers: list[str | Multiplier],
    methods: tuple[str, ...] = ("normal", "approxkd_ge"),
    temperatures: tuple[float, ...] | None = None,
    train_config: TrainConfig | None = None,
    rng: int = 0,
    retries: int = 0,
    state_path: str | Path | None = None,
    resume: bool = False,
    workers: int | None = None,
    prefilter: int | None = None,
) -> SweepResult:
    """Run the approximation stage for every grid cell.

    ``temperatures=None`` uses the paper's MRE-based policy per multiplier
    (one temperature each); passing a tuple sweeps every temperature for
    every multiplier (the Table III protocol).

    ``prefilter=N`` ranks the requested multipliers by their analytic
    error statistics (:func:`repro.ge.zoo.prefilter_multipliers`,
    milliseconds per candidate) and sweeps only the ``N`` most promising —
    the dropped candidates never cost a training cell. Unresolvable names
    pass the filter untouched and fail in their cells as usual.

    A raising cell is retried ``retries`` times, then recorded as a
    structured failure — the grid always completes. ``state_path``
    persists the partial result atomically after every cell;
    ``resume=True`` reloads it and skips cells already present (completed
    *or* recorded as failed), so a killed sweep restarts from the
    interrupted cell.

    ``workers > 1`` executes the cells on a worker pool (``None`` runs
    them serially). Each cell is seeded independently of schedule, and
    points are assembled in grid order, so the result is point-for-point
    identical to the serial sweep.
    """
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    train_config = train_config or TrainConfig()
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    log = obs_events.get_event_log()
    if prefilter is not None:
        from repro.ge.zoo import prefilter_multipliers

        names = [_item_name(item) for item in multipliers]
        kept = set(prefilter_multipliers(names, prefilter))
        dropped = sorted(set(names) - kept)
        multipliers = [item for item in multipliers if _item_name(item) in kept]
        if dropped and log.enabled:
            log.emit("sweep_prefilter", keep=prefilter, dropped=dropped)
    result = SweepResult(
        config={
            "methods": list(methods),
            "temperatures": list(temperatures) if temperatures else "auto",
            "epochs": train_config.epochs,
            "batch_size": train_config.batch_size,
            "lr": train_config.lr,
            "workers": workers,
            "prefilter": prefilter,
        }
    )
    if resume:
        if state_path is None:
            raise ConfigError("resume=True requires state_path")
        if Path(state_path).exists():
            previous = SweepResult.from_json(state_path)
            result.points = previous.points
            if log.enabled:
                log.checkpoint(
                    "sweep_resume", path=str(state_path), completed=len(result.points)
                )
    done = {_cell_key(p.multiplier, p.method, p.temperature) for p in result.points}

    prior = list(result.points)
    pending = [c for c in _build_grid(multipliers, methods, temperatures) if c.key not in done]
    finished: dict[int, SweepPoint] = {}

    def record(cell: _Cell, point: SweepPoint) -> None:
        """Persist after every completed cell, keeping grid order."""
        finished[cell.index] = point
        result.points = prior + [finished[i] for i in sorted(finished)]
        if state_path is not None:
            result.to_json(state_path)
        met.emit_snapshot(scope="sweep_cell", cell=cell.key)

    # Broken-multiplier cells materialise instantly in the parent; the
    # rest fan out, persisting as each one completes. Fan-out cannot
    # amortise on a single usable CPU or a near-empty grid
    # (docs/PERFORMANCE.md), where map_workers runs the cells inline.
    for cell in pending:
        if cell.resolve_failure is not None:
            record(cell, _failed_point(cell, cell.resolve_failure))
    runnable = [cell for cell in pending if cell.resolve_failure is None]
    map_workers(
        partial(_run_cell, _CellContext(quant_model, data, train_config, rng, retries)),
        runnable,
        amortized_workers(workers, len(runnable)),
        on_result=lambda position, point: record(runnable[position], point),
    )
    return result


def _resolve(item: "str | Multiplier") -> tuple[Multiplier, float]:
    mult = resolve_multiplier(item)
    return mult, mean_relative_error(mult)
