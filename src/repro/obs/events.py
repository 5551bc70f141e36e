"""Structured event log: machine-readable JSONL records of a run.

An :class:`EventLog` is a sequence of typed records — ``run_start``,
``stage``, ``epoch``, ``eval``, ``layer_stats``, ``profile``, ``run_end``
— each stamped with the run id, a monotonic elapsed time ``t`` (seconds
since the log was opened) and a sequence number ``seq``. Records fan out
to any number of sinks: :class:`JsonlSink` writes one JSON object per
line; :class:`repro.obs.console.ConsoleSink` renders them for humans.

The process-wide default log (:func:`get_event_log`) starts with no sinks,
so instrumented code paths (trainer, pipeline stages) pay only a boolean
check until someone opts in — the CLI's ``--log-json`` flag, a test, or
:func:`logging_to`.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, TextIO

from repro.errors import ReproError
from repro.obs.runmeta import new_run_id

# Canonical event types. Free-form types are allowed (the schema is open),
# but everything the library itself emits is one of these.
RUN_START = "run_start"
RUN_END = "run_end"
STAGE = "stage"
EPOCH = "epoch"
EVAL = "eval"
LAYER_STATS = "layer_stats"
PROFILE = "profile"
CHECKPOINT = "checkpoint"
GUARD = "guard"
FAULT = "fault"
METRICS = "metrics"
TRACE = "trace"

EVENT_TYPES = (
    RUN_START,
    RUN_END,
    STAGE,
    EPOCH,
    EVAL,
    LAYER_STATS,
    PROFILE,
    CHECKPOINT,
    GUARD,
    FAULT,
    METRICS,
    TRACE,
)

# Severity levels, mirroring the stdlib logging scale.
DEBUG, INFO, WARNING, ERROR = 10, 20, 30, 40
_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}


def level_name(level: int) -> str:
    """Human name of a severity level (exact match or nearest below)."""
    if level in _LEVEL_NAMES:
        return _LEVEL_NAMES[level]
    candidates = [k for k in _LEVEL_NAMES if k <= level]
    return _LEVEL_NAMES[max(candidates)] if candidates else "debug"


def level_from_name(name: str) -> int:
    """Numeric severity for a level name emitted by :func:`level_name`.

    Unknown names default to ``INFO`` — used when replaying records whose
    envelope came from another process (``repro.parallel``).
    """
    for value, known in _LEVEL_NAMES.items():
        if known == name:
            return value
    return INFO


class Sink:
    """A destination for event records. Subclasses override :meth:`emit`."""

    def emit(self, record: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further emits are undefined."""


class JsonlSink(Sink):
    """Write each record as one JSON line to a file or stream.

    ``max_bytes`` (path targets only) caps the live file: when the next
    line would push it past the cap, the current contents rotate into a
    numbered segment (``run.jsonl`` → ``run.0001.jsonl``) and a manifest
    (``run.jsonl.manifest.json``) records the segment order, so long
    sweeps and serving runs never grow one unbounded file.
    :func:`read_events` (and therefore ``repro report``) reads rotated
    logs back transparently.
    """

    def __init__(self, target: str | Path | TextIO, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1024:
            raise ReproError(f"max_bytes must be >= 1024, got {max_bytes}")
        self._path: Path | None = None
        self._max_bytes = max_bytes
        self._written = 0
        self._segments: list[str] = []
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._path = path
            self._stream = path.open("w", encoding="utf-8")
            self._owns_stream = True
        else:
            if max_bytes is not None:
                raise ReproError("JsonlSink rotation requires a path target")
            self._stream = target
            self._owns_stream = False

    def emit(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        if (
            self._max_bytes is not None
            and self._written
            and self._written + len(line.encode("utf-8")) > self._max_bytes
        ):
            self._rotate()
        self._stream.write(line)
        self._stream.flush()
        self._written += len(line.encode("utf-8"))

    def _rotate(self) -> None:
        """Move the live file aside as the next segment and start fresh."""
        assert self._path is not None
        self._stream.close()
        segment = self._path.with_name(
            f"{self._path.stem}.{len(self._segments) + 1:04d}{self._path.suffix}"
        )
        self._path.replace(segment)
        self._segments.append(segment.name)
        from repro.utils.atomic import atomic_write_json

        atomic_write_json(
            manifest_path(self._path), {"version": 1, "segments": self._segments}
        )
        self._stream = self._path.open("w", encoding="utf-8")
        self._written = 0

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()


class CollectingSink(Sink):
    """Keep records in memory — convenient for tests and notebooks."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


class EventLog:
    """Fan-out event recorder with monotonic timestamps and a run id."""

    def __init__(
        self,
        run_id: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.run_id = run_id or new_run_id()
        self._clock = clock
        self._t0 = clock()
        self._seq = 0
        self._sinks: list[Sink] = []
        # Emission is serialised so concurrent emitters (threaded sweep
        # cells, stats hooks on worker threads) get unique seq numbers and
        # sinks never see interleaved records.
        self._emit_lock = threading.Lock()

    # -- sink management -------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when at least one sink is attached (emits are not no-ops)."""
        return bool(self._sinks)

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def close(self) -> None:
        """Close and detach every sink."""
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()

    # -- emission --------------------------------------------------------
    def emit(self, type: str, level: int = INFO, **payload) -> dict | None:
        """Record one event; returns the record, or None when disabled.

        Payload values must be JSON-serialisable (numpy scalars are
        normalised); the reserved keys ``type``/``run``/``seq``/``t``/
        ``level`` are stamped by the log itself.
        """
        if not self._sinks:
            return None
        with self._emit_lock:
            record = {
                "type": type,
                "run": self.run_id,
                "seq": self._seq,
                "t": round(self._clock() - self._t0, 6),
                "level": level_name(level),
            }
            for key, value in payload.items():
                record[key] = _jsonable(value)
            self._seq += 1
            for sink in self._sinks:
                sink.emit(record)
        return record

    # -- typed convenience emitters --------------------------------------
    def run_start(self, command: str | None = None, config: dict | None = None,
                  meta: dict | None = None) -> dict | None:
        return self.emit(RUN_START, command=command, config=config or {}, meta=meta or {})

    def run_end(self, status: str = "ok", **payload) -> dict | None:
        return self.emit(RUN_END, status=status, **payload)

    def stage(self, name: str, phase: str, **payload) -> dict | None:
        return self.emit(STAGE, name=name, phase=phase, **payload)

    def epoch(self, epoch: int, epochs: int, **payload) -> dict | None:
        return self.emit(EPOCH, epoch=epoch, epochs=epochs, **payload)

    def eval(self, name: str, accuracy: float, **payload) -> dict | None:
        return self.emit(EVAL, name=name, accuracy=float(accuracy), **payload)

    def checkpoint(self, action: str, **payload) -> dict | None:
        """Checkpoint lifecycle: ``save``/``resume``/``prune``/``corrupt``/…"""
        level = WARNING if action == "corrupt" else INFO
        return self.emit(CHECKPOINT, level=level, action=action, **payload)

    def guard(self, action: str, reason: str | None = None, **payload) -> dict | None:
        """Divergence-guard lifecycle: ``rollback``/``giveup``."""
        return self.emit(GUARD, level=WARNING, action=action, reason=reason, **payload)

    def fault(self, where: str, error_type: str, **payload) -> dict | None:
        """An isolated failure (e.g. one sweep cell) that did not kill the run."""
        return self.emit(FAULT, level=ERROR, where=where, error_type=error_type, **payload)


def _jsonable(value):
    """Normalise payload values (numpy scalars/arrays, paths) to JSON types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, Path):
        return str(value)
    return value


# ----------------------------------------------------------------------
# process-wide default log
# ----------------------------------------------------------------------
_global_log = EventLog()


def get_event_log() -> EventLog:
    """The process-wide default :class:`EventLog` (no sinks until opted in)."""
    return _global_log


def set_event_log(log: EventLog) -> EventLog:
    """Replace the default log; returns the previous one."""
    global _global_log
    previous, _global_log = _global_log, log
    return previous


class logging_to:
    """Context manager: route the default log to ``path`` for a block.

    >>> with logging_to("run.jsonl"):
    ...     train_model(...)
    """

    def __init__(
        self,
        target: str | Path | TextIO,
        run_id: str | None = None,
        max_bytes: int | None = None,
    ):
        self._target = target
        self._run_id = run_id
        self._max_bytes = max_bytes

    def __enter__(self) -> EventLog:
        self._log = EventLog(run_id=self._run_id)
        self._log.add_sink(JsonlSink(self._target, max_bytes=self._max_bytes))
        self._previous = set_event_log(self._log)
        return self._log

    def __exit__(self, *exc) -> None:
        set_event_log(self._previous)
        self._log.close()


# ----------------------------------------------------------------------
# reading logs back
# ----------------------------------------------------------------------
def manifest_path(path: str | Path) -> Path:
    """The rotation manifest sitting next to a JSONL log path."""
    path = Path(path)
    return path.with_name(path.name + ".manifest.json")


def segment_paths(path: str | Path) -> list[Path]:
    """Every file of a (possibly rotated) log, oldest segment first.

    Without a rotation manifest this is just ``[path]``; with one, the
    rotated segments it lists followed by the live file.
    """
    path = Path(path)
    manifest = manifest_path(path)
    if not manifest.exists():
        return [path]
    try:
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        segments = [str(name) for name in payload["segments"]]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ReproError(f"invalid rotation manifest {manifest}: {exc}") from exc
    return [path.with_name(name) for name in segments] + [path]


def read_events(
    path: str | Path,
    strict: bool = True,
    skipped: list[str] | None = None,
) -> list[dict]:
    """Parse a JSONL event log, validating the envelope of every record.

    Size-rotated logs (see :class:`JsonlSink`) are reassembled
    transparently: the manifest's segments are read in order before the
    live file, so callers see one continuous record stream.

    A run killed mid-write (the normal artifact of a crash) leaves a
    truncated final line behind. With ``strict=False`` that final bad line
    is skipped with a :class:`UserWarning` — and appended to ``skipped``
    when a list is passed — instead of raising; corruption anywhere else
    in the stream still raises, in both modes.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"event log not found: {path}")
    lines: list[tuple[Path, int, str]] = []
    for segment in segment_paths(path):
        if not segment.exists():
            raise ReproError(f"rotated log segment not found: {segment}")
        lines.extend(
            (segment, lineno, line)
            for lineno, line in enumerate(
                segment.read_text(encoding="utf-8").splitlines(), 1
            )
            if line.strip()
        )
    records = []
    for index, (segment, lineno, line) in enumerate(lines):
        is_last = index == len(lines) - 1
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ReproError(f"{segment}:{lineno}: record is not an object")
            missing = {"type", "run", "seq", "t"} - set(record)
            if missing:
                raise ReproError(
                    f"{segment}:{lineno}: record missing envelope keys {sorted(missing)}"
                )
        except json.JSONDecodeError as exc:
            if not strict and is_last:
                _skip_final_line(segment, lineno, line, skipped)
                continue
            raise ReproError(f"{segment}:{lineno}: invalid JSON record: {exc}") from exc
        except ReproError:
            if not strict and is_last:
                _skip_final_line(segment, lineno, line, skipped)
                continue
            raise
        records.append(record)
    return records


def _skip_final_line(
    path: Path, lineno: int, line: str, skipped: list[str] | None
) -> None:
    import warnings

    warnings.warn(
        f"{path}:{lineno}: skipping truncated final record "
        f"(likely a crashed run); pass strict=True to raise instead",
        stacklevel=3,
    )
    if skipped is not None:
        skipped.append(line)


def iter_events(records: list[dict], type: str) -> Iterator[dict]:
    """Records of one event type, in sequence order."""
    return (r for r in records if r.get("type") == type)
