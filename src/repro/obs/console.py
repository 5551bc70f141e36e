"""Leveled console output and a human-readable event sink.

The CLI (and any script) talks to the user through one :class:`Console`
with stdlib-style levels plus one extra: **result**. Result lines are the
machine-consumable outputs of a command (final accuracies, saved paths,
tables) and always go to stdout so piping keeps working; ``--quiet``
raises the threshold so progress chatter disappears but results do not.

:class:`ConsoleSink` adapts an :class:`~repro.obs.events.EventLog` to the
console, rendering each structured record as one readable line — the
"human sink" counterpart of the JSONL sink.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.obs import events as ev


class Console:
    """Leveled writer: debug/info/warning/error plus always-on results."""

    def __init__(
        self,
        level: int = ev.INFO,
        stream: TextIO | None = None,
        err_stream: TextIO | None = None,
    ):
        self.level = level
        self._stream = stream
        self._err_stream = err_stream

    # streams resolve lazily so pytest's capsys redirection is honoured
    @property
    def stream(self) -> TextIO:
        return self._stream if self._stream is not None else sys.stdout

    @property
    def err_stream(self) -> TextIO:
        return self._err_stream if self._err_stream is not None else sys.stderr

    def log(self, level: int, message: str) -> None:
        if level < self.level:
            return
        target = self.err_stream if level >= ev.WARNING else self.stream
        print(message, file=target)

    def debug(self, message: str) -> None:
        self.log(ev.DEBUG, message)

    def info(self, message: str) -> None:
        self.log(ev.INFO, message)

    def warning(self, message: str) -> None:
        self.log(ev.WARNING, f"warning: {message}")

    def error(self, message: str) -> None:
        self.log(ev.ERROR, f"error: {message}")

    def result(self, message: str) -> None:
        """Final output of a command — printed to stdout at every level."""
        print(message, file=self.stream)


_global_console = Console()


def get_console() -> Console:
    """The process-wide console used by the CLI and examples."""
    return _global_console


class ConsoleSink(ev.Sink):
    """Render structured events as human-readable console lines."""

    def __init__(self, console: Console | None = None, level: int = ev.DEBUG):
        self.console = console or get_console()
        self.level = level

    def emit(self, record: dict) -> None:
        self.console.log(self.level, format_event(record))


def format_event(record: dict) -> str:
    """One-line human rendering of an event record."""
    t = record.get("t", 0.0)
    prefix = f"[{t:9.3f}s]"
    kind = record.get("type", "?")
    if kind == ev.EPOCH:
        parts = [f"epoch {record.get('epoch', '?')}/{record.get('epochs', '?')}"]
        if "loss" in record:
            parts.append(f"loss={record['loss']:.4f}")
        if record.get("accuracy") is not None:
            parts.append(f"acc={record['accuracy']:.4f}")
        if "lr" in record:
            parts.append(f"lr={record['lr']:.2e}")
        if "epoch_time" in record:
            parts.append(f"{record['epoch_time']:.2f}s")
        return f"{prefix} {'  '.join(parts)}"
    if kind == ev.STAGE:
        extra = ""
        if record.get("phase") == "end":
            bits = []
            if record.get("accuracy_after") is not None:
                bits.append(f"acc={record['accuracy_after']:.4f}")
            if "duration" in record:
                bits.append(f"{record['duration']:.2f}s")
            if bits:
                extra = f" ({', '.join(bits)})"
        return f"{prefix} stage {record.get('name', '?')} {record.get('phase', '?')}{extra}"
    if kind == ev.EVAL:
        return f"{prefix} eval {record.get('name', '?')}: accuracy={record.get('accuracy', float('nan')):.4f}"
    if kind == ev.RUN_START:
        return f"{prefix} run {record.get('run', '?')} start: {record.get('command', '')}"
    if kind == ev.RUN_END:
        return f"{prefix} run end: status={record.get('status', '?')}"
    keys = sorted(set(record) - {"type", "run", "seq", "t", "level"})
    body = " ".join(f"{k}={record[k]!r}" for k in keys)
    return f"{prefix} {kind} {body}".rstrip()
