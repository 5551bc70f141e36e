"""Atomic, crash-safe file writes and content checksums.

A process killed mid-write must never leave a truncated artifact where a
good one used to be. Every writer here stages the content in a temporary
file in the *same directory* as the target (so the final rename stays on
one filesystem), fsyncs it, and moves it into place with ``os.replace`` —
which is atomic on POSIX. Readers either see the old complete file or the
new complete file, never a partial one.

Checksums (:func:`file_sha256`) pair with the writers to detect the
remaining failure mode: corruption of an already-written file (bad disk,
partial copy). The checkpoint manifests under
:mod:`repro.resilience.checkpoint` build on both.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_writer(path: str | Path, mode: str = "wb") -> Iterator[IO]:
    """Yield a stream whose content replaces ``path`` atomically on success.

    The stream writes to a hidden ``.<name>.*.tmp`` file next to the
    target; on clean exit it is flushed, fsynced and renamed over ``path``.
    On any exception the temporary file is removed and ``path`` is left
    untouched.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"atomic_writer supports modes 'w'/'wb', got {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        kwargs = {} if "b" in mode else {"encoding": "utf-8"}
        with os.fdopen(fd, mode, **kwargs) as stream:
            yield stream
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    with atomic_writer(path, "w") as stream:
        stream.write(text)


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Atomically replace ``path`` with ``payload`` rendered as JSON."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def file_sha256(path: str | Path, chunk_size: int = 1 << 20) -> str:
    """Hex SHA-256 digest of a file's content, streamed in chunks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as stream:
        while True:
            chunk = stream.read(chunk_size)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()
