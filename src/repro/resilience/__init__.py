"""Resilience subsystem: crash-safe checkpoints, divergence guards, fault
isolation.

The paper's protocol is a long multi-stage pipeline (FP teacher → 8A4W
student → approximate student → multiplier × method × temperature sweep);
this package makes every stage of it survivable:

- :class:`CheckpointManager` — atomic, SHA-256-checksummed training
  checkpoints (model + optimizer + RNG + history) with a retention
  policy; ``train_model(..., checkpoints=..., resume=True)`` continues a
  killed run bit-for-bit.
- :class:`DivergenceGuard` — detects NaN/Inf losses, exploding gradient
  norms and accuracy collapse, rolls the run back to the last epoch
  snapshot and retries with an exponentially reduced learning rate.
- :func:`call_with_retry` — the per-cell fault boundary used by
  :func:`repro.pipeline.run_sweep` so one bad multiplier becomes a
  recorded failure instead of a dead grid.

Atomic file primitives live in :mod:`repro.utils.atomic` (re-exported
here) so lower layers can use them without import cycles. See
``docs/RESILIENCE.md`` for formats and semantics.
"""

from repro.resilience.checkpoint import FORMAT_VERSION, Checkpoint, CheckpointManager
from repro.resilience.guard import DivergenceGuard, GuardConfig, GuardTrip
from repro.resilience.retry import FailureRecord, call_with_retry
from repro.utils.atomic import (
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
    file_sha256,
)

__all__ = [
    "FORMAT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "DivergenceGuard",
    "GuardConfig",
    "GuardTrip",
    "FailureRecord",
    "call_with_retry",
    "atomic_writer",
    "atomic_write_text",
    "atomic_write_json",
    "file_sha256",
]
