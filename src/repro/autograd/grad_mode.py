"""Global gradient-recording switch, mirroring ``torch.no_grad`` semantics."""

from __future__ import annotations

import contextlib
import threading

_state = threading.local()


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return getattr(_state, "enabled", True)


def set_grad_enabled(enabled: bool) -> None:
    """Globally enable or disable graph recording for the current thread."""
    _state.enabled = bool(enabled)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording.

    Used for evaluation loops, teacher forward passes and calibration, where
    building the backward graph would waste memory.
    """
    previous = is_grad_enabled()
    set_grad_enabled(False)
    try:
        yield
    finally:
        set_grad_enabled(previous)
