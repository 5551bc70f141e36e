"""Unified runtime configuration resolution (``repro.config``).

Every runtime knob the library reads from its environment — worker
parallelism, the error-model estimator, the serving deadlines — resolves
through one helper, :func:`resolve`, implementing a single documented
precedence (most specific wins):

1. **per-call kwarg** — an explicit argument at a call site
   (``resolve("serve_max_batch", call=value)``);
2. **:func:`configure`** — process-wide programmatic override
   (``repro.cli.main`` installs ``--error-model-method`` here for one
   run and restores the previous override on exit);
3. **environment** — the knob's ``REPRO_*`` variable;
4. **default** — the knob's registered default.

This module is the only place in ``src/repro`` that reads ``REPRO_*``
environment variables at runtime (asserted by the public-API tests);
everything else — :mod:`repro.parallel`, :mod:`repro.ge`,
:mod:`repro.serve` — calls :func:`resolve`. The knob registry below is
also the provenance source for run metadata (:mod:`repro.obs.runmeta`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError

__all__ = [
    "Knob",
    "KNOBS",
    "configure",
    "knob_names",
    "perf_env_vars",
    "resolve",
]


# ----------------------------------------------------------------------
# value parsers / validators
# ----------------------------------------------------------------------
def _parse_int_min1(name: str) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            return max(1, int(raw))
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None

    return parse


def _parse_float_min0(name: str) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} must be a number, got {raw!r}") from None
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {raw!r}")
        return value

    return parse


def _parse_flag(raw: str) -> bool:
    return raw.strip() not in ("", "0")


def _parse_choice(name: str, choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        value = raw.strip().lower()
        if value not in choices:
            raise ConfigError(
                f"{name} must be one of {', '.join(choices)}; got {raw!r}"
            )
        return value

    return parse


@dataclass(frozen=True)
class Knob:
    """One registered runtime knob.

    ``parse_env`` turns the raw environment string into a value (raising
    :class:`~repro.errors.ConfigError` on malformed input); overrides
    given to :func:`configure` are stored as given — their call sites
    validate on use.
    """

    name: str
    env: str
    default: Any
    parse_env: Callable[[str], Any]
    doc: str = ""


# The knob registry. Defaults of ``None`` mean "auto": the consuming
# module picks (e.g. ``cpus`` falls back to ``os.cpu_count()``,
# ``serve_replicas`` to one replica per usable CPU).
KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "cpus",
            "REPRO_CPUS",
            None,
            _parse_int_min1("REPRO_CPUS"),
            "usable hardware parallelism override (default: os.cpu_count())",
        ),
        Knob(
            "force_parallel",
            "REPRO_FORCE_PARALLEL",
            False,
            _parse_flag,
            "bypass the small-work amortization guard (testing aid)",
        ),
        Knob(
            "error_model_method",
            "REPRO_ERROR_MODEL_METHOD",
            "auto",
            _parse_choice(
                "REPRO_ERROR_MODEL_METHOD", ("auto", "analytic", "montecarlo")
            ),
            "error-model estimator: analytic (closed-form), montecarlo, or "
            "auto (analytic with Monte-Carlo fallback)",
        ),
        Knob(
            "serve_deadline_ms",
            "REPRO_SERVE_DEADLINE_MS",
            5.0,
            _parse_float_min0("REPRO_SERVE_DEADLINE_MS"),
            "micro-batching latency deadline in milliseconds",
        ),
        Knob(
            "serve_max_batch",
            "REPRO_SERVE_MAX_BATCH",
            32,
            _parse_int_min1("REPRO_SERVE_MAX_BATCH"),
            "maximum samples coalesced into one served micro-batch",
        ),
        Knob(
            "serve_queue_depth",
            "REPRO_SERVE_QUEUE_DEPTH",
            256,
            _parse_int_min1("REPRO_SERVE_QUEUE_DEPTH"),
            "admission-control bound on queued samples before rejection",
        ),
        Knob(
            "serve_replicas",
            "REPRO_SERVE_REPLICAS",
            None,
            _parse_int_min1("REPRO_SERVE_REPLICAS"),
            "model-replica worker count (default: one per usable CPU)",
        ),
    )
}


_lock = threading.Lock()
_configured: dict[str, Any] = {}  # tier 2: configure()


def _knob(name: str) -> Knob:
    try:
        return KNOBS[name]
    except KeyError:
        raise ConfigError(
            f"unknown config knob {name!r}; known knobs: {', '.join(sorted(KNOBS))}"
        ) from None


def resolve(name: str, call: Any = None) -> Any:
    """The effective value of knob ``name`` under the documented precedence.

    ``call`` is the per-call override tier: pass the caller's explicit
    kwarg through and ``None`` (the conventional "not given") falls to
    the ambient tiers.
    """
    knob = _knob(name)
    if call is not None:
        return call
    with _lock:
        if name in _configured:
            return _configured[name]
    raw = os.environ.get(knob.env, "")
    if raw.strip():
        return knob.parse_env(raw)
    return knob.default


def configure(**knobs: Any) -> dict[str, Any]:
    """Install process-wide overrides; returns the previous override map.

    Setting a knob to ``None`` clears its override (resolution falls to
    the environment/default tiers again). The returned mapping can be
    passed back — ``configure(**previous)`` — to restore the prior state
    of exactly the knobs touched.
    """
    previous: dict[str, Any] = {}
    with _lock:
        for name, value in knobs.items():
            _knob(name)
            previous[name] = _configured.get(name)
            if value is None:
                _configured.pop(name, None)
            else:
                _configured[name] = value
    return previous


def knob_names() -> list[str]:
    """Sorted names of every registered knob."""
    return sorted(KNOBS)


def perf_env_vars() -> tuple[str, ...]:
    """Environment variables stamped into run/benchmark provenance."""
    return tuple(KNOBS[name].env for name in sorted(KNOBS))
