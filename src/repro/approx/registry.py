"""Registry of the multipliers evaluated in the paper.

Names:
- ``exact`` — reference multiplier.
- ``truncated1`` .. ``truncated5`` — truncated array multipliers [21].
- ``evoapprox470`` etc. — synthetic EvoApprox8b stand-ins (see
  :mod:`repro.approx.evoapprox`).

``paper_mre`` records the MRE the paper reports for each design so benches
can print paper-vs-measured side by side.
"""

from __future__ import annotations

from functools import lru_cache

from repro.approx.evoapprox import EVOAPPROX_SPECS, EvoApproxMultiplier
from repro.approx.multiplier import ExactMultiplier, Multiplier
from repro.approx.truncated import TruncatedMultiplier
from repro.errors import MultiplierError

# MRE values from Table V (fallback Table III/VI) of the paper, fractional.
PAPER_MRE: dict[str, float] = {
    "truncated1": 0.005,
    "truncated2": 0.021,
    "truncated3": 0.055,
    "truncated4": 0.110,
    "truncated5": 0.198,
    "evoapprox470": 0.021,
    "evoapprox29": 0.079,
    "evoapprox111": 0.116,
    "evoapprox104": 0.192,
    "evoapprox469": 0.205,
    "evoapprox228": 0.189,
    "evoapprox145": 0.205,
    "evoapprox249": 0.488,
}

# The multiplier sets each paper table evaluates.
TABLE3_MULTIPLIERS = [
    "truncated3",
    "truncated4",
    "truncated5",
    "evoapprox470",
    "evoapprox29",
    "evoapprox111",
    "evoapprox104",
    "evoapprox469",
    "evoapprox228",
    "evoapprox145",
    "evoapprox249",
]
TABLE5_MULTIPLIERS = [
    "truncated1",
    "truncated2",
    "truncated3",
    "truncated4",
    "truncated5",
    "evoapprox470",
    "evoapprox29",
    "evoapprox228",
    "evoapprox249",
]
TABLE6_MULTIPLIERS = [
    "truncated1",
    "truncated2",
    "truncated3",
    "truncated4",
    "truncated5",
    "evoapprox29",
    "evoapprox111",
    "evoapprox104",
    "evoapprox469",
    "evoapprox228",
    "evoapprox145",
]
TABLE7_MULTIPLIERS = [
    "truncated1",
    "truncated2",
    "truncated3",
    "truncated4",
    "truncated5",
    "evoapprox470",
    "evoapprox228",
]


def get_multiplier(name: str) -> Multiplier:
    """Instantiate (and cache) a multiplier by registry name."""
    return as_multiplier(name)


def as_multiplier(multiplier: str | Multiplier) -> Multiplier:
    """Resolve a registry name or pass a :class:`Multiplier` through.

    Anything else raises :class:`MultiplierError` instead of failing
    later with an ``AttributeError`` deep in a GEMM.
    """
    if isinstance(multiplier, Multiplier):
        return multiplier
    if isinstance(multiplier, str):
        return _get_multiplier_cached(multiplier.lower())
    raise MultiplierError(
        "expected a multiplier name or a Multiplier, got "
        f"{type(multiplier).__name__} {multiplier!r}"
    )


@lru_cache(maxsize=None)
def _get_multiplier_cached(key: str) -> Multiplier:
    if key == "exact":
        return ExactMultiplier()
    if key.startswith("truncated"):
        suffix = key.removeprefix("truncated")
        corrected = suffix.endswith("bc")
        if corrected:
            suffix = suffix.removesuffix("bc")
        try:
            lsbs = int(suffix)
        except ValueError:
            raise MultiplierError(f"bad truncated multiplier name {key!r}") from None
        if corrected:
            from repro.approx.truncated import BiasCorrectedTruncatedMultiplier

            return BiasCorrectedTruncatedMultiplier(lsbs)
        return TruncatedMultiplier(lsbs)
    if key == "mitchell":
        from repro.approx.logarithmic import MitchellMultiplier

        return MitchellMultiplier()
    if key.startswith("drum"):
        from repro.approx.logarithmic import DrumMultiplier

        try:
            k = int(key.removeprefix("drum"))
        except ValueError:
            raise MultiplierError(f"bad DRUM multiplier name {key!r}") from None
        return DrumMultiplier(k)
    if key.startswith("evoapprox"):
        try:
            ident = int(key.removeprefix("evoapprox"))
        except ValueError:
            raise MultiplierError(f"bad EvoApprox multiplier name {key!r}") from None
        return EvoApproxMultiplier(ident)
    raise MultiplierError(f"unknown multiplier {key!r}")


def available_multipliers() -> list[str]:
    """All multiplier names evaluated in the paper, plus ``exact``."""
    truncated = [f"truncated{t}" for t in range(1, 6)]
    evo = [f"evoapprox{i}" for i in sorted(EVOAPPROX_SPECS)]
    return ["exact", *truncated, *evo]


def paper_mre(name: str) -> float | None:
    """Paper-reported MRE for ``name`` (fractional), if recorded."""
    return PAPER_MRE.get(name.lower())
