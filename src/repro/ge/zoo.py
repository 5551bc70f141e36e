"""Analytic ranking of the whole multiplier zoo in O(LUT).

Exploring a large multiplier registry with Monte-Carlo costs
O(samples·GEMM) per candidate; the closed-form statistics of
:mod:`repro.ge.analytic` cost milliseconds each, so the *entire* zoo can
be scored before any expensive characterization or accuracy evaluation.
:func:`rank_multipliers` backs the ``repro zoo`` subcommand (table +
JSON) and :func:`prefilter_multipliers` backs ``run_sweep(prefilter=N)``,
which drops the weakest candidates from a sweep grid before any training
happens.

The score is :meth:`AnalyticErrorStats.normalized_error` —
``sqrt(E[ε]² + Var[ε]) / std(y)``, the RMS per-output error in units of
the output spread — so 0 is exact and candidates of very different
absolute error magnitudes compare on one axis. Lower is better.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.approx.registry import available_multipliers, get_multiplier
from repro.errors import MultiplierError
from repro.ge.analytic import analytic_error_model, analytic_error_stats
from repro.obs import trace as tr


@dataclass(frozen=True)
class ZooEntry:
    """One ranked multiplier: analytic error statistics + fitted model."""

    rank: int
    name: str
    score: float  # normalized RMS error; 0 = exact, lower = better
    eps_mean: float
    eps_std: float
    y_std: float
    k: float
    c: float
    lower: float
    upper: float
    is_constant: bool  # constant f(y): GE degenerates to the plain STE
    energy_savings: float

    def to_dict(self) -> dict:
        return asdict(self)


def rank_multipliers(
    names: list[str] | None = None,
    reduce_dim: int = 72,
    act_bits: int = 8,
    weight_bits: int = 4,
    sigma_fraction: float = 0.35,
    slope_significance: float = 0.25,
) -> list[ZooEntry]:
    """Score every named multiplier analytically and sort best-first.

    ``names`` defaults to the full registry. Unknown names raise
    :class:`~repro.errors.MultiplierError` (callers that tolerate unknown
    candidates — the sweep prefilter — handle them explicitly).
    """
    names = list(names) if names is not None else available_multipliers()
    entries = []
    with tr.span("ge.zoo_rank"):
        for name in names:
            multiplier = get_multiplier(name)
            stats = analytic_error_stats(
                multiplier,
                reduce_dim=reduce_dim,
                act_bits=act_bits,
                weight_bits=weight_bits,
                sigma_fraction=sigma_fraction,
            )
            model = analytic_error_model(
                multiplier, slope_significance=slope_significance, stats=stats
            )
            entries.append(
                ZooEntry(
                    rank=0,
                    name=name,
                    score=stats.normalized_error(),
                    eps_mean=stats.eps_mean,
                    eps_std=stats.eps_std,
                    y_std=stats.y_std,
                    k=model.k,
                    c=model.c,
                    lower=model.lower,
                    upper=model.upper,
                    is_constant=model.is_constant,
                    energy_savings=multiplier.energy_savings,
                )
            )
    entries.sort(key=lambda e: (e.score, e.name))
    return [
        ZooEntry(**{**entry.to_dict(), "rank": position + 1})
        for position, entry in enumerate(entries)
    ]


def prefilter_multipliers(
    names: list[str],
    keep: int,
    **rank_kwargs,
) -> list[str]:
    """The ``keep`` analytically-best candidates of ``names``, input order.

    Unresolvable names pass straight through (a sweep turns them into
    recorded failure cells rather than silently dropping them), and
    duplicates survive as given. With ``keep`` >= the number of rankable
    candidates this is the identity.
    """
    if keep < 1:
        raise MultiplierError(f"prefilter must keep at least 1 candidate, got {keep}")
    resolvable = []
    for name in names:
        try:
            get_multiplier(name)
            resolvable.append(name)
        except MultiplierError:
            continue
    ranked = rank_multipliers(sorted(set(resolvable)), **rank_kwargs)
    kept = {entry.name for entry in ranked[:keep]}
    return [name for name in names if name in kept or name not in set(resolvable)]
