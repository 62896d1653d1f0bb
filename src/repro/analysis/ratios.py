"""Approximation-ratio metrics (Definition II.5).

A value ``β(v)`` is a γ-approximation of ``s(v)`` when ``s(v) <= β(v) <= γ·s(v)``.
The functions here compare per-node estimate maps against exact maps and summarise
the resulting ratios (max, mean, quantiles, fraction within a target factor), which
is what the E1/E2 experiment tables report.  The convention ``0/0 = 1`` is used for
isolated nodes (both the estimate and the truth are zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Sequence

from repro.errors import AlgorithmError
from repro.utils.numeric import safe_ratio


@dataclass(frozen=True)
class RatioSummary:
    """Summary statistics of per-node approximation ratios."""

    count: int
    max: float
    mean: float
    median: float
    p90: float
    min: float
    lower_bound_violations: int   #: nodes where the estimate fell below the exact value

    def within(self, factor: float) -> bool:
        """Whether the *worst* node is within ``factor`` (the paper's guarantee form)."""
        return self.max <= factor + 1e-9


def per_node_ratios(estimates: Mapping[Hashable, float],
                    exact: Mapping[Hashable, float]) -> Dict[Hashable, float]:
    """Per-node ratios ``estimate / exact`` with the 0/0 = 1 convention.

    Raises if the two maps cover different node sets.
    """
    if set(estimates) != set(exact):
        raise AlgorithmError("estimates and exact values must cover the same node set")
    ratios: Dict[Hashable, float] = {}
    for v, est in estimates.items():
        ratios[v] = safe_ratio(est, exact[v])
    return ratios


def summarize_ratios(estimates: Mapping[Hashable, float],
                     exact: Mapping[Hashable, float], *,
                     tol: float = 1e-9) -> RatioSummary:
    """Build a :class:`RatioSummary` for the given estimate/exact maps."""
    ratios = per_node_ratios(estimates, exact)
    values = sorted(ratios.values())
    if not values:
        raise AlgorithmError("cannot summarise an empty ratio map")
    violations = sum(1 for v, est in estimates.items()
                     if est < exact[v] * (1.0 - tol) - tol)
    n = len(values)
    finite = [v for v in values if math.isfinite(v)]
    mean = sum(finite) / len(finite) if finite else math.inf
    return RatioSummary(
        count=n,
        max=values[-1],
        mean=mean,
        median=values[n // 2] if n % 2 == 1 else 0.5 * (values[n // 2 - 1] + values[n // 2]),
        p90=values[min(n - 1, int(math.ceil(0.9 * n)) - 1)],
        min=values[0],
        lower_bound_violations=violations,
    )


def fraction_within(estimates: Mapping[Hashable, float], exact: Mapping[Hashable, float],
                    factor: float) -> float:
    """Fraction of nodes whose ratio is at most ``factor``."""
    ratios = per_node_ratios(estimates, exact)
    if not ratios:
        raise AlgorithmError("cannot evaluate an empty ratio map")
    good = sum(1 for r in ratios.values() if r <= factor + 1e-9)
    return good / len(ratios)


def max_ratio_trajectory(trajectories: Sequence[Mapping[Hashable, float]],
                         exact: Mapping[Hashable, float]) -> list:
    """Worst-node ratio after each round, given per-round estimate maps."""
    return [summarize_ratios(est, exact).max for est in trajectories]
