"""Checks of the paper's invariants and theorem statements.

These are used by the tests (including the hypothesis property tests) and by the
A1 tie-break ablation; each check returns a small report object rather than raising,
so the ablations can *measure* how often an invariant breaks when the algorithm is
deliberately weakened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.graph.graph import Graph


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of an invariant check."""

    name: str
    holds: bool
    violations: Tuple[str, ...] = ()

    def __bool__(self) -> bool:  # allows ``assert check_x(...)`` in tests
        return self.holds


def check_orientation_invariants(graph: Graph, values: Mapping[Hashable, float],
                                 kept: Mapping[Hashable, Sequence[Hashable]], *,
                                 tol: float = 1e-9) -> InvariantReport:
    """Definition III.7: load bound per node and per-edge coverage.

    * Invariant 1: ``Σ_{u ∈ N_v} w(u, v) <= b_v`` for every node ``v``;
    * Invariant 2: for every non-loop edge ``{u, v}``, ``u ∈ N_v`` or ``v ∈ N_u``.
    """
    violations: List[str] = []
    kept_sets = {v: set(neighbors) for v, neighbors in kept.items()}
    for v in graph.nodes():
        load = sum(graph.edge_weight(u, v) for u in kept_sets.get(v, ()) if u != v)
        if load > values.get(v, 0.0) + tol:
            violations.append(f"load({v!r})={load:.6g} exceeds b={values.get(v, 0.0):.6g}")
    for u, v, _ in graph.edges():
        if u == v:
            continue
        if u not in kept_sets.get(v, set()) and v not in kept_sets.get(u, set()):
            violations.append(f"edge ({u!r}, {v!r}) claimed by neither endpoint")
    return InvariantReport(name="orientation-invariants", holds=not violations,
                           violations=tuple(violations))


def check_sandwich(values: Mapping[Hashable, float], coreness: Mapping[Hashable, float],
                   maximal_density: Mapping[Hashable, float], guarantee: float, *,
                   lam: float = 0.0, tol: float = 1e-6) -> InvariantReport:
    """Theorem III.5 / Corollary III.10 sandwich:
    ``r(v)/(1+λ) <= c(v)/(1+λ) <= b_v <= γ·r(v) <= γ·c(v)``."""
    violations: List[str] = []
    slack = 1.0 + lam
    for v, b in values.items():
        c = coreness.get(v, 0.0)
        r = maximal_density.get(v, 0.0)
        if r > c + tol * max(1.0, c):
            violations.append(f"r({v!r})={r:.6g} exceeds c({v!r})={c:.6g}")
        if b < c / slack - tol * max(1.0, c):
            violations.append(f"b({v!r})={b:.6g} below c/(1+λ)={c / slack:.6g}")
        if b > guarantee * r + tol * max(1.0, guarantee * r):
            violations.append(f"b({v!r})={b:.6g} exceeds γ·r={guarantee * r:.6g}")
    return InvariantReport(name="value-sandwich", holds=not violations,
                           violations=tuple(violations))


def check_coreness_density_relation(coreness: Mapping[Hashable, float],
                                    maximal_density: Mapping[Hashable, float], *,
                                    tol: float = 1e-6) -> InvariantReport:
    """Corollary III.6: ``r(v) <= c(v) <= 2·r(v)`` for every node."""
    violations: List[str] = []
    for v, c in coreness.items():
        r = maximal_density.get(v, 0.0)
        if r > c + tol * max(1.0, c):
            violations.append(f"r({v!r})={r:.6g} > c({v!r})={c:.6g}")
        if c > 2.0 * r + tol * max(1.0, r):
            violations.append(f"c({v!r})={c:.6g} > 2r({v!r})={2 * r:.6g}")
    return InvariantReport(name="coreness-vs-maximal-density", holds=not violations,
                           violations=tuple(violations))


def check_weak_densest_definition(graph: Graph, subsets: Mapping[Hashable, frozenset],
                                  best_required_density: float, *,
                                  tol: float = 1e-9) -> InvariantReport:
    """Definition IV.1: disjoint subsets, and at least one with density >= ρ*/γ."""
    violations: List[str] = []
    seen: set = set()
    for leader, members in subsets.items():
        overlap = seen & set(members)
        if overlap:
            violations.append(f"subset of leader {leader!r} overlaps earlier subsets: {overlap!r}")
        seen |= set(members)
    if subsets:
        best = max(graph.subset_density(members) for members in subsets.values() if members)
        if best + tol < best_required_density:
            violations.append(
                f"best reported density {best:.6g} below required {best_required_density:.6g}")
    else:
        if best_required_density > tol:
            violations.append("no subset was reported although a non-trivial density is required")
    return InvariantReport(name="weak-densest-definition", holds=not violations,
                           violations=tuple(violations))


def check_monotone_non_increasing(trajectory, *, tol: float = 1e-9) -> InvariantReport:
    """Surviving numbers never increase from one round to the next (per node)."""
    import numpy as np

    arr = np.asarray(trajectory, dtype=float)
    violations: List[str] = []
    diffs = arr[1:] - arr[:-1]
    finite = np.isfinite(arr[:-1])
    bad = (diffs > tol) & finite
    if bad.any():
        rounds, nodes = np.nonzero(bad)
        for r, v in list(zip(rounds, nodes))[:10]:
            violations.append(f"node column {v} increased at round {r + 1}")
    return InvariantReport(name="monotone-surviving-numbers", holds=not violations,
                           violations=tuple(violations))
