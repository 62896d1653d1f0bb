"""Output checks run after every timed operation, outside its timing.

Each check returns ``None`` when the output is right and a one-line reason
when it is not; the workload then counts the operation as failed.  Checks are
memoised by output digest, so a repeated request costs one hash, and two
answers to the same request must have the same digest.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Optional

import numpy as np

from repro.analysis.invariants import check_orientation_invariants
from repro.baselines import exact_kcore
from repro.core.rounds import guarantee_after_rounds
from repro.graph.graph import Graph

#: Relative slack on the paper's inequalities (float rounding only).
TOL = 1e-9


def value_array(values: Dict[Hashable, float], graph: Graph) -> np.ndarray:
    """Per-node values in the graph's node order."""
    return np.fromiter((values[v] for v in graph.nodes()), dtype=np.float64,
                       count=graph.num_nodes)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode("utf-8"))
    return h.hexdigest()


class Checker:
    """Verifies outputs of one workload run against the paper's guarantees."""

    def __init__(self) -> None:
        # id -> (graph, token, exact coreness or None); holding the graph
        # keeps its id from being reused by another graph.
        self._graphs: Dict[int, list] = {}
        self._verdicts: Dict[str, Optional[str]] = {}
        self._answers: Dict[Hashable, str] = {}

    def _entry(self, graph: Graph) -> list:
        entry = self._graphs.get(id(graph))
        if entry is None:
            entry = self._graphs[id(graph)] = [graph, len(self._graphs), None]
        return entry

    def exact_coreness(self, graph: Graph) -> np.ndarray:
        """Exact coreness (``baselines.exact_kcore``) in node order, cached
        per graph."""
        entry = self._entry(graph)
        if entry[2] is None:
            entry[2] = value_array(exact_kcore.coreness(graph), graph)
        return entry[2]

    def _memo(self, key: str, check) -> Optional[str]:
        if key not in self._verdicts:
            self._verdicts[key] = check()
        return self._verdicts[key]

    def same_answer(self, request: Hashable, answer: str) -> Optional[str]:
        """Repeated requests must produce identical output digests."""
        first = self._answers.setdefault(request, answer)
        if first != answer:
            return f"repeat of {request!r} answered differently"
        return None

    # ------------------------------------------------------------ problems
    def coreness(self, graph: Graph, result, rounds: int, lam: float = 0.0):
        """Sandwich ``c(v)/(1+λ) <= b(v) <= γ·c(v)``, γ = 2·n^(1/T).

        Returns ``(digest, failure)``.
        """
        b = value_array(result.values, graph)
        key = digest("coreness", self._entry(graph)[1], rounds, lam, b)

        def check():
            c = self.exact_coreness(graph)
            gamma = guarantee_after_rounds(graph.num_nodes, rounds)
            low = np.flatnonzero(b < c / (1.0 + lam) - TOL * np.maximum(1.0, c))
            high = np.flatnonzero(b > gamma * c + TOL * np.maximum(1.0, gamma * c))
            if low.size or high.size:
                v = int((low if low.size else high)[0])
                return (f"coreness T={rounds} lam={lam}: b={b[v]!r} outside "
                        f"[c/(1+lam), gamma*c] with c={c[v]!r}, gamma={gamma:.6g}")
            return None

        return key, self._memo(key, check)

    def orientation(self, graph: Graph, result, rounds: int,
                    tie_break: str = "history"):
        """Definition III.7 invariants, and max in-weight <= γ · max coreness
        (the optimum is at most the degeneracy).

        The ``naive`` tie-break is the paper's ablation: it voids Lemma III.11,
        so only feasibility is required of it (every edge given to one of its
        endpoints).
        """
        b = value_array(result.values, graph)
        load = value_array(result.orientation.in_weight, graph)
        key = digest("orientation", self._entry(graph)[1], rounds, tie_break,
                     b, load)

        def feasible():
            assignment = result.orientation.assignment
            edges = sum(len(graph.neighbor_weights(v)) for v in graph.nodes()) // 2
            if len(assignment) != edges or any(
                    owner not in edge for edge, owner in assignment.items()):
                return f"orientation T={rounds} naive: not every edge is assigned"
            return None

        def check():
            if tie_break == "naive":
                return feasible()
            report = check_orientation_invariants(graph, result.values,
                                                  result.surviving.kept)
            if not report.holds:
                return f"orientation T={rounds}: {report.violations[0]}"
            gamma = guarantee_after_rounds(graph.num_nodes, rounds)
            bound = gamma * float(self.exact_coreness(graph).max())
            if result.max_in_weight > bound * (1.0 + TOL):
                return (f"orientation T={rounds}: max in-weight "
                        f"{result.max_in_weight!r} above gamma*c_max={bound!r}")
            return None

        return key, self._memo(key, check)

    def densest(self, graph: Graph, result, rounds: int):
        """Disjoint subsets, and best density >= (c_max / 2) / γ."""
        subsets = sorted((repr(leader), sorted(map(repr, members)))
                         for leader, members in result.subsets.items())
        key = digest("densest", self._entry(graph)[1], rounds, subsets)

        def check():
            if not result.subsets_are_disjoint():
                return f"densest T={rounds}: reported subsets overlap"
            gamma = guarantee_after_rounds(graph.num_nodes, rounds)
            required = float(self.exact_coreness(graph).max()) / 2.0 / gamma
            best = max((graph.subset_density(members)
                        for members in result.subsets.values() if members),
                       default=0.0)
            if best * (1.0 + TOL) < required:
                return (f"densest T={rounds}: best density {best!r} below "
                        f"(c_max/2)/gamma={required!r}")
            return None

        return key, self._memo(key, check)
