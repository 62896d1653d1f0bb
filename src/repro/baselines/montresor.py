"""Montresor, De Pellegrini & Miorandi's distributed k-core decomposition.

This is the distributed *exact* comparator the paper starts from (reference [23]):
the same compact elimination procedure, but run until the surviving numbers stop
changing — at which point they equal the exact coreness values.  Convergence can
take Θ(n) rounds even on constant-diameter graphs (footnote 2 of the paper), which
is exactly the gap the paper's T = O(log n) early stopping closes at the price of a
2(1+ε) factor.

The implementation reuses the vectorised engine of :mod:`repro.core.surviving` and
simply iterates until a fixed point, reporting how many rounds that took.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

import numpy as np

from repro.core.surviving import iterate_to_fixed_point
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.graph import Graph


@dataclass(frozen=True)
class MontresorResult:
    """Exact coreness values plus the number of rounds the protocol needed."""

    coreness: Dict[Hashable, float]
    rounds_to_convergence: int

    def value_of(self, node: Hashable) -> float:
        """Exact coreness of ``node`` as computed by the converged protocol."""
        return self.coreness[node]


def montresor_kcore(graph: Graph, *,
                    max_rounds: int | None = None) -> MontresorResult:
    """Run the compact elimination procedure to convergence (exact coreness).

    Parameters
    ----------
    max_rounds:
        Safety cap; defaults to ``n + 1`` which is always sufficient (each round
        before convergence strictly decreases some node's surviving number through
        a finite lattice of attainable values).  The fixed point is detected
        exactly: the iteration runs on that finite lattice.
    """
    if graph.num_nodes == 0:
        raise AlgorithmError("k-core decomposition of the empty graph is undefined")
    csr = graph_to_csr(graph)
    values, rounds = iterate_to_fixed_point(csr, max_rounds=max_rounds)
    labels = csr.labels()
    coreness = {labels[i]: float(values[i]) for i in range(csr.num_nodes)}
    return MontresorResult(coreness=coreness, rounds_to_convergence=max(1, rounds))
