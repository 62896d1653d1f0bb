"""The threshold set Λ and rounding of surviving numbers (Section III-C).

With arbitrary real edge weights, a surviving number may need unbounded precision;
to keep messages small the paper restricts the numbers sent to a set
``Λ = {(1+λ)^k : k ∈ Z}`` and rounds each node's surviving number *down* to the next
element of Λ after every `Update` (Algorithm 2, line 7).  Corollary III.10 shows the
overall guarantee becomes::

    r(v) / (1+λ)  <=  c(v) / (1+λ)  <=  b_v  <=  2(1+ε) · r(v)  <=  2(1+ε) · c(v)

``λ = 0`` denotes the un-rounded case ``Λ = R`` — required whenever the auxiliary
orientation subsets ``N_v`` are needed (Lemma III.11 explicitly relies on Λ = R).

:class:`LambdaGrid` bundles the rounding with an estimate of ``|Λ|`` restricted to
the values that can actually occur (between the smallest positive edge weight and
the total graph weight), which is what the CONGEST message-size accounting uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency, graph_to_csr
from repro.graph.graph import Graph
from repro.utils.numeric import round_down_to_grid


@dataclass(frozen=True)
class LambdaGrid:
    """The geometric threshold grid ``Λ`` with base ``1 + lam``.

    Attributes
    ----------
    lam:
        The grid parameter λ >= 0; ``0`` means Λ = R (no rounding).
    value_floor / value_ceiling:
        Optional positive bounds on the values the protocol can produce; used only
        to report a finite grid size for message accounting.
    """

    lam: float
    value_floor: Optional[float] = None
    value_ceiling: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise AlgorithmError(f"lambda must be non-negative, got {self.lam}")
        if (self.value_floor is not None and self.value_ceiling is not None
                and self.value_floor > self.value_ceiling):
            raise AlgorithmError("value_floor must not exceed value_ceiling")

    @property
    def is_exact(self) -> bool:
        """Whether the grid is the whole real line (λ = 0)."""
        return self.lam == 0.0

    def round_down(self, value: float) -> float:
        """Round ``value`` down to the next grid element (identity when λ = 0)."""
        return round_down_to_grid(value, self.lam)

    def grid_size(self) -> Optional[int]:
        """Number of grid values between the floor and the ceiling (None if unbounded).

        This is the ``|Λ|`` whose logarithm bounds the message size in the paper's
        Section III-C discussion.
        """
        if self.is_exact or self.value_floor is None or self.value_ceiling is None:
            return None
        if self.value_floor <= 0 or self.value_ceiling <= 0:
            return None
        span = math.log(self.value_ceiling / self.value_floor, 1.0 + self.lam)
        return max(1, int(math.floor(span)) + 1)


def grid_for_graph(graph: Graph, lam: float,
                   csr: Optional[CSRAdjacency] = None) -> LambdaGrid:
    """Build the :class:`LambdaGrid` sized to the values ``graph`` can produce.

    Surviving numbers always lie between the smallest positive edge weight (or 0)
    and the total graph weight, so ``|Λ|`` is ``O(log_{1+λ}(w(E)/w_min))``.

    The smallest positive weight is read from the CSR arrays (``weights`` and
    ``loops``); pass the caller's ``csr`` view of ``graph`` to skip building
    one.  The total weight is the graph's O(1) running ``total_weight``.
    """
    if csr is None:
        csr = graph_to_csr(graph)
    weights = np.concatenate((csr.weights, csr.loops))
    positive = weights[weights > 0]
    if positive.size == 0:
        return LambdaGrid(lam=lam, value_floor=None, value_ceiling=None)
    floor = float(positive.min())
    return LambdaGrid(lam=lam, value_floor=floor,
                      value_ceiling=max(graph.total_weight, floor))
