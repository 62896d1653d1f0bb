"""High-level one-shot API for the paper's three problems.

These free functions are thin wrappers that build a throwaway
:class:`repro.session.Session` for a single request; they are kept (and remain
fully supported) for scripts and notebooks that touch a graph exactly once.
Anything that issues *repeated* requests — servers, sweeps, benchmarks — should
hold a ``Session`` (or route through :class:`repro.engine.batch.BatchRunner`)
instead: the session owns the CSR view and Λ-grids, caches results, and resumes
cached elimination trajectories when the round budget grows, none of which a
one-shot call can amortise.

* :func:`approximate_coreness` — Theorem I.1: per-node ``2(1+ε)``-approximate
  coreness values / maximal densities;
* :func:`approximate_orientation` — Theorem I.2: a feasible edge orientation with
  ``2(1+ε)``-approximate maximum weighted in-degree;
* :func:`approximate_densest_subsets` — Theorem I.3: the weak densest subset
  collection of Definition IV.1.

The result dataclasses (shared with the session / problem-registry layer) all
implement the uniform ``to_dict()`` JSON protocol of :mod:`repro.problems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, MutableMapping, Optional, Tuple

from repro.core.densest import WeakDensestResult
from repro.core.orientation import Orientation, max_value_of
from repro.core.surviving import SurvivingNumbers
from repro.engine.base import EngineLike
from repro.errors import AlgorithmError
from repro.graph.graph import Graph
from repro.utils.ordering import rank_by_value
from repro.utils.serialize import json_node, json_value_pairs


@dataclass
class CorenessResult:
    """Approximate coreness / maximal-density values for every node.

    ``values`` is the result's own mapping: a write to it reaches no other
    result and not the session's cached
    :class:`~repro.core.surviving.SurvivingNumbers`.  On the trajectory
    engines it is a :class:`~repro.core.orientation.NodeValues` sharing the
    read-only value array, and its label dict is built on the first keyed
    read or write; ``max_value`` and ``to_dict()`` read the array.
    """

    values: MutableMapping[Hashable, float]   #: the surviving numbers ``b_v``
    rounds: int                     #: rounds executed
    guarantee: float                #: proven factor ``2·n^(1/T)`` (modulo the 1+λ slack)
    lam: float                      #: the Λ-grid parameter used
    surviving: Optional[SurvivingNumbers] = None  #: full lower-level result
                                                  #: (trajectory, kept sets...)

    def value_of(self, node: Hashable) -> float:
        """Approximate coreness of ``node`` (an upper bound on the true coreness)."""
        return self.values[node]

    def top_nodes(self, k: int) -> Tuple[Hashable, ...]:
        """The ``k`` nodes with the largest approximate coreness (descending).

        Ties are broken by the ascending natural order of the nodes themselves
        (so integer nodes rank numerically: 9 before 10), falling back to the
        lexicographic order of ``repr(node)`` only when the node set mixes
        unorderable types — see :func:`repro.utils.ordering.rank_by_value`.
        A negative ``k`` raises :class:`~repro.errors.AlgorithmError`.
        """
        if k < 0:
            raise AlgorithmError(f"top_nodes needs k >= 0, got {k}")
        return tuple(rank_by_value(self.values)[:k])

    @property
    def max_value(self) -> float:
        """The largest surviving number (the batch/CLI objective)."""
        return max_value_of(self.values)

    def to_dict(self) -> dict:
        """JSON-serializable form (uniform result protocol of :mod:`repro.problems`)."""
        return {
            "problem": "coreness",
            "rounds": self.rounds,
            "guarantee": self.guarantee,
            "lam": self.lam,
            "num_nodes": len(self.values),
            "max_value": self.max_value,
            "values": json_value_pairs(self.values),
        }


def approximate_coreness(graph: Graph, *, epsilon: Optional[float] = None,
                         gamma: Optional[float] = None, rounds: Optional[int] = None,
                         lam: float = 0.0,
                         engine: EngineLike = "vectorized") -> CorenessResult:
    """Theorem I.1: approximate every node's coreness (and maximal density).

    Exactly one of ``epsilon`` (γ = 2(1+ε)), ``gamma`` (γ > 2) or ``rounds`` must be
    given.  The returned values satisfy
    ``c(v)/(1+λ) <= b_v <= 2·n^(1/T)·(coreness or maximal density of v)``.

    One-shot wrapper over :meth:`repro.session.Session.coreness`; hold a
    ``Session`` instead when issuing repeated requests on the same graph.

    Parameters
    ----------
    lam:
        Λ-grid parameter for message-size reduction (0 = exact values).
    engine:
        Anything :func:`repro.engine.get_engine` resolves: an engine instance,
        ``"vectorized"`` (NumPy, fast — the default), ``"faithful"`` (alias
        ``"simulation"``: per-node protocol with message statistics), or
        ``"sharded"`` / ``"sharded:4"`` (bounded-memory shard-by-shard kernels).
    """
    from repro.session import Session

    if graph.num_nodes == 0:
        raise AlgorithmError("approximate_coreness needs a non-empty graph")
    session = Session(graph, engine=engine, lam=lam)
    return session.coreness(epsilon=epsilon, gamma=gamma, rounds=rounds)


@dataclass
class OrientationResult:
    """Approximate min-max edge orientation.

    ``values`` is the result's own mapping, as in :class:`CorenessResult`.
    The orientation's ``assignment`` and ``in_weight`` are arrays on the CSR
    view's ids behind mappings whose label dicts are built on the first
    keyed read or write; ``max_in_weight`` and ``to_dict()`` read the arrays.
    """

    orientation: Orientation        #: the explicit edge assignment
    values: MutableMapping[Hashable, float]   #: the surviving numbers that produced it
    rounds: int                     #: rounds executed
    guarantee: float                #: proven factor ``2·n^(1/T)``
    surviving: Optional[SurvivingNumbers] = None  #: full lower-level result

    @property
    def max_in_weight(self) -> float:
        """The achieved objective (maximum weighted in-degree)."""
        return self.orientation.max_in_weight

    def to_dict(self) -> dict:
        """JSON-serializable form (uniform result protocol of :mod:`repro.problems`)."""
        return {
            "problem": "orientation",
            "rounds": self.rounds,
            "guarantee": self.guarantee,
            "max_in_weight": self.max_in_weight,
            "conflicts": self.orientation.conflicts,
            "violations": self.orientation.violations,
            "assignment": [[json_node(u), json_node(v), json_node(owner)]
                           for (u, v), owner in self.orientation.assignment.items()],
            "in_weight": json_value_pairs(self.orientation.in_weight),
        }


def approximate_orientation(graph: Graph, *, epsilon: Optional[float] = None,
                            gamma: Optional[float] = None, rounds: Optional[int] = None,
                            engine: EngineLike = "vectorized",
                            tie_break: str = "history") -> OrientationResult:
    """Theorem I.2: compute a ``2·n^(1/T)``-approximate min-max edge orientation.

    Runs Algorithm 2 with ``Λ = R`` (required by Lemma III.11), collects the
    auxiliary subsets ``N_v`` and materialises the orientation, resolving the rare
    both-endpoints conflicts deterministically.  ``engine`` is resolved through
    the registry exactly as in :func:`approximate_coreness`.  One-shot wrapper
    over :meth:`repro.session.Session.orientation`.
    """
    from repro.session import Session

    if graph.num_nodes == 0:
        raise AlgorithmError("approximate_orientation needs a non-empty graph")
    session = Session(graph, engine=engine)
    return session.orientation(epsilon=epsilon, gamma=gamma, rounds=rounds,
                               tie_break=tie_break)


def approximate_densest_subsets(graph: Graph, *, epsilon: Optional[float] = None,
                                gamma: Optional[float] = None,
                                rounds: Optional[int] = None,
                                engine: Optional[str] = None) -> WeakDensestResult:
    """Theorem I.3: the weak densest subset collection (Definition IV.1).

    One-shot wrapper over :meth:`repro.session.Session.densest` (which delegates
    to :func:`repro.core.densest.weak_densest_subsets`).  ``engine`` selects the
    phases-2-4 implementation: the faithful simulator by default, the batched
    CSR kernels with ``engine="array"``.
    """
    from repro.session import Session

    if graph.num_nodes == 0:
        raise AlgorithmError("the weak densest subset problem needs a non-empty graph")
    session = Session(graph)
    return session.densest(epsilon=epsilon, gamma=gamma, rounds=rounds, engine=engine)
