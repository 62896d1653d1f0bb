"""Theorem I.3 — the full weak-densest-subset pipeline (Definition IV.1).

The pipeline chains the four phases of Section IV:

1. **Phase 1** — Algorithm 2 for ``T`` rounds: every node learns a surviving number
   ``b_v`` (a γ-approximation of its maximal density);
2. **Phase 2** — Algorithm 4 for ``T + 2`` rounds: bounded-depth BFS trees rooted at
   local leaders (the node with the largest ``b`` within ``T`` hops);
3. **Phase 3** — Algorithm 5 for ``T`` rounds: single-threshold elimination with the
   leader's ``b`` restricted to each tree, recording per-round survival/degrees;
4. **Phase 4** — Algorithm 6 for ``≤ 2T + 4`` rounds: aggregation up each tree,
   selection of the densest round ``t*`` and a downstream flood so that every member
   of the reported subset knows it (and the subset's density).

The result satisfies Definition IV.1: the reported subsets are disjoint (one per
leader), every member knows its leader and the announced density, and — provided the
acceptance threshold of Algorithm 6 is the analysis-supported ``b_v / γ`` — the
subset of the globally best leader has density at least ``ρ* / γ`` (Lemma IV.4,
Corollary IV.5).

Execution engines
-----------------
Two implementations of phases 2-4 are available through the ``engine``
parameter of :func:`weak_densest_subsets`:

* ``"faithful"`` (default; aliases ``"simulation"``, ``"reference"``) — the
  per-node protocols on the synchronous simulator.  This is the reference
  ground truth and the only path with round/message accounting.
* ``"array"`` (alias ``"vectorized"``) — the batched CSR kernels of
  :mod:`repro.engine.densest_kernels`.  Phase 1 runs on the vectorised engine
  (or is served from a caller-supplied trajectory-backed result), phases 2-4
  as segmented NumPy over the CSR view; ``rounds_per_phase`` then reports the
  *nominal* per-phase budgets and ``messages_total`` is 0.  For integer and
  dyadic edge weights the reported ``subsets`` / ``reported_densities`` /
  ``actual_densities`` / ``node_assignment`` are bit-identical to the
  faithful path (the cross-engine corpus pins this); arbitrary float weights
  carry the usual last-ulp caveat of :mod:`repro.engine.kernels`.  The
  faithful path recomputes ``actual_densities`` with
  :meth:`Graph.subset_density`, the array path from the CSR arrays
  (:func:`repro.graph.csr.csr_subset_densities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.aggregation import (
    AggregationOutput,
    run_aggregation,
    total_aggregation_rounds,
)
from repro.core.bfs import BFSOutput, run_bfs_construction, total_bfs_rounds
from repro.core.local_elimination import LocalEliminationOutput, run_local_elimination
from repro.core.orientation import value_array
from repro.core.rounds import guarantee_after_rounds, rounds_for_epsilon, rounds_for_gamma
from repro.core.surviving import SurvivingNumbers, run_compact_elimination
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.obs import trace as obs_trace

#: Engine spellings accepted by :func:`weak_densest_subsets`.
REFERENCE_DENSEST_ENGINES = ("faithful", "simulation", "reference")
ARRAY_DENSEST_ENGINES = ("array", "vectorized")


@dataclass
class WeakDensestResult:
    """Output of the weak-densest-subset pipeline."""

    subsets: Dict[Hashable, frozenset]          #: leader id -> reported subset members
    reported_densities: Dict[Hashable, float]   #: leader id -> density announced by the root
    actual_densities: Dict[Hashable, float]     #: leader id -> density recomputed on the graph
    node_assignment: Dict[Hashable, Optional[Hashable]]  #: node -> leader id (None if unassigned)
    surviving: SurvivingNumbers                 #: the Phase-1 result
    rounds_total: int                           #: total synchronous rounds over all phases
    rounds_per_phase: Dict[str, int]            #: breakdown of the round budget
    messages_total: int                         #: total point-to-point messages
    gamma: float                                #: the approximation factor targeted
    phase1_reused: bool = False                 #: Phase 1 served from a precomputed
                                                #: trajectory; ``messages_total`` then
                                                #: covers phases 2-4 only
    engine: str = "faithful"                    #: which phases-2-4 implementation ran
                                                #: (``"faithful"`` or ``"array"``)

    @property
    def best_leader(self) -> Optional[Hashable]:
        """Leader of the subset with the largest *recomputed* density.

        Density ties are broken by :func:`~repro.utils.ordering.stable_node_order`
        (the earliest leader in the stable order wins), never by dict insertion
        order — so the faithful and array paths, whose collection orders differ,
        report the same leader.
        """
        if not self.actual_densities:
            return None
        from repro.utils.ordering import stable_node_order

        best = None
        for leader in stable_node_order(self.actual_densities):
            if best is None or self.actual_densities[leader] > self.actual_densities[best]:
                best = leader
        return best

    @property
    def best_density(self) -> float:
        """Largest recomputed density over the reported subsets (0.0 if none)."""
        if not self.actual_densities:
            return 0.0
        return max(self.actual_densities.values())

    def subsets_are_disjoint(self) -> bool:
        """Definition IV.1 sanity check: the reported subsets are pairwise disjoint."""
        seen: set = set()
        for members in self.subsets.values():
            if seen & members:
                return False
            seen |= members
        return True

    def to_dict(self) -> dict:
        """JSON-serializable form (uniform result protocol of :mod:`repro.problems`)."""
        from repro.utils.ordering import stable_node_order
        from repro.utils.serialize import json_node

        best = self.best_leader
        subsets = []
        for leader in stable_node_order(self.subsets):
            members = self.subsets[leader]
            subsets.append({
                "leader": json_node(leader),
                "size": len(members),
                "reported_density": self.reported_densities.get(leader),
                "actual_density": self.actual_densities.get(leader),
                "members": [json_node(v) for v in stable_node_order(members)],
            })
        return {
            "problem": "densest",
            "gamma": self.gamma,
            "engine": self.engine,
            "phase1_reused": self.phase1_reused,
            "rounds_total": self.rounds_total,
            "rounds_per_phase": dict(self.rounds_per_phase),
            "messages_total": self.messages_total,
            "best_density": self.best_density,
            "best_leader": json_node(best) if best is not None else None,
            "num_subsets": len(self.subsets),
            "subsets_disjoint": self.subsets_are_disjoint(),
            "subsets": subsets,
        }


def _collect_reference_outputs(agg_outputs: Dict[Hashable, "AggregationOutput"],
                               ) -> Tuple[Dict[Hashable, set], Dict[Hashable, float],
                                          Dict[Hashable, Optional[Hashable]]]:
    """Assemble ``(subsets, reported, node_assignment)`` from Phase-4 outputs.

    Every node of a tree that learned the root's decision must report the same
    density — the root announced one value and the flood forwards it verbatim.
    A disagreement means the protocol (or a future refactor of it) corrupted
    the flood, so it raises instead of being silently masked by last-write-wins
    dict insertion.
    """
    subsets: Dict[Hashable, set] = {}
    reported: Dict[Hashable, float] = {}
    node_assignment: Dict[Hashable, Optional[Hashable]] = {}
    for v, out in agg_outputs.items():
        node_assignment[v] = out.leader_id if out.sigma == 1 else None
        if out.sigma == 1:
            subsets.setdefault(out.leader_id, set()).add(v)
        if out.density is not None:
            previous = reported.get(out.leader_id)
            if previous is not None and previous != out.density:
                raise AlgorithmError(
                    f"inconsistent reported density for tree {out.leader_id!r}: "
                    f"{previous!r} vs {out.density!r} (node {v!r})")
            reported[out.leader_id] = out.density
    return subsets, reported, node_assignment


def _array_phases(graph: Graph, surviving: SurvivingNumbers, T: int, factor: float,
                  csr: Optional[CSRAdjacency],
                  ) -> Tuple[Dict[Hashable, set], Dict[Hashable, float],
                             Dict[Hashable, Optional[Hashable]], Dict[Hashable, float]]:
    """Phases 2-4 on the CSR kernels of :mod:`repro.engine.densest_kernels`.

    Returns ``(subsets, reported, node_assignment, actual)``; the actual
    densities of all reported subsets come from one pass over the CSR arrays.
    """
    from repro.engine.densest_kernels import densest_phases
    from repro.graph.csr import csr_subset_densities, graph_to_csr

    if csr is None:
        csr = graph_to_csr(graph)
    labels = csr.labels()
    values = value_array(surviving.values, labels)
    forest, num, _deg, decision = densest_phases(csr, values, T, factor)

    members = np.flatnonzero(decision.sigma)
    leader_ids = forest.leader[members]
    subsets: Dict[Hashable, set] = {}
    node_assignment: Dict[Hashable, Optional[Hashable]] = {
        label: None for label in labels}
    for i, leader_id in zip(members.tolist(), leader_ids.tolist()):
        member = labels[i]
        leader = labels[leader_id]
        node_assignment[member] = leader
        subsets.setdefault(leader, set()).add(member)
    # Accepted roots are their own leaders, and each accepted tree had at least
    # one member surviving its chosen round — so these keys match ``subsets``.
    reported = {labels[root]: float(decision.density[root])
                for root in np.flatnonzero(decision.t_star >= 0)}
    densities = csr_subset_densities(
        csr, np.where(decision.sigma, forest.leader, -1), csr.num_nodes)
    actual = {labels[leader_id]: float(densities[leader_id])
              for leader_id in dict.fromkeys(leader_ids.tolist())}
    return subsets, reported, node_assignment, actual


def weak_densest_subsets(graph: Graph, *, epsilon: Optional[float] = None,
                         gamma: Optional[float] = None, rounds: Optional[int] = None,
                         acceptance_factor: Optional[float] = None,
                         phase1: Optional[SurvivingNumbers] = None,
                         engine: Optional[str] = None,
                         csr: Optional[CSRAdjacency] = None,
                         ) -> WeakDensestResult:
    """Run the Theorem I.3 pipeline.

    Exactly one of ``epsilon`` (targets ``γ = 2(1+ε)``), ``gamma`` (``γ > 2``) or
    ``rounds`` (explicit ``T``) must be provided; the others are derived.

    Parameters
    ----------
    acceptance_factor:
        The divisor in Algorithm 6's acceptance test ``b_max >= b_v / acceptance_factor``.
        Defaults to the derived γ (the analysis-supported choice — see
        :mod:`repro.core.aggregation` for why the literal paper condition is not used).
    phase1:
        Optional precomputed Phase-1 :class:`~repro.core.surviving.SurvivingNumbers`
        for the *same* graph, λ = 0 and the same round budget — typically a
        session's cached λ=0 trajectory.  Skips Phase-1 execution; the result's
        ``messages_total`` then covers phases 2-4 only and ``phase1_reused`` is
        set.  Use only when Phase-1 message accounting is not needed.  With
        integer/dyadic edge weights every engine computes bit-identical
        surviving numbers, so phases 2-4 are unchanged; arbitrary float weights
        carry the last-ulp caveat of :mod:`repro.engine.kernels`.
    engine:
        ``"faithful"`` (default) runs phases 2-4 as per-node protocols on the
        synchronous simulator, with round/message accounting; ``"array"`` runs
        them as batched CSR kernels (see the module docstring), in which case
        Phase 1 — unless supplied via ``phase1`` — runs on the vectorised
        engine, ``messages_total`` is 0 and ``rounds_per_phase`` reports the
        nominal budgets.
    csr:
        Optional prebuilt CSR view of ``graph`` (e.g. a session's cached one);
        only consulted by the array engine, which otherwise builds its own.
    """
    if graph.num_nodes == 0:
        raise AlgorithmError("the weak densest subset problem needs a non-empty graph")
    resolved_engine = "faithful" if engine is None else str(engine)
    if resolved_engine in REFERENCE_DENSEST_ENGINES:
        use_array = False
    elif resolved_engine in ARRAY_DENSEST_ENGINES:
        use_array = True
    else:
        raise AlgorithmError(
            f"unknown densest engine {engine!r}; expected one of "
            f"{REFERENCE_DENSEST_ENGINES + ARRAY_DENSEST_ENGINES}")
    n = graph.num_nodes
    provided = [p is not None for p in (epsilon, gamma, rounds)]
    if sum(provided) != 1:
        raise AlgorithmError("provide exactly one of epsilon, gamma or rounds")
    if epsilon is not None:
        T = rounds_for_epsilon(n, epsilon)
    elif gamma is not None:
        T = rounds_for_gamma(n, gamma)
    else:
        T = int(rounds)  # type: ignore[arg-type]
        if T < 1:
            raise AlgorithmError(f"rounds must be >= 1, got {rounds}")
    derived_gamma = guarantee_after_rounds(n, T)
    factor = acceptance_factor if acceptance_factor is not None else derived_gamma

    # Phase 1: surviving numbers (or a caller-supplied precomputed result).
    run1 = None
    if phase1 is not None:
        if phase1.rounds != T:
            raise AlgorithmError(
                f"precomputed phase1 ran {phase1.rounds} rounds, but this request "
                f"resolves to T={T}")
        if not phase1.grid.is_exact:
            raise AlgorithmError(
                "precomputed phase1 must use the exact grid (lam=0); got "
                f"lam={phase1.grid.lam}")
        if set(phase1.values) != set(graph.nodes()):
            raise AlgorithmError(
                "precomputed phase1 does not cover the nodes of this graph")
        surviving = phase1
    elif use_array:
        from repro.engine.base import get_engine

        surviving = get_engine("vectorized").run(graph, T, lam=0.0,
                                                 track_kept=False, csr=csr)
    else:
        surviving, run1 = run_compact_elimination(graph, T, lam=0.0, track_kept=False)

    if use_array:
        with obs_trace.span("densest.phases", engine="array", T=T, n=n):
            subsets, reported, node_assignment, actual = _array_phases(
                graph, surviving, T, factor, csr)
        rounds_per_phase = {
            "phase1_surviving": T,
            "phase2_bfs": total_bfs_rounds(T),
            "phase3_local_elimination": T,
            "phase4_aggregation": total_aggregation_rounds(T),
        }
        messages_total = 0
    else:
        with obs_trace.span("densest.phases", engine="faithful", T=T, n=n):
            # Phase 2: BFS forest.
            bfs_outputs, run2 = run_bfs_construction(graph, surviving.values, T)
            # Phase 3: per-tree elimination.
            local_outputs, run3 = run_local_elimination(graph, bfs_outputs, T)
            # Phase 4: aggregation + decision.
            agg_outputs, run4 = run_aggregation(graph, bfs_outputs,
                                                local_outputs, factor, T)
        subsets, reported, node_assignment = _collect_reference_outputs(agg_outputs)
        rounds_per_phase = {
            "phase1_surviving": run1.stats.num_rounds if run1 is not None else T,
            "phase2_bfs": run2.stats.num_rounds,
            "phase3_local_elimination": run3.stats.num_rounds,
            "phase4_aggregation": run4.stats.num_rounds,
        }
        messages_total = sum(run.stats.total_messages
                             for run in (run1, run2, run3, run4) if run is not None)
        actual = {leader: graph.subset_density(members)
                  for leader, members in subsets.items() if members}

    return WeakDensestResult(
        subsets={k: frozenset(v) for k, v in subsets.items()},
        reported_densities=reported,
        actual_densities=actual,
        node_assignment=node_assignment,
        surviving=surviving,
        rounds_total=sum(rounds_per_phase.values()),
        rounds_per_phase=rounds_per_phase,
        messages_total=messages_total,
        gamma=derived_gamma,
        phase1_reused=phase1 is not None,
        engine="array" if use_array else "faithful",
    )


def expected_total_rounds(num_nodes: int, epsilon: float) -> int:
    """Upper bound on the total round budget of the pipeline for given ``n`` and ``ε``.

    Useful for experiment tables: ``T`` (Phase 1) + ``T + 2`` (Phase 2) + ``T``
    (Phase 3) + ``2T + 4`` (Phase 4) = ``5T + 6`` rounds, i.e. ``O(log_{1+ε} n)``.
    """
    T = rounds_for_epsilon(num_nodes, epsilon)
    return T + total_bfs_rounds(T) + T + total_aggregation_rounds(T)
