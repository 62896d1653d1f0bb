"""Test oracles: the original per-node and per-edge Python loops.

The production paths in :mod:`repro.core.orientation` are batched NumPy
rewrites of these loops.  The loops stay here, beside their only callers, as
the ground truth the equivalence tests compare the rewrites against.  So does
:func:`deep_copy`, the eager copy that :meth:`Graph.copy` replaced with
copy-on-write rows.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.core.orientation import EdgeKey, Orientation, canonical_edge
from repro.core.update import update_sorted, update_stable
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph


def deep_copy(graph: Graph) -> Graph:
    """A copy of ``graph`` that copies every row dict up front.

    This was :meth:`Graph.copy` before it shared rows copy-on-write; the copy
    owns all its rows, so it is the reference a copy-on-write copy must
    behave like under any sequence of writes.
    """
    g = Graph()
    g._adj = {v: dict(nbrs) for v, nbrs in graph._adj.items()}
    g._loops = dict(graph._loops)
    g._num_edges = graph._num_edges
    g._total_weight = graph._total_weight
    return g


def orientation_from_kept_reference(
        graph: Graph, kept: Dict[Hashable, Sequence[Hashable]],
        values: Optional[Dict[Hashable, float]] = None) -> Orientation:
    """Per-edge reference construction (the original Python loop).

    Walks :meth:`Graph.edges` once with the same rules as
    :func:`~repro.core.orientation.orientation_from_kept`: the ground truth
    the equivalence tests compare the array implementation against.
    """
    kept_sets = {v: set(neighbors) for v, neighbors in kept.items()}
    in_weight: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes()}
    loop_weight: Dict[Hashable, float] = {}
    assignment: Dict[EdgeKey, Hashable] = {}
    conflicts = 0
    violations = 0

    for u, v, w in graph.edges():
        if u == v:
            loop_weight[u] = loop_weight.get(u, 0.0) + w
            in_weight[u] += w
            continue
        u_claims = v in kept_sets.get(u, ())   # u accepts the edge (v ∈ N_u)
        v_claims = u in kept_sets.get(v, ())   # v accepts the edge (u ∈ N_v)
        if u_claims and v_claims:
            conflicts += 1
            owner = u if in_weight[u] <= in_weight[v] else v
        elif u_claims:
            owner = u
        elif v_claims:
            owner = v
        else:
            violations += 1
            if values is not None:
                owner = u if values.get(u, 0.0) >= values.get(v, 0.0) else v
            else:
                owner = canonical_edge(u, v)[0]
        assignment[canonical_edge(u, v)] = owner
        in_weight[owner] += w

    return Orientation(assignment=assignment, in_weight=in_weight, conflicts=conflicts,
                       violations=violations, loop_weight=loop_weight)


def kept_sets_from_trajectory_reference(
        csr: CSRAdjacency, trajectory: np.ndarray, *,
        tie_break: str = "history") -> Dict[Hashable, Tuple[Hashable, ...]]:
    """Per-node reference reconstruction (the original Python loop).

    Replays the final Update locally per node through the scalar
    :func:`~repro.core.update.update_sorted` / ``update_stable`` code paths.
    The ground truth the equivalence tests compare
    :func:`~repro.core.orientation.kept_sets_from_trajectory` against — the
    batched implementation is the production path
    (``tests/test_engine_bench.py`` checks that it beats this loop under every
    tie-break mode).
    """
    total_rounds = trajectory.shape[0] - 1
    labels = csr.labels()
    kept: Dict[Hashable, Tuple[Hashable, ...]] = {}
    for v in range(csr.num_nodes):
        nbrs = csr.neighbors(v)
        weights = csr.neighbor_weights(v)
        label_v = labels[v]
        if len(nbrs) == 0:
            kept[label_v] = ()
            continue
        entries = [(labels[int(u)], float(trajectory[total_rounds - 1, int(u)]), float(w))
                   for u, w in zip(nbrs, weights)]
        if tie_break == "stable":
            # Reconstruct the neighbour ordering the protocol would have evolved:
            # start from the adjacency order and stable-sort it by the values the
            # node received in every earlier round (see CompactEliminationProtocol).
            order = [int(u) for u in nbrs]
            for past_round in range(1, total_rounds):
                received = trajectory[past_round - 1]
                position = {u: i for i, u in enumerate(order)}
                order.sort(key=lambda u: (float(received[u]), position[u]))
            result = update_stable(entries, [labels[u] for u in order],
                                   self_loop=float(csr.loops[v]))
        else:
            histories = None
            if tie_break == "history":
                histories = {labels[int(u)]: trajectory[:total_rounds - 1, int(u)].tolist()
                             for u in nbrs}
            result = update_sorted(entries, histories=histories,
                                   self_loop=float(csr.loops[v]))
        kept[label_v] = result.kept
    return kept
