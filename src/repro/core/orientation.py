"""Min-max edge orientation from the auxiliary subsets ``N_v`` (Theorem I.2).

After the compact elimination procedure (Algorithm 2 with ``Λ = R``) every node ``v``
holds a subset ``N_v`` of its neighbours.  The paper's invariants (Definition III.7,
proved in Lemma III.11) are:

1. ``Σ_{u ∈ N_v} w(u, v) <= b_v`` — the load a node accepts never exceeds its
   surviving number;
2. for every edge ``{u, v}``: ``u ∈ N_v`` or ``v ∈ N_u`` — every edge has at least
   one endpoint willing to take it.

Orienting every edge towards an endpoint whose auxiliary subset contains the other
endpoint therefore yields a feasible orientation whose maximum weighted in-degree is
at most ``max_v b_v``-bounded *per node*, hence (Lemma III.3 + weak LP duality) a
``2·n^(1/T)``-approximation of the optimum.  Conflicts — edges claimed by both
endpoints — are resolved with one extra conceptual round, as the paper notes; any
resolution preserves the guarantee because dropping load only helps.

This module turns the ``N_v`` sets (or a surviving-number trajectory from the
vectorised engine) into an explicit :class:`Orientation` and evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.update import update_sorted, update_stable
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency, graph_to_csr
from repro.graph.graph import Graph

EdgeKey = Tuple[Hashable, Hashable]


def canonical_edge(u: Hashable, v: Hashable) -> EdgeKey:
    """A canonical (order-independent) key for the undirected edge ``{u, v}``."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class Orientation:
    """An assignment of every (non-loop) edge to one of its endpoints.

    ``assignment[e] = v`` means edge ``e`` is oriented *towards* ``v`` (``v`` pays
    its weight in the min-max objective).  Self-loops are charged to their single
    endpoint and recorded in ``loop_weight``.
    """

    assignment: Dict[EdgeKey, Hashable]
    in_weight: Dict[Hashable, float]
    conflicts: int = 0        #: edges claimed by both endpoints (resolved arbitrarily)
    violations: int = 0       #: edges claimed by neither endpoint (invariant 2 failures)
    loop_weight: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def max_in_weight(self) -> float:
        """The objective value: the maximum weighted in-degree over all nodes."""
        if not self.in_weight:
            return 0.0
        return max(self.in_weight.values())

    def owner(self, u: Hashable, v: Hashable) -> Hashable:
        """The endpoint that edge ``{u, v}`` is assigned to."""
        return self.assignment[canonical_edge(u, v)]


def orientation_from_kept(graph: Graph, kept: Dict[Hashable, Sequence[Hashable]],
                          values: Optional[Dict[Hashable, float]] = None, *,
                          csr: Optional[CSRAdjacency] = None) -> Orientation:
    """Build an :class:`Orientation` from the per-node auxiliary subsets.

    Parameters
    ----------
    graph:
        The input graph.
    kept:
        ``N_v`` per node, as produced by Algorithm 2 with ``Λ = R``.
    values:
        Optional surviving numbers; used only to resolve pathological edges claimed
        by *neither* endpoint (which Lemma III.11 rules out for the faithful
        protocol, but which can occur in the A1/E5 ablations): such an edge is
        assigned to the endpoint with the larger surviving number, falling back to a
        deterministic identity-based choice.
    csr:
        The caller's CSR view of ``graph`` (a :class:`~repro.session.Session`
        passes its own); built when omitted.  It changes no result.

    Notes
    -----
    Conflicts (both endpoints claim the edge) are resolved towards the endpoint with
    the currently *smaller* accumulated in-weight — a deterministic stand-in for the
    paper's "one more round of communication"; either choice preserves the
    approximation guarantee.

    This is the array implementation over the CSR view: the claims of both
    endpoints of every edge are looked up in one sorted array of kept
    ``(node, neighbour)`` keys, and single-claim and violation edges get their
    owners vectorised.  Only the conflict rule walks the edges in Python, in
    :meth:`Graph.edges` order up to the last conflict, because each resolution
    depends on the loads before it.  The result equals
    :func:`orientation_from_kept_reference` (the original per-edge loop, kept
    as the test oracle) field for field, dict key order included.
    """
    if csr is None:
        csr = graph_to_csr(graph)
    labels = csr.labels()
    n = csr.num_nodes
    # CSR entries with row < col, in row-major order, are graph.edges()'s
    # non-loop edges in its order.
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    upper = rows < csr.indices
    us, vs, ws = rows[upper], csr.indices[upper], csr.weights[upper]

    # Every (node, member) pair of the kept sets as one sorted key array;
    # labels that are not nodes of the graph claim nothing.  The sentinel
    # n * n exceeds every edge key, so a lookup position is always in range.
    index = dict(zip(labels, range(n)))
    members = np.fromiter(
        map(index.get, chain.from_iterable(kept.values()), repeat(-1)), dtype=np.int64)
    claimants = np.repeat(
        np.fromiter(map(index.get, kept, repeat(-1)), dtype=np.int64, count=len(kept)),
        np.fromiter(map(len, kept.values()), dtype=np.int64, count=len(kept)))
    known = (claimants >= 0) & (members >= 0)
    claims = np.append(np.sort(claimants[known] * n + members[known]), n * n)

    def claimed(keys: np.ndarray) -> np.ndarray:
        return claims[np.searchsorted(claims, keys)] == keys

    u_claims = claimed(us * n + vs)   # u accepts the edge (v ∈ N_u)
    v_claims = claimed(vs * n + us)   # v accepts the edge (u ∈ N_v)
    conflict = u_claims & v_claims
    neither = ~(u_claims | v_claims)
    owner = np.where(u_claims, us, vs)
    ranks = _repr_ranks(labels)
    if neither.any():
        if values is not None:
            node_values = np.fromiter(map(values.get, labels, repeat(0.0)),
                                      dtype=np.float64, count=n)
            u_wins = node_values[us] >= node_values[vs]
        else:
            u_wins = ranks[us] <= ranks[vs]   # canonical_edge(u, v)[0]
        owner[neither] = np.where(u_wins, us, vs)[neither]

    conflicts = int(conflict.sum())
    if conflicts:
        # The running-in-weight rule, one pass up to the last conflict.
        stop = int(np.flatnonzero(conflict)[-1]) + 1
        resolved = np.where(conflict, -1, owner)[:stop].tolist()
        u_list, v_list, w_list = (a[:stop].tolist() for a in (us, vs, ws))
        load = [0.0] * n
        for k, o in enumerate(resolved):
            if o < 0:
                u, v = u_list[k], v_list[k]
                o = resolved[k] = u if load[u] <= load[v] else v
            load[o] += w_list[k]
        owner[:stop] = resolved

    # np.bincount accumulates in input order, so every node's load is summed
    # in edges() order, as the per-edge loop does; loops are added last.
    in_weight = np.bincount(owner, weights=ws, minlength=n) + csr.loops
    swap = ranks[us] > ranks[vs]
    label_array = np.fromiter(labels, dtype=object, count=n)
    keys = zip(label_array[np.where(swap, vs, us)].tolist(),
               label_array[np.where(swap, us, vs)].tolist())
    return Orientation(
        assignment=dict(zip(keys, label_array[owner].tolist())),
        in_weight=dict(zip(labels, in_weight.tolist())),
        conflicts=conflicts, violations=int(neither.sum()),
        loop_weight={v: 0.0 + w for v, w in graph.self_loops().items()})


def _repr_ranks(labels: Sequence[Hashable]) -> np.ndarray:
    """Dense rank of every label's ``repr`` (equal reprs share a rank).

    ``canonical_edge(u, v)`` puts ``u`` first iff ``ranks[u] <= ranks[v]``.
    """
    if all(type(label) is int for label in labels):
        # Distinct ints have distinct reprs, and for ints the identity order
        # ("int", repr) is the repr order.
        return _identity_ranks(labels)
    reprs = list(map(repr, labels))
    rank_of = {text: i for i, text in enumerate(sorted(set(reprs)))}
    return np.fromiter(map(rank_of.__getitem__, reprs), dtype=np.int64,
                       count=len(reprs))


def orientation_from_kept_reference(
        graph: Graph, kept: Dict[Hashable, Sequence[Hashable]],
        values: Optional[Dict[Hashable, float]] = None) -> Orientation:
    """Per-edge reference construction (the original Python loop).

    Walks :meth:`Graph.edges` once with the same rules as
    :func:`orientation_from_kept`.  Kept only as the ground truth the
    equivalence tests compare the array implementation against.
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


def _validate_trajectory(csr: CSRAdjacency, trajectory: np.ndarray) -> int:
    """Shared validation of the two reconstruction paths; returns ``T``."""
    if trajectory.ndim != 2 or trajectory.shape[1] != csr.num_nodes:
        raise AlgorithmError("trajectory shape does not match the CSR view")
    total_rounds = trajectory.shape[0] - 1
    if total_rounds < 1:
        raise AlgorithmError("the trajectory must contain at least one executed round")
    return total_rounds


def _identity_ranks(labels: Sequence[Hashable]) -> np.ndarray:
    """Rank of every node under the deterministic identity order of Update.

    :func:`repro.core.update.update_sorted` breaks final ties by
    ``(type name, repr)`` of the label; the rank array lets the vectorised
    reconstruction feed that order to ``np.lexsort`` as a plain int key.
    """
    from repro.core.update import _comparable_id

    n = len(labels)
    if all(type(label) is int and 0 <= label and label.bit_length() <= 63
           for label in labels):
        # Fast path for the ubiquitous 0..n-1 integer labels (int64-sized, so
        # the asarray below cannot overflow): the identity key is
        # ("int", repr(label)), i.e. plain lexicographic order of the
        # decimal strings — computable with a C-speed unicode argsort.
        order_arr = np.argsort(np.asarray(labels, dtype=np.int64).astype("U"),
                               kind="stable")
    else:
        order_arr = np.asarray(
            sorted(range(n), key=lambda i: _comparable_id(labels[i])),
            dtype=np.int64)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order_arr] = np.arange(n, dtype=np.int64)
    return ranks


def kept_sets_from_trajectory(csr: CSRAdjacency, trajectory: np.ndarray, *,
                              tie_break: str = "history",
                              ) -> Dict[Hashable, Tuple[Hashable, ...]]:
    """Recover the final-round auxiliary subsets from a surviving-number trajectory.

    The vectorised engine only tracks surviving numbers; since ``N_v`` is a pure
    function of the values the node has received over the rounds (Algorithm 3), it
    can be recomputed locally per node from the trajectory.  The result is identical
    to what the faithful protocol maintains — this equivalence is asserted by the
    test-suite.

    This is the batched NumPy implementation (one ``np.lexsort`` + segmented
    prefix scan over every node's final-round Update at once); the per-node
    Python loop it replaced survives as
    :func:`kept_sets_from_trajectory_reference`, which the equivalence tests
    compare against.  The two are bit-identical whenever the intermediate
    weight sums are exactly representable (integer / dyadic weights — the same
    caveat as :mod:`repro.engine.kernels`).

    All three tie-break rules reduce to one lexicographic sort.  Ascending,
    Algorithm 3 orders a node's neighbours by ``(b_u, history, final tie)``
    where ``history`` is the sequence of values received in earlier rounds,
    most recent first — for ``"stable"`` this holds because iterated stable
    sorts compose into exactly that lexicographic key, with the adjacency
    position as the final tie instead of the identity rank, and for
    ``"naive"`` the history columns are simply absent.

    Parameters
    ----------
    csr:
        CSR view of the graph (defines the integer node ids of ``trajectory``).
    trajectory:
        Array of shape ``(T+1, n)`` from
        :func:`repro.core.surviving.surviving_numbers_vectorized`.
    tie_break:
        ``"history"`` (paper's rule), ``"stable"`` or ``"naive"``.
    """
    total_rounds = _validate_trajectory(csr, trajectory)
    if tie_break not in ("history", "stable", "naive"):
        raise AlgorithmError(f"unknown tie_break rule {tie_break!r}; "
                             f"expected one of ('history', 'stable', 'naive')")
    n = csr.num_nodes
    labels = csr.labels()
    if n == 0:
        return {}
    counts = np.diff(csr.indptr)
    total_entries = int(csr.indptr[-1])
    if total_entries == 0:
        return {label: () for label in labels}
    nbr = csr.indices
    final_received = trajectory[total_rounds - 1]
    vals = final_received[nbr]

    # Per-row *descending* sort by (b, history most-recent-first, final tie).
    # Every comparison column — the current value b, each history round, and
    # the identity rank — is a property of the neighbour *node*, so the whole
    # multi-key comparison collapses into one integer rank per node (a lexsort
    # over n nodes), and the per-entry sort becomes a single int64 argsort
    # over the m adjacency entries instead of T+1 lexsort passes over them.
    # Columns, most significant first; round T receives trajectory[T-1], and
    # earlier rounds' values form the tie-breaking history (most recent
    # first).  A converged trajectory repeats rows, and adjacent duplicate
    # sort keys cannot change a lexicographic comparison, so duplicates are
    # skipped — the column count is bounded by the rounds to the fixed point.
    node_columns: List[np.ndarray] = [final_received]
    if tie_break in ("history", "stable"):
        previous: Optional[np.ndarray] = None
        for t in range(total_rounds - 2, -1, -1):
            row = trajectory[t]
            if previous is None or not np.array_equal(row, previous):
                node_columns.append(row)
            previous = row
    node_keys = [-column for column in reversed(node_columns)]
    if tie_break != "stable":
        # Identity rank as the least significant key makes the node order
        # strict; "stable" leaves ties to the per-entry adjacency position.
        node_keys.insert(0, -_identity_ranks(labels))
    node_perm = np.lexsort(node_keys)  # nodes in descending comparison order
    node_rank = np.empty(n, dtype=np.int64)
    if tie_break == "stable":
        # Dense ranks: nodes with identical (value, history) columns share a
        # rank, leaving the final tie to the adjacency position below.
        boundary = np.zeros(n, dtype=np.int64)
        for column in node_columns:
            in_order = column[node_perm]
            boundary[1:] |= in_order[1:] != in_order[:-1]
        node_rank[node_perm] = np.cumsum(boundary)
    else:
        node_rank[node_perm] = np.arange(n, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    combined = rows * np.int64(n + 1) + node_rank[nbr]
    # Sorting the *reversed* entry array stably and mapping the indices back
    # resolves equal combined keys by descending adjacency position — exactly
    # the "stable" rule (positions are distinct elsewhere, so the other modes
    # are unaffected).
    order = (total_entries - 1
             - np.argsort(combined[::-1], kind="stable"))

    # The scan of Algorithm 3, segmented: within each row walk the descending
    # order accumulating s = self_loop + Σw and stop at the first position
    # where s exceeds the *next* (smaller) surviving number; everything strictly
    # before the stop is kept, the stop entry itself iff s <= b there.
    sorted_vals = vals[order]
    sorted_w = csr.weights[order]
    flat_cs = np.cumsum(sorted_w)
    row_starts = csr.indptr[:-1]
    nonempty = counts > 0
    starts_ne = row_starts[nonempty]
    before_row = np.zeros(n, dtype=np.float64)
    before_row[nonempty] = flat_cs[starts_ne] - sorted_w[starts_ne]
    acc = flat_cs - np.repeat(before_row, counts) + np.repeat(csr.loops, counts)
    next_vals = np.empty(total_entries, dtype=np.float64)
    next_vals[:-1] = sorted_vals[1:]
    next_vals[(csr.indptr[1:] - 1)[nonempty]] = -np.inf  # row ends (incl. the last)
    stop_candidates = np.where(acc > next_vals,
                               np.arange(total_entries, dtype=np.int64), total_entries)
    # Every non-empty row stops (its last position compares against -inf), so
    # the segmented minimum is always a valid flat index.
    first_stop = np.minimum.reduceat(stop_candidates, starts_ne)
    stop_index = np.full(n, -1, dtype=np.int64)
    stop_index[nonempty] = first_stop

    # Assemble the kept tuples in the reference order: the entries strictly
    # above the stop, listed by ascending surviving number, then the stop
    # entry last when its prefix sum fits under its own value.
    sorted_labels = list(map(labels.__getitem__, nbr[order].tolist()))
    # Reversing the flat list once turns every per-row "reversed slice" into a
    # plain slice: flat positions start..stop-1 (descending value) map to
    # reversed positions M-stop..M-start-1 (ascending value).
    reversed_labels = sorted_labels[::-1]
    stop_kept = (acc <= sorted_vals).tolist()
    starts_list = row_starts.tolist()
    stops_list = stop_index.tolist()
    kept: Dict[Hashable, Tuple[Hashable, ...]] = {}
    for v, label in enumerate(labels):
        stop = stops_list[v]
        if stop < 0:
            kept[label] = ()
            continue
        entry = tuple(reversed_labels[total_entries - stop:
                                      total_entries - starts_list[v]])
        if stop_kept[stop]:
            entry += (sorted_labels[stop],)
        kept[label] = entry
    return kept


def kept_sets_from_trajectory_reference(
        csr: CSRAdjacency, trajectory: np.ndarray, *,
        tie_break: str = "history") -> Dict[Hashable, Tuple[Hashable, ...]]:
    """Per-node reference reconstruction (the original Python loop).

    Replays the final Update locally per node through the scalar
    :func:`~repro.core.update.update_sorted` / ``update_stable`` code paths.
    Kept only as the ground truth the equivalence tests compare
    :func:`kept_sets_from_trajectory` against — the batched implementation is
    the production path (measured 5-20x faster depending on graph size and
    tie-break mode; see ``scripts/bench.py`` / ``BENCH_PR3.json``).
    """
    total_rounds = _validate_trajectory(csr, trajectory)
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


def orientation_from_values_greedy(graph: Graph, values: Dict[Hashable, float]) -> Orientation:
    """A value-guided heuristic orientation (not the paper's algorithm).

    Every edge is oriented towards the endpoint with the *larger* surviving number
    (ties broken by identity).  Used as an ablation to show that the auxiliary-subset
    mechanism of Algorithm 3 — not just the values — is what carries the guarantee.
    """
    in_weight: Dict[Hashable, float] = {v: 0.0 for v in graph.nodes()}
    loop_weight: Dict[Hashable, float] = {}
    assignment: Dict[EdgeKey, Hashable] = {}
    for u, v, w in graph.edges():
        if u == v:
            loop_weight[u] = loop_weight.get(u, 0.0) + w
            in_weight[u] += w
            continue
        bu, bv = values.get(u, 0.0), values.get(v, 0.0)
        if bu > bv:
            owner = u
        elif bv > bu:
            owner = v
        else:
            owner = canonical_edge(u, v)[0]
        assignment[canonical_edge(u, v)] = owner
        in_weight[owner] += w
    return Orientation(assignment=assignment, in_weight=in_weight, loop_weight=loop_weight)


def check_feasible(graph: Graph, orientation: Orientation) -> bool:
    """Whether every non-loop edge of ``graph`` is assigned to one of its endpoints."""
    for u, v, _ in graph.edges():
        if u == v:
            continue
        key = canonical_edge(u, v)
        if key not in orientation.assignment:
            return False
        if orientation.assignment[key] not in (u, v):
            return False
    return True
