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
vectorised engine) into an explicit :class:`Orientation` and evaluates it.  The
sets themselves live on the integer ids of a CSR view as :class:`KeptSets`,
from the trajectory to the orientation, and so do the answers: per-node values
(:class:`NodeValues`) and the edge assignment (:class:`EdgeOwners`).  Each is
a mapping whose label dict is built only when a caller reads it by label.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, MutableMapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bfs import identity_ranks
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency, graph_to_csr
from repro.graph.graph import Graph

EdgeKey = Tuple[Hashable, Hashable]


def canonical_edge(u: Hashable, v: Hashable) -> EdgeKey:
    """A canonical (order-independent) key for the undirected edge ``{u, v}``."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


class _LabelDict(Mapping):
    """Build-once plumbing of the mappings over a CSR view's ids.

    A subclass keeps its data as arrays on integer node ids and gives
    :meth:`_build`, the label dict those arrays stand for.  The dict is built
    on the first keyed read (``[]``, ``in``, ``get``) and kept.  Two threads
    that build it at once build equal dicts and the first one stored wins,
    so there is no lock.
    """

    _dict: Optional[dict] = None   #: the label dict, once built

    def _build(self) -> dict:
        raise NotImplementedError

    def _by_label(self) -> dict:
        built = self._dict
        if built is None:
            built = vars(self).setdefault("_dict", self._build())
        return built

    def __getitem__(self, key):
        return self._by_label()[key]


class KeptSets(_LabelDict):
    """The auxiliary subsets ``N_v`` of every node, as a CSR of node ids.

    A read-only mapping from node label to the tuple ``N_v`` over three
    read-only int64 arrays on the integer ids of a CSR view:

    * ``indptr`` — row pointers, ``n + 1`` entries: the members of node
      ``v`` are ``members[indptr[v]:indptr[v + 1]]``;
    * ``members`` — member node ids, each row in tuple order (ascending
      surviving number, the stop entry last);
    * ``entries`` — each member's CSR entry id in its claimant's row of
      ``view``, or ``None`` when the sets were not built on a view.

    The label dict is built once, on first access (one ``tolist()`` and one
    slice per row); iterating the labels or reading ``len`` does not build
    it.  :func:`orientation_from_kept` reads ``entries`` directly and never
    builds the tuples.
    """

    def __init__(self, labels: Sequence[Hashable], indptr: np.ndarray,
                 members: np.ndarray, entries: Optional[np.ndarray] = None, *,
                 view: Optional[CSRAdjacency] = None) -> None:
        self.labels: Tuple[Hashable, ...] = tuple(labels)
        self.indptr = _read_only(indptr)
        self.members = _read_only(members)
        self.entries = None if entries is None else _read_only(entries)
        self.view = view   #: the CSR view ``entries`` index (identity only)

    @classmethod
    def empty(cls, labels: Sequence[Hashable], *,
              view: Optional[CSRAdjacency] = None) -> "KeptSets":
        """Every ``N_v`` empty: the kept sets of a run that did not track them."""
        zeros = np.zeros(len(labels) + 1, dtype=np.int64)
        return cls(labels, zeros, zeros[:0], zeros[:0], view=view)

    @classmethod
    def from_mapping(cls, kept: Mapping, labels: Sequence[Hashable]) -> "KeptSets":
        """``kept`` (label -> members) on the ids of ``labels``, without entries.

        Keys and members that are not in ``labels`` are dropped; each row
        keeps the mapping's member order.
        """
        n = len(labels)
        index = dict(zip(labels, range(n)))
        lengths = np.fromiter(map(len, kept.values()), dtype=np.int64,
                              count=len(kept))
        claimants = np.repeat(
            np.fromiter(map(index.get, kept, repeat(-1)), dtype=np.int64,
                        count=len(kept)), lengths)
        members = np.fromiter(
            map(index.get, chain.from_iterable(kept.values()), repeat(-1)),
            dtype=np.int64, count=int(lengths.sum()))
        known = (claimants >= 0) & (members >= 0)
        by_claimant = np.argsort(claimants[known], kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(claimants[known], minlength=n), out=indptr[1:])
        return cls(labels, indptr, members[known][by_claimant])

    def _build(self) -> Dict[Hashable, Tuple[Hashable, ...]]:
        labels = self.labels
        flat = tuple(map(labels.__getitem__, self.members.tolist()))
        bounds = self.indptr.tolist()
        return dict(zip(labels, map(flat.__getitem__,
                                    map(slice, bounds, bounds[1:]))))

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def values(self):
        return self._by_label().values()

    def items(self):
        return self._by_label().items()

    def __repr__(self) -> str:
        return f"KeptSets({self._by_label()!r})"


class _ArrayDict(_LabelDict, MutableMapping):
    """A label dict over read-only arrays, built only when read by key or
    written.

    Until the first write or delete, iteration, ``len``, ``keys()``,
    ``values()`` and ``items()`` read the arrays and build nothing.  A write
    or a delete builds the dict, applies to it and marks the mapping edited:
    from then on the dict answers every read.  :meth:`copy` shares the
    arrays; it copies the dict only when the mapping was edited, so two
    copies never share a dict.  A subclass gives the keys, the values and
    the count off its arrays.
    """

    _edited = False   #: written to: the dict, not the arrays, is the answer

    def _keys(self) -> Iterator:
        raise NotImplementedError

    def _values(self) -> Iterator:
        raise NotImplementedError

    def _size(self) -> int:
        raise NotImplementedError

    def _build(self) -> dict:
        return dict(zip(self._keys(), self._values()))

    def _edit(self) -> dict:
        built = self._by_label()
        self._edited = True
        return built

    def __setitem__(self, key, value) -> None:
        self._edit()[key] = value

    def __delitem__(self, key) -> None:
        del self._edit()[key]

    def popitem(self):
        return self._edit().popitem()   # the last item, as dict.popitem

    def __iter__(self):
        return iter(self._dict) if self._edited else self._keys()

    def __len__(self) -> int:
        return len(self._dict) if self._edited else self._size()

    def values(self):
        return _ArrayValues(self)

    def items(self):
        return _ArrayItems(self)

    def copy(self):
        """The same mapping on the same arrays, with a dict of its own."""
        twin = object.__new__(type(self))
        vars(twin).update(vars(self))
        vars(twin).pop("_dict", None)
        if self._edited:
            twin._dict = dict(self._dict)
        return twin

    __copy__ = copy

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _ArrayValues(ValuesView):
    def __iter__(self):
        mapping = self._mapping
        return (iter(mapping._dict.values()) if mapping._edited
                else mapping._values())


class _ArrayItems(ItemsView):
    def __iter__(self):
        mapping = self._mapping
        return (iter(mapping._dict.items()) if mapping._edited
                else zip(mapping._keys(), mapping._values()))


class NodeValues(_ArrayDict):
    """One float per node, as a label dict over a float64 array.

    ``array[i]`` is the value of node ``labels[i]``, so the mapping equals
    ``dict(zip(labels, array.tolist()))``, key order and float bits
    included.  The trajectory engines hold the surviving numbers ``b_v``
    this way, and :func:`orientation_from_kept` the in-weights.  ``array``
    is a read-only copy of what the constructor is given.
    """

    def __init__(self, labels: Sequence[Hashable], array) -> None:
        self.labels: Tuple[Hashable, ...] = tuple(labels)
        self.array = np.array(array, dtype=np.float64)
        self.array.flags.writeable = False

    def _keys(self) -> Iterator:
        return iter(self.labels)

    def _values(self) -> Iterator:
        return iter(self.array.tolist())

    def _size(self) -> int:
        return len(self.labels)


class EdgeOwners(_ArrayDict):
    """``Orientation.assignment`` as a label dict over three int64 id arrays.

    Edge ``i`` has the key ``(labels[first[i]], labels[second[i]])``, in
    :func:`canonical_edge` order, and is oriented towards
    ``labels[owner[i]]``.  The edges are in :meth:`Graph.edges` order.
    """

    def __init__(self, labels: Sequence[Hashable], first: np.ndarray,
                 second: np.ndarray, owner: np.ndarray) -> None:
        self.labels: Tuple[Hashable, ...] = tuple(labels)
        self.first = _read_only(first)
        self.second = _read_only(second)
        self.owner = _read_only(owner)

    def _label_array(self) -> np.ndarray:
        # A gather from an object array beats a Python call per lookup.
        return np.fromiter(self.labels, dtype=object, count=len(self.labels))

    def _keys(self) -> Iterator:
        labels = self._label_array()
        return zip(labels[self.first].tolist(), labels[self.second].tolist())

    def _values(self) -> Iterator:
        return iter(self._label_array()[self.owner].tolist())

    def _size(self) -> int:
        return len(self.owner)


def max_value_of(values: Mapping[Hashable, float]) -> float:
    """``max(values.values())``, or 0.0 when there are none.

    An unedited :class:`NodeValues` answers from its array: ``np.argmax``
    takes the first maximal value in label order, the one ``max()`` over the
    dict returns (``-0.0`` before an equal ``0.0`` included).
    """
    if isinstance(values, NodeValues) and not values._edited:
        array = values.array
        return float(array[array.argmax()]) if len(array) else 0.0
    return max(values.values()) if values else 0.0


def value_array(values: Mapping[Hashable, float],
                labels: Sequence[Hashable]) -> np.ndarray:
    """``values`` in the order of ``labels`` as float64 (a missing label
    reads 0.0): the array itself of an unedited :class:`NodeValues` on
    ``labels``, read-only."""
    if (isinstance(values, NodeValues) and not values._edited
            and (values.labels is labels or values.labels == tuple(labels))):
        return values.array
    return np.fromiter(map(values.get, labels, repeat(0.0)), dtype=np.float64,
                       count=len(labels))


def _read_only(array) -> np.ndarray:
    array = np.asarray(array, dtype=np.int64)
    array.flags.writeable = False
    return array


@dataclass
class Orientation:
    """An assignment of every (non-loop) edge to one of its endpoints.

    ``assignment[e] = v`` means edge ``e`` is oriented *towards* ``v`` (``v`` pays
    its weight in the min-max objective).  Self-loops are charged to their single
    endpoint and recorded in ``loop_weight``.

    :func:`orientation_from_kept` returns ``assignment`` as an
    :class:`EdgeOwners` and ``in_weight`` as a :class:`NodeValues`: mappings
    over arrays on the CSR view's ids whose label dicts are built on the
    first keyed read or write.  The baselines pass plain dicts.
    """

    assignment: MutableMapping[EdgeKey, Hashable]
    in_weight: MutableMapping[Hashable, float]
    conflicts: int = 0        #: edges claimed by both endpoints (resolved arbitrarily)
    violations: int = 0       #: edges claimed by neither endpoint (invariant 2 failures)
    loop_weight: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def max_in_weight(self) -> float:
        """The objective value: the maximum weighted in-degree over all nodes."""
        return max_value_of(self.in_weight)

    def owner(self, u: Hashable, v: Hashable) -> Hashable:
        """The endpoint that edge ``{u, v}`` is assigned to."""
        return self.assignment[canonical_edge(u, v)]


def orientation_from_kept(graph: Graph, kept: Mapping[Hashable, Sequence[Hashable]],
                          values: Optional[Mapping[Hashable, float]] = None, *,
                          csr: Optional[CSRAdjacency] = None) -> Orientation:
    """Build an :class:`Orientation` from the per-node auxiliary subsets.

    Parameters
    ----------
    graph:
        The input graph.
    kept:
        ``N_v`` per node, as produced by Algorithm 2 with ``Λ = R``: a
        :class:`KeptSets` or any mapping from node label to members.
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

    This is the array implementation over the CSR view.  ``kept`` is taken
    as a :class:`KeptSets` on ``csr``; anything else (a plain mapping, a
    store reload, a :class:`KeptSets` of another view) is converted once, at
    the boundary, by mapping labels to ids and binary-searching the claims
    among the view's entries.  The claims are then two gathers: ``kept.entries``
    marks the claimed entries, and an edge's entry and its reverse
    (:meth:`~repro.graph.csr.CSRAdjacency.twin`) say whether each endpoint
    claims it.  Single-claim and violation edges get their owners vectorised.

    Only the conflict rule walks edges in Python, in :meth:`Graph.edges`
    order up to the last conflict, because each resolution compares the
    running loads of its two endpoints.  Those loads are the only ones read,
    so the pass walks just the conflict edges and the edges owned by an
    endpoint of some conflict; every other owner is already fixed.  All
    owners then go to one ``np.bincount``, which sums every node's load in
    edge order, so the result equals the original per-edge loop (kept as
    the test oracle in ``tests/oracles.py``) field for field, dict key order
    included, for every weight.  The owners and the loads stay arrays, in
    an :class:`EdgeOwners` and a :class:`NodeValues`; no label dict is
    built unless a caller reads one by label.
    """
    if csr is None:
        csr = graph_to_csr(graph)
    kept = _kept_on_view(csr, kept)
    labels = csr.labels()
    n = csr.num_nodes
    # CSR entries with row < col, in row-major order, are graph.edges()'s
    # non-loop edges in its order.
    rows = csr.entry_rows()
    upper = rows < csr.indices
    us, vs, ws = rows[upper], csr.indices[upper], csr.weights[upper]

    claimed = np.zeros(len(csr.indices), dtype=bool)
    claimed[kept.entries] = True
    u_claims = claimed[upper]               # u accepts the edge (v ∈ N_u)
    v_claims = claimed[csr.twin()[upper]]   # v accepts the edge (u ∈ N_v)
    conflict = u_claims & v_claims
    neither = ~(u_claims | v_claims)
    owner = np.where(u_claims, us, vs)
    ranks = _repr_ranks(csr)
    if neither.any():
        if values is not None:
            node_values = value_array(values, labels)
            u_wins = node_values[us] >= node_values[vs]
        else:
            u_wins = ranks[us] <= ranks[vs]   # canonical_edge(u, v)[0]
        owner[neither] = np.where(u_wins, us, vs)[neither]

    conflicts = int(conflict.sum())
    if conflicts:
        # The running-in-weight rule, one pass up to the last conflict over
        # the edges whose owner is an endpoint of some conflict edge (the
        # conflict edges included: their provisional owner u is one).
        contested = np.zeros(n, dtype=bool)
        contested[us[conflict]] = True
        contested[vs[conflict]] = True
        stop = int(np.flatnonzero(conflict)[-1]) + 1
        walk = np.flatnonzero(contested[owner[:stop]])
        resolved = np.where(conflict[walk], -1, owner[walk]).tolist()
        u_list, v_list, w_list = (a[walk].tolist() for a in (us, vs, ws))
        load = [0.0] * n
        for k, o in enumerate(resolved):
            if o < 0:
                u, v = u_list[k], v_list[k]
                o = resolved[k] = u if load[u] <= load[v] else v
            load[o] += w_list[k]
        owner[walk] = resolved

    # np.bincount accumulates in input order, so every node's load is summed
    # in edges() order, as the per-edge loop does; loops are added last.
    in_weight = np.bincount(owner, weights=ws, minlength=n) + csr.loops
    swap = ranks[us] > ranks[vs]
    return Orientation(
        assignment=EdgeOwners(labels, np.where(swap, vs, us),
                              np.where(swap, us, vs), owner),
        in_weight=NodeValues(labels, in_weight),
        conflicts=conflicts, violations=int(neither.sum()),
        loop_weight={v: 0.0 + w for v, w in graph.self_loops().items()})


def _kept_on_view(csr: CSRAdjacency, kept: Mapping) -> KeptSets:
    """``kept`` as a :class:`KeptSets` whose ``entries`` index ``csr``.

    The one boundary conversion of :func:`orientation_from_kept`: a
    :class:`KeptSets` built on ``csr`` passes through; any other mapping has
    its labels mapped to ids (labels that are not nodes claim nothing) and
    every ``(claimant, member)`` pair binary-searched among the view's
    ``row * n + column`` entry keys (pairs that are not edges claim nothing).
    """
    if isinstance(kept, KeptSets) and kept.view is csr and kept.entries is not None:
        return kept
    n = csr.num_nodes
    by_id = KeptSets.from_mapping(kept, csr.labels())
    # The sentinel n * n exceeds every key, so a lookup is always in range.
    by_key = csr.sorted_entries()
    sorted_keys = np.append((csr.entry_rows() * n + csr.indices)[by_key], n * n)
    claimants = np.repeat(np.arange(n, dtype=np.int64), np.diff(by_id.indptr))
    wanted = claimants * n + by_id.members
    at = np.searchsorted(sorted_keys, wanted)
    edge = sorted_keys[at] == wanted
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(claimants[edge], minlength=n), out=indptr[1:])
    return KeptSets(by_id.labels, indptr, by_id.members[edge],
                    by_key[at[edge]], view=csr)


def _repr_ranks(csr: CSRAdjacency) -> np.ndarray:
    """Dense rank of every node label's ``repr`` (equal reprs share a rank).

    ``canonical_edge(u, v)`` puts ``u`` first iff ``ranks[u] <= ranks[v]``.
    Memoised per view.
    """
    return csr.cached("repr_ranks", _ranks_by_repr)


def _ranks_by_repr(csr: CSRAdjacency) -> np.ndarray:
    labels = csr.labels()
    if set(map(type, labels)) == {int}:
        # Distinct ints have distinct reprs, and for ints the identity order
        # ("int", repr) is the repr order.
        return identity_ranks(csr)
    reprs = list(map(repr, labels))
    rank_of = {text: i for i, text in enumerate(sorted(set(reprs)))}
    return np.fromiter(map(rank_of.__getitem__, reprs), dtype=np.int64,
                       count=len(reprs))


def kept_sets_from_trajectory(csr: CSRAdjacency, trajectory: np.ndarray, *,
                              tie_break: str = "history") -> KeptSets:
    """Recover the final-round auxiliary subsets from a surviving-number trajectory.

    The vectorised engine only tracks surviving numbers; since ``N_v`` is a pure
    function of the values the node has received over the rounds (Algorithm 3), it
    can be recomputed locally per node from the trajectory.  The result is identical
    to what the faithful protocol maintains — this equivalence is asserted by the
    test-suite.

    This is the batched NumPy implementation over every node's final-round
    Update at once: a ``np.lexsort`` over the ``n`` nodes ranks them, one
    stable argsort over the adjacency entries orders every row, a segmented
    prefix scan finds each row's stop, and one scatter writes the kept
    entries into a :class:`KeptSets` on ``csr`` (no per-node Python code;
    the label tuples are built only if read).  The per-node Python loop it
    replaced survives as the test oracle in ``tests/oracles.py``, which the
    equivalence tests compare against.  The two are bit-identical
    whenever the intermediate weight sums are exactly representable
    (integer / dyadic weights — the same caveat as
    :mod:`repro.engine.kernels`).

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
    if trajectory.ndim != 2 or trajectory.shape[1] != csr.num_nodes:
        raise AlgorithmError("trajectory shape does not match the CSR view")
    total_rounds = trajectory.shape[0] - 1
    if total_rounds < 1:
        raise AlgorithmError("the trajectory must contain at least one executed round")
    if tie_break not in ("history", "stable", "naive"):
        raise AlgorithmError(f"unknown tie_break rule {tie_break!r}; "
                             f"expected one of ('history', 'stable', 'naive')")
    n = csr.num_nodes
    counts = np.diff(csr.indptr)
    total_entries = int(csr.indptr[-1])
    if total_entries == 0:
        return KeptSets.empty(csr.labels(), view=csr)
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
        node_keys.insert(0, -identity_ranks(csr))
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
    rows = csr.entry_rows()
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
    acc = (flat_cs - before_row[rows]) + csr.loops[rows]
    next_vals = np.empty(total_entries, dtype=np.float64)
    next_vals[:-1] = sorted_vals[1:]
    next_vals[(csr.indptr[1:] - 1)[nonempty]] = -np.inf  # row ends (incl. the last)
    positions = np.arange(total_entries, dtype=np.int64)
    stop_candidates = np.where(acc > next_vals, positions, total_entries)
    # Every non-empty row stops (its last position compares against -inf), so
    # the segmented minimum is always a valid flat index.
    first_stop = np.minimum.reduceat(stop_candidates, starts_ne)
    stop_index = np.full(n, -1, dtype=np.int64)
    stop_index[nonempty] = first_stop

    # Scatter N_v into a CSR of ids, each row in the reference order: the
    # entries strictly before the stop, listed by ascending surviving number,
    # then the stop entry last when its prefix sum fits under its own value.
    # A sorted position pos < stop goes to slot stop - 1 - pos of its row,
    # the stop to slot stop - start.
    entry_stop = stop_index[rows]
    kept_positions = np.flatnonzero(
        (positions < entry_stop)
        | ((positions == entry_stop) & (acc <= sorted_vals)))
    kept_rows = rows[kept_positions]
    kept_stop = entry_stop[kept_positions]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_rows, minlength=n), out=indptr[1:])
    slots = indptr[kept_rows] + np.where(kept_positions < kept_stop,
                                         kept_stop - 1 - kept_positions,
                                         kept_stop - row_starts[kept_rows])
    entries = np.empty(len(kept_positions), dtype=np.int64)
    entries[slots] = order[kept_positions]
    return KeptSets(csr.labels(), indptr, nbr[entries], entries, view=csr)


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
