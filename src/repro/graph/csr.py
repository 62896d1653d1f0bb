"""Compressed-sparse-row view of a :class:`~repro.graph.graph.Graph`.

The faithful per-node simulator (:mod:`repro.distsim`) exchanges Python objects and
is the reference implementation of the paper's protocols.  For larger graphs the
library also ships *vectorised engines* that execute exactly the same synchronous
rounds with NumPy array operations; those engines consume this CSR view.

The CSR view stores, for a graph relabelled to ``0..n-1``:

* ``indptr`` / ``indices`` / ``weights`` — the usual CSR arrays of the (loop-free)
  adjacency, symmetric (each non-loop edge appears in both rows);
* ``loops``   — per-node total self-loop weight;
* ``degrees`` — per-node weighted degree (loops counted once), precomputed because
  every protocol starts from it.

Arrays that are pure functions of a view — the entry -> row map
:meth:`CSRAdjacency.entry_rows`, the entry order
:meth:`CSRAdjacency.sorted_entries`, the reverse-entry permutation
:meth:`CSRAdjacency.twin`, the identity ranks of
:func:`repro.core.bfs.identity_ranks`, the label block of
:func:`csr_fingerprint` — are computed at most once per view through
:meth:`CSRAdjacency.cached` and handed out read-only; the fingerprint itself
is memoised on the view too.

A graph derived from another by a :class:`~repro.graph.delta.GraphDelta`
differs only in the rows of the nodes the delta touched, so
``graph_to_csr(child, parent=view, touched=labels)`` splices the child's
view: untouched rows are copied from the parent's arrays and only the touched
and new rows are read from the child's adjacency dicts.  A spliced view
whose delta appends no node has its parent's labels, so it shares the
parent's labels tuple and takes the parent's label-only memos
(:data:`LABEL_MEMOS`) as they are.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


#: :meth:`CSRAdjacency.cached` keys (and the :meth:`CSRAdjacency.label_index`
#: memo) whose values depend on ``node_order`` alone: the label -> id dict,
#: the fingerprint's label block, :func:`repro.core.bfs.identity_ranks` and
#: the repr ranks of :mod:`repro.core.orientation`.  The memoised fingerprint
#: (``"fingerprint"``) hashes the arrays too, so it is not one of them: a
#: spliced view never inherits its parent's.
LABEL_MEMOS = ("label_index", "label_block", "identity_ranks", "repr_ranks")


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable CSR arrays for a weighted undirected graph on ``0..n-1``."""

    indptr: np.ndarray      #: int64, shape (n + 1,)
    indices: np.ndarray     #: int64, shape (2m',) where m' = number of non-loop edges
    weights: np.ndarray     #: float64, aligned with ``indices``
    loops: np.ndarray       #: float64, shape (n,), self-loop weight per node
    node_order: Tuple[Hashable, ...]  #: original node label for each integer id
    _memo: Dict[str, object] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    # --------------------------------------------------------------- properties
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def num_directed_entries(self) -> int:
        """Number of stored (directed) adjacency entries, i.e. ``2 * #non-loop edges``."""
        return len(self.indices)

    def degrees(self) -> np.ndarray:
        """Weighted degrees (self-loops counted once) as a float64 array."""
        deg = np.zeros(self.num_nodes, dtype=np.float64)
        np.add.at(deg, self.entry_rows(), self.weights)
        return deg + self.loops

    def neighbors(self, v: int) -> np.ndarray:
        """Integer ids of the neighbours of ``v`` (excluding ``v``)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def label_of(self, v: int) -> Hashable:
        """Original node label of integer id ``v``."""
        return self.node_order[v]

    def labels(self) -> Tuple[Hashable, ...]:
        """Original node labels indexed by integer id."""
        return self.node_order

    def cached(self, name: str,
               compute: Callable[["CSRAdjacency"], np.ndarray]) -> np.ndarray:
        """``compute(self)``, computed at most once per view and read-only.

        For arrays that are pure functions of the (immutable) view.  Two
        threads that miss at once both compute and store equal arrays, so no
        lock is needed.
        """
        array = self._memo.get(name)
        if array is None:
            array = compute(self)
            array.flags.writeable = False
            self._memo[name] = array
        return array

    def entry_rows(self) -> np.ndarray:
        """The row of every adjacency entry (int64, aligned with ``indices``);
        ``entry_rows()[indptr[lo]:indptr[hi]]`` covers the rows ``lo..hi-1``.
        Memoised per view."""
        return self.cached("entry_rows", _rows_of_entries)

    def sorted_entries(self) -> np.ndarray:
        """Entry ids in ``(row, column)`` order: the permutation that sorts
        the entry keys ``row * n + column``.  Memoised per view."""
        return self.cached("sorted_entries", _entries_by_key)

    def twin(self) -> np.ndarray:
        """The reverse-entry permutation: ``twin[e]`` is the entry of the same
        edge in the other endpoint's row.

        Entry ``e`` of row ``r`` with column ``c`` has its twin in row ``c``
        with column ``r``, so ``twin[twin[e]] == e``.  Memoised per view.
        """
        return self.cached("twin", _reverse_entries)

    def label_index(self) -> Optional[Dict[Hashable, int]]:
        """The label -> id dict, or None when every label equals its id (the
        common ``0..n-1`` graph).  Memoised per view; treat it as read-only."""
        if "label_index" not in self._memo:
            nodes = self.node_order
            self._memo["label_index"] = (
                None if nodes == tuple(range(len(nodes)))
                else {v: i for i, v in enumerate(nodes)})
        return self._memo["label_index"]

    def to_graph(self) -> Graph:
        """Rebuild a :class:`Graph` (with original labels) from the CSR arrays."""
        g = Graph(nodes=self.node_order)
        n = self.num_nodes
        for u in range(n):
            lu = self.node_order[u]
            start, stop = self.indptr[u], self.indptr[u + 1]
            for idx in range(start, stop):
                v = int(self.indices[idx])
                if u < v:
                    g.add_edge(lu, self.node_order[v], float(self.weights[idx]))
            if self.loops[u] > 0.0:
                g.add_edge(lu, lu, float(self.loops[u]))
        return g


def _rows_of_entries(csr: CSRAdjacency) -> np.ndarray:
    """:meth:`CSRAdjacency.entry_rows`: each row id repeated by its length."""
    return np.repeat(np.arange(csr.num_nodes, dtype=np.int64),
                     np.diff(csr.indptr))


def _entries_by_key(csr: CSRAdjacency) -> np.ndarray:
    """:meth:`CSRAdjacency.sorted_entries`: one argsort over the entry keys."""
    return np.argsort(csr.entry_rows() * csr.num_nodes + csr.indices)


def _reverse_entries(csr: CSRAdjacency) -> np.ndarray:
    """:meth:`CSRAdjacency.twin`: the entries sorted by ``(column, row)``
    against :meth:`CSRAdjacency.sorted_entries`.

    Sorted by ``(row, column)`` and by ``(column, row)``, the entries line up
    position by position with their reverses (the adjacency is symmetric and
    holds no parallel entries, so every key is distinct).
    """
    by_column = np.argsort(csr.indices * csr.num_nodes + csr.entry_rows())
    twin = np.empty_like(by_column)
    twin[by_column] = csr.sorted_entries()
    return twin


def graph_to_csr(graph: Graph, *, parent: Optional[CSRAdjacency] = None,
                 touched: Iterable[Hashable] = ()) -> CSRAdjacency:
    """Convert ``graph`` to a :class:`CSRAdjacency`, relabelling nodes to ``0..n-1``.

    The integer id of a node is its insertion-order index, so the conversion is
    deterministic; the original labels are retained in ``node_order``.  Row
    ``v`` lists the neighbours of ``v`` in the order of its adjacency dict.

    The conversion is one bulk extraction: the row lengths, neighbour ids and
    weights are read straight out of the adjacency dicts by ``np.fromiter``
    over chained iterators, so no Python code runs per node or per entry.
    When every label equals its position (the common ``0..n-1`` graph) the
    neighbour labels are the ids themselves; any other labelling goes through
    a label -> id dict.

    With ``parent`` — the view of a graph that ``graph`` was derived from —
    and ``touched`` — every label whose row or self-loop may differ between
    the two (for :func:`~repro.graph.delta.apply_delta`, the
    :func:`~repro.graph.delta.changed_labels` of the delta) — the view is
    spliced instead: untouched rows are copied from the parent's arrays in
    contiguous blocks, and only the touched rows and the rows of nodes
    appended after the parent's are read from ``graph``'s adjacency dicts.
    The arrays equal a full build's byte for byte, because every row is
    either read from the same dict a full build reads or unchanged since the
    parent read it.  If ``graph``'s node order does not start with the
    parent's, the view is built in full.  A touched set that misses a row
    whose length changed fails the entry-count check with
    :class:`~repro.errors.GraphError`; a touched label that is not a node of
    ``graph`` raises it too.  The spliced view inherits the parent's
    memoised label block (:func:`csr_fingerprint`) with the appended labels
    encoded after it; when no label is appended it shares the parent's
    ``node_order`` tuple and inherits every memo named in
    :data:`LABEL_MEMOS` as it is.
    """
    nodes: Tuple[Hashable, ...] = tuple(graph.nodes())
    if parent is not None and nodes[:parent.num_nodes] == parent.node_order:
        return _splice(graph, nodes, parent, touched)
    n = len(nodes)
    index = (None if nodes == tuple(range(n))
             else {v: i for i, v in enumerate(nodes)})
    rows = list(map(graph.neighbor_weights, nodes))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=indptr[1:])
    indices, weights = _read_rows(rows, index, int(indptr[-1]))

    loops = np.zeros(n, dtype=np.float64)
    self_loops = graph.self_loops()
    if self_loops:
        loop_nodes: Iterable[Hashable] = self_loops.keys()
        if index is not None:
            loop_nodes = map(index.__getitem__, loop_nodes)
        loop_ids = np.fromiter(loop_nodes, dtype=np.int64, count=len(self_loops))
        loop_weights = np.fromiter(self_loops.values(), dtype=np.float64,
                                   count=len(self_loops))
        # Zero-weight loops (-0.0 included) leave their entry at +0.0.
        nonzero = loop_weights != 0.0
        loops[loop_ids[nonzero]] = loop_weights[nonzero]

    return CSRAdjacency(indptr=indptr, indices=indices, weights=weights,
                        loops=loops, node_order=nodes)


def _read_rows(rows, index: Optional[Dict[Hashable, int]],
               total: int) -> Tuple[np.ndarray, np.ndarray]:
    """Neighbour ids and weights of the adjacency dicts ``rows``, in order."""
    neighbours: Iterable[Hashable] = chain.from_iterable(rows)
    if index is not None:
        neighbours = map(index.__getitem__, neighbours)
    return (np.fromiter(neighbours, dtype=np.int64, count=total),
            np.fromiter(chain.from_iterable(map(dict.values, rows)),
                        dtype=np.float64, count=total))


def _splice(graph: Graph, nodes: Tuple[Hashable, ...], parent: CSRAdjacency,
            touched: Iterable[Hashable]) -> CSRAdjacency:
    """:func:`graph_to_csr` of ``graph`` from ``parent``'s arrays (see there);
    ``nodes`` is ``graph``'s node order and starts with the parent's."""
    pn, n = parent.num_nodes, len(nodes)
    index = parent.label_index()
    added = nodes[pn:]
    if index is None and added != tuple(range(pn, n)):
        index = {v: i for i, v in enumerate(nodes)}
    elif index is not None and added:
        index = dict(index)
        index.update(zip(added, range(pn, n)))

    touched = list(touched)
    unknown = [v for v in touched if not graph.has_node(v)]
    if unknown:
        raise GraphError(f"touched labels {unknown[:5]!r} are not nodes of "
                         f"the graph")
    ids = np.fromiter(
        touched if index is None else map(index.__getitem__, touched),
        dtype=np.int64, count=len(touched))
    old = np.unique(ids[ids < pn])
    # Rows read from the graph: the touched parent rows, then the new nodes.
    reread = np.concatenate((old, np.arange(pn, n, dtype=np.int64)))
    labels = [nodes[i] for i in reread.tolist()]
    rows = list(map(graph.neighbor_weights, labels))
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    counts = np.empty(n, dtype=np.int64)
    counts[:pn] = np.diff(parent.indptr)
    counts[reread] = lengths
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    expected = 2 * (graph.num_edges - len(graph.self_loops()))
    if indptr[-1] != expected:
        raise GraphError(f"spliced view holds {int(indptr[-1])} adjacency "
                         f"entries, the graph {expected}: the touched labels "
                         f"miss a changed row")
    fresh_indices, fresh_weights = _read_rows(rows, index, int(lengths.sum()))

    # Untouched parent blocks alternate with the re-read rows; the block
    # after the last touched parent row is followed by every new row.
    block_starts = parent.indptr[np.concatenate(([0], old + 1))].tolist()
    block_stops = parent.indptr[np.concatenate((old, [pn]))].tolist()
    cuts = np.cumsum(lengths[:len(old)]).tolist() + [len(fresh_indices)]
    id_pieces, weight_pieces = [], []
    fresh = 0
    for start, stop, cut in zip(block_starts, block_stops, cuts):
        id_pieces += (parent.indices[start:stop], fresh_indices[fresh:cut])
        weight_pieces += (parent.weights[start:stop], fresh_weights[fresh:cut])
        fresh = cut
    indices = np.concatenate(id_pieces)
    weights = np.concatenate(weight_pieces)

    loops = np.zeros(n, dtype=np.float64)
    loops[:pn] = parent.loops
    self_loops = graph.self_loops()
    loop_weights = np.fromiter(map(self_loops.get, labels, repeat(0.0)),
                               dtype=np.float64, count=len(labels))
    # A zero-weight loop (-0.0 included) stores +0.0, as in a full build.
    loops[reread] = np.where(loop_weights != 0.0, loop_weights, 0.0)

    csr = CSRAdjacency(indptr=indptr, indices=indices, weights=weights,
                       loops=loops,
                       node_order=nodes if added else parent.node_order)
    if not added:
        csr._memo.update((name, parent._memo[name]) for name in LABEL_MEMOS
                         if name in parent._memo)
        return csr
    # Appended labels extend the index and the label block; they can shift
    # the ranks of existing labels, so those are left to be recomputed.
    csr._memo["label_index"] = index
    block = parent._memo.get("label_block")
    if block is not None:
        block = np.concatenate((block, _encode_labels(added)))
        block.flags.writeable = False
        csr._memo["label_block"] = block
    return csr


#: Version prefix mixed into every fingerprint so a change to the hashed
#: representation (array dtypes, label encoding) can never collide with
#: fingerprints minted by an older layout.
_FINGERPRINT_VERSION = b"repro-csr-fingerprint/1\x00"


def csr_fingerprint(csr: CSRAdjacency) -> str:
    """A stable content hash of the graph behind a CSR view (hex, 64 chars).

    Two graphs fingerprint identically exactly when their CSR views agree on
    every array (``indptr`` / ``indices`` / ``weights`` / ``loops``) *and* on
    the node labels in id order — i.e. the same nodes, inserted in the same
    order, with the same edges and weights.  This is the content address of
    the persistent artifact store (:mod:`repro.store`): artifacts saved under
    a fingerprint may be replayed for any graph that hashes to it.

    Labels are hashed through ``type-qualified repr``, so the int node ``1``
    and the string node ``"1"`` fingerprint differently.  Labels whose repr is
    not process-stable (e.g. frozensets of strings under hash randomisation,
    or objects with default reprs) make the fingerprint unstable across
    interpreter runs — the store then treats the graph as new, which costs a
    cold run but never serves wrong artifacts.

    The hex digest is memoised on the view, so every caller holding one view
    hashes it once.  The encoded labels (the label block) are memoised
    through :meth:`CSRAdjacency.cached`; a view spliced from a parent by
    :func:`graph_to_csr` starts with its parent's block, so a chain of delta
    versions encodes only the labels each delta appends.
    """
    fingerprint = csr._memo.get("fingerprint")
    if fingerprint is None:
        digest = hashlib.sha256()
        digest.update(_FINGERPRINT_VERSION)
        for array, dtype in ((csr.indptr, np.int64), (csr.indices, np.int64),
                             (csr.weights, np.float64), (csr.loops, np.float64)):
            digest.update(np.ascontiguousarray(array, dtype=dtype))
        digest.update(csr.cached("label_block", _label_block))
        fingerprint = csr._memo["fingerprint"] = digest.hexdigest()
    return fingerprint


def _encode_labels(labels: Iterable[Hashable]) -> np.ndarray:
    """The fingerprint's encoding of ``labels`` as a uint8 array."""
    return np.frombuffer("".join(f"{type(label).__name__}:{label!r}\x1f"
                                 for label in labels).encode("utf-8"),
                         dtype=np.uint8)


def _label_block(csr: CSRAdjacency) -> np.ndarray:
    """:func:`csr_fingerprint`'s label block: every label in id order."""
    return _encode_labels(csr.node_order)


def graph_fingerprint(graph: Graph) -> str:
    """:func:`csr_fingerprint` of ``graph``'s (freshly built) CSR view.

    Callers that already hold a CSR view — a :class:`~repro.session.Session`
    in particular — should fingerprint that view directly instead of paying
    for a second conversion.
    """
    return csr_fingerprint(graph_to_csr(graph))


def csr_subset_density(csr: CSRAdjacency, mask: np.ndarray) -> float:
    """Density of the node subset selected by the boolean ``mask``.

    Vectorised counterpart of :meth:`Graph.subset_density`: the one-group case
    of :func:`csr_subset_densities`.
    """
    if mask.dtype != np.bool_ or mask.shape != (csr.num_nodes,):
        raise GraphError("mask must be a boolean array of shape (num_nodes,)")
    if not mask.any():
        raise GraphError("density of the empty subset is undefined")
    return float(csr_subset_densities(csr, np.where(mask, 0, -1), 1)[0])


def csr_subset_densities(csr: CSRAdjacency, group: np.ndarray,
                         num_groups: int) -> np.ndarray:
    """Densities of disjoint node subsets in one pass over the CSR arrays.

    ``group[v]`` is the subset id (``0..num_groups-1``) of node ``v``, or
    ``-1`` for a node in no subset.  Returns a float64 array of
    ``w(E(S)) / |S|`` per subset id, ``nan`` for an empty id.  Each subset's
    internal weight is summed with ``np.bincount`` as
    ``(Σ internal adjacency entries) / 2 + Σ loops``, which is
    :meth:`Graph.subset_weight`'s formula, so integer and dyadic weights give
    bit-identical densities; other float weights may differ in the last ulp
    (the summation order differs).
    """
    group = np.asarray(group, dtype=np.int64)
    if group.shape != (csr.num_nodes,):
        raise GraphError("group must be an int array of shape (num_nodes,)")
    rows = group[csr.entry_rows()]
    internal = (rows >= 0) & (rows == group[csr.indices])
    edge_weight = np.bincount(rows[internal], weights=csr.weights[internal],
                              minlength=num_groups)
    members = group >= 0
    loop_weight = np.bincount(group[members], weights=csr.loops[members],
                              minlength=num_groups)
    size = np.bincount(group[members], minlength=num_groups)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (edge_weight / 2.0 + loop_weight) / size
