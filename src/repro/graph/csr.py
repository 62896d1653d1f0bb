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
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Hashable, Iterable, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable CSR arrays for a weighted undirected graph on ``0..n-1``."""

    indptr: np.ndarray      #: int64, shape (n + 1,)
    indices: np.ndarray     #: int64, shape (2m',) where m' = number of non-loop edges
    weights: np.ndarray     #: float64, aligned with ``indices``
    loops: np.ndarray       #: float64, shape (n,), self-loop weight per node
    node_order: Tuple[Hashable, ...]  #: original node label for each integer id

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
        n = self.num_nodes
        deg = np.zeros(n, dtype=np.float64)
        np.add.at(deg, np.repeat(np.arange(n), np.diff(self.indptr)), self.weights)
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


def graph_to_csr(graph: Graph) -> CSRAdjacency:
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
    """
    nodes: Tuple[Hashable, ...] = tuple(graph.nodes())
    n = len(nodes)
    rows = list(map(graph.neighbor_weights, nodes))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=indptr[1:])
    total = int(indptr[-1])

    neighbours: Iterable[Hashable] = chain.from_iterable(rows)
    self_loops = graph.self_loops()
    loop_nodes: Iterable[Hashable] = self_loops.keys()
    if nodes != tuple(range(n)):
        index: Dict[Hashable, int] = {v: i for i, v in enumerate(nodes)}
        neighbours = map(index.__getitem__, neighbours)
        loop_nodes = map(index.__getitem__, loop_nodes)
    indices = np.fromiter(neighbours, dtype=np.int64, count=total)
    weights = np.fromiter(chain.from_iterable(map(dict.values, rows)),
                          dtype=np.float64, count=total)

    loops = np.zeros(n, dtype=np.float64)
    if self_loops:
        loop_ids = np.fromiter(loop_nodes, dtype=np.int64, count=len(self_loops))
        loop_weights = np.fromiter(self_loops.values(), dtype=np.float64,
                                   count=len(self_loops))
        # Zero-weight loops (-0.0 included) leave their entry at +0.0.
        nonzero = loop_weights != 0.0
        loops[loop_ids[nonzero]] = loop_weights[nonzero]

    return CSRAdjacency(indptr=indptr, indices=indices, weights=weights,
                        loops=loops, node_order=nodes)


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
    """
    digest = hashlib.sha256()
    digest.update(_FINGERPRINT_VERSION)
    for array, dtype in ((csr.indptr, np.int64), (csr.indices, np.int64),
                         (csr.weights, np.float64), (csr.loops, np.float64)):
        digest.update(np.ascontiguousarray(array, dtype=dtype))
    digest.update("".join(f"{type(label).__name__}:{label!r}\x1f"
                          for label in csr.node_order).encode("utf-8"))
    return digest.hexdigest()


def graph_fingerprint(graph: Graph) -> str:
    """:func:`csr_fingerprint` of ``graph``'s (freshly built) CSR view.

    Callers that already hold a CSR view — a :class:`~repro.session.Session`
    in particular — should fingerprint that view directly instead of paying
    for a second conversion.
    """
    return csr_fingerprint(graph_to_csr(graph))


def csr_subset_density(csr: CSRAdjacency, mask: np.ndarray) -> float:
    """Density of the node subset selected by the boolean ``mask``.

    Vectorised counterpart of :meth:`Graph.subset_density`, used by the vectorised
    engines and the analysis code.
    """
    if mask.dtype != np.bool_ or mask.shape != (csr.num_nodes,):
        raise GraphError("mask must be a boolean array of shape (num_nodes,)")
    size = int(mask.sum())
    if size == 0:
        raise GraphError("density of the empty subset is undefined")
    rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
    internal = mask[rows] & mask[csr.indices]
    weight = float(csr.weights[internal].sum()) / 2.0 + float(csr.loops[mask].sum())
    return weight / size
