"""Weighted undirected graph with self-loops.

This is the central data structure of the reproduction.  It mirrors the paper's
Section II terminology:

* edges are 2-subsets ``{u, v}`` of the node set, carrying a finite non-negative weight;
* **self-loops** (singleton edges ``{v}``) are first-class citizens because quotient
  graphs (Definition II.2) turn edges leaving a removed block into self-loops;
* the *weighted degree* of ``v`` is the sum of the weights of the edges containing
  ``v`` — a self-loop contributes its weight **once**;
* ``N(v)`` — the neighbours of ``v`` — excludes ``v`` itself;
* the *density* of ``S ⊆ V`` is ``w(E(S)) / |S|`` where ``E(S)`` is the set of edges
  fully contained in ``S`` (self-loops at nodes of ``S`` included).

The adjacency is stored as a dict-of-dicts which keeps node insertion order, making
iteration deterministic.  For the vectorised engines the graph can be converted to a
:class:`repro.graph.csr.CSRAdjacency`.

:meth:`Graph.copy` is copy-on-write: the copy gets its own node -> row dict
but shares every row dict with its source, and whichever of the two graphs
writes a shared row first copies that one row.  A chain of delta versions
(:func:`repro.graph.delta.apply_delta`) therefore holds each untouched row
once, and every version stays a complete, independent graph.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import (Dict, Hashable, Iterable, Iterator, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.errors import GraphError

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, float]


class Graph:
    """An undirected, edge-weighted multigraph-free graph with self-loops.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` or ``(u, v, weight)`` tuples.  Unweighted
        pairs get weight ``1.0``.  Repeated edges accumulate their weights (this is
        the semantics required by quotient-graph construction).
    nodes:
        Optional iterable of nodes to add up-front (isolated nodes are allowed and
        meaningful: their coreness and maximal density are 0).
    """

    # __weakref__ lets long-lived registries (the serve layer's per-graph
    # lock map) hold graphs weakly instead of pinning them forever.
    __slots__ = ("_adj", "_loops", "_num_edges", "_total_weight", "_owned",
                 "__weakref__")

    def __init__(self, edges: Optional[Iterable[Sequence]] = None,
                 nodes: Optional[Iterable[Node]] = None) -> None:
        # _adj[v] maps neighbour u != v to the edge weight w({u, v}).
        self._adj: Dict[Node, Dict[Node, float]] = {}
        # _loops[v] is the total self-loop weight at v (only present if > 0 was added).
        self._loops: Dict[Node, float] = {}
        self._num_edges: int = 0
        self._total_weight: float = 0.0
        # None while every row of _adj belongs to this graph alone.  After a
        # copy() the rows are shared with the other graph, and _owned holds
        # the labels whose rows this graph has since copied for itself.
        self._owned: Optional[Set[Node]] = None
        if nodes is not None:
            for v in nodes:
                self.add_node(v)
        if edges is not None:
            for item in edges:
                if len(item) == 2:
                    u, v = item
                    self.add_edge(u, v, 1.0)
                elif len(item) == 3:
                    u, v, w = item
                    self.add_edge(u, v, float(w))
                else:
                    raise GraphError(f"edge tuples must have 2 or 3 entries, got {item!r}")

    # ------------------------------------------------------------------ nodes
    def add_node(self, v: Node) -> None:
        """Add an isolated node (no-op if it already exists)."""
        if v not in self._adj:
            self._adj[v] = {}
            if self._owned is not None:
                self._owned.add(v)

    def has_node(self, v: Node) -> bool:
        """Whether ``v`` is a node of the graph."""
        return v in self._adj

    def remove_node(self, v: Node) -> None:
        """Remove ``v`` together with all incident edges (including its self-loop)."""
        if v not in self._adj:
            raise GraphError(f"cannot remove unknown node {v!r}")
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        if v in self._loops:
            self._total_weight -= self._loops.pop(v)
            self._num_edges -= 1
        del self._adj[v]

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n = |V|``."""
        return len(self._adj)

    # ------------------------------------------------------------------ edges
    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or accumulate onto) the undirected edge ``{u, v}``.

        Self-loops are allowed (``u == v``).  Adding an edge twice accumulates the
        weights, matching the quotient-graph semantics of Definition II.2.
        """
        w = float(weight)
        if not 0.0 <= w < math.inf:   # also false for NaN
            raise GraphError(f"edge weights must be finite and non-negative, "
                             f"got {w!r} for ({u!r}, {v!r})")
        self.add_node(u)
        self.add_node(v)
        if u == v:
            if v in self._loops:
                self._loops[v] += w
            else:
                self._loops[v] = w
                self._num_edges += 1
            self._total_weight += w
            return
        if self._owned is not None:
            self._claim(u)
            self._claim(v)
        adj = self._adj
        row = adj[u]
        if v in row:
            row[v] += w
            adj[v][u] += w
        else:
            row[v] = w
            adj[v][u] = w
            self._num_edges += 1
        self._total_weight += w

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}`` entirely (whatever its accumulated weight)."""
        if u == v:
            if u not in self._loops:
                raise GraphError(f"no self-loop at {u!r}")
            self._total_weight -= self._loops.pop(u)
            self._num_edges -= 1
            return
        if v not in self._adj.get(u, ()):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        if self._owned is not None:
            self._claim(u)
            self._claim(v)
        w = self._adj[u].pop(v)
        self._adj[v].pop(u)
        self._total_weight -= w
        self._num_edges -= 1

    def _claim(self, v: Node) -> None:
        """Copy ``v``'s row for this graph before its first write since the
        last :meth:`copy` (only called while ``_owned`` is a set)."""
        if v not in self._owned:
            self._adj[v] = dict(self._adj[v])
            self._owned.add(v)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the edge ``{u, v}`` (or self-loop when ``u == v``) exists."""
        if u == v:
            return u in self._loops
        return u in self._adj and v in self._adj[u]

    def edge_weight(self, u: Node, v: Node) -> float:
        """Weight of the edge ``{u, v}``; raises :class:`GraphError` if absent."""
        if u == v:
            if u not in self._loops:
                raise GraphError(f"no self-loop at {u!r}")
            return self._loops[u]
        try:
            return self._adj[u][v]
        except KeyError as exc:
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph") from exc

    def edges(self, data: bool = True) -> Iterator:
        """Iterate over edges once each.

        Non-loop edges are yielded as ``(u, v, w)`` with ``u`` appearing before ``v``
        in insertion order; self-loops as ``(v, v, w)``.  With ``data=False`` the
        weight is omitted.
        """
        seen_index = {v: i for i, v in enumerate(self._adj)}
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if seen_index[u] < seen_index[v]:
                    yield (u, v, w) if data else (u, v)
        for v, w in self._loops.items():
            yield (v, v, w) if data else (v, v)

    @property
    def num_edges(self) -> int:
        """Number of edges (self-loops counted once each)."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Total edge weight ``w(E)`` (self-loops counted once each)."""
        return self._total_weight

    # ------------------------------------------------------------- neighbours
    def neighbors(self, v: Node) -> Iterator[Node]:
        """Iterate over ``N(v)`` — the neighbours of ``v`` excluding ``v`` itself."""
        try:
            return iter(self._adj[v])
        except KeyError as exc:
            raise GraphError(f"unknown node {v!r}") from exc

    def neighbor_weights(self, v: Node) -> Mapping[Node, float]:
        """Read-only view of ``{u: w({u, v}) for u in N(v)}``.

        This is the live row, not a snapshot.  A row that :meth:`copy` left
        shared with another graph is replaced by a private copy on its first
        write, so a mapping taken before that write no longer reflects it:
        read the row again after mutating the graph.
        """
        try:
            return self._adj[v]
        except KeyError as exc:
            raise GraphError(f"unknown node {v!r}") from exc

    def degree(self, v: Node) -> float:
        """Weighted degree ``deg(v)``: edge weights incident to ``v``, loops counted once."""
        try:
            nbrs = self._adj[v]
        except KeyError as exc:
            raise GraphError(f"unknown node {v!r}") from exc
        return sum(nbrs.values()) + self._loops.get(v, 0.0)

    def unweighted_degree(self, v: Node) -> int:
        """Number of incident edges (self-loop counted once)."""
        try:
            nbrs = self._adj[v]
        except KeyError as exc:
            raise GraphError(f"unknown node {v!r}") from exc
        return len(nbrs) + (1 if v in self._loops else 0)

    def self_loop_weight(self, v: Node) -> float:
        """Total self-loop weight at ``v`` (0.0 if there is none)."""
        if v not in self._adj:
            raise GraphError(f"unknown node {v!r}")
        return self._loops.get(v, 0.0)

    def self_loops(self) -> Mapping[Node, float]:
        """Read-only view of ``{v: self-loop weight}`` for the nodes that carry a
        self-loop, in the order the loops were first added."""
        return MappingProxyType(self._loops)

    def degrees(self) -> Dict[Node, float]:
        """Weighted degrees of all nodes as a dict."""
        return {v: self.degree(v) for v in self._adj}

    # ------------------------------------------------------------------ density
    def density(self) -> float:
        """Average-degree density ``ρ(V) = w(E) / |V|`` of the whole graph."""
        if self.num_nodes == 0:
            raise GraphError("density of the empty graph is undefined")
        return self._total_weight / self.num_nodes

    def subset_weight(self, subset: Iterable[Node]) -> float:
        """Total weight ``w(E(S))`` of edges fully contained in ``subset``."""
        nodes = set(subset)
        for v in nodes:
            if v not in self._adj:
                raise GraphError(f"unknown node {v!r} in subset")
        total = 0.0
        for v in nodes:
            for u, w in self._adj[v].items():
                if u in nodes:
                    total += w
        total /= 2.0  # each non-loop internal edge counted from both endpoints
        for v in nodes:
            total += self._loops.get(v, 0.0)
        return total

    def subset_density(self, subset: Iterable[Node]) -> float:
        """Density ``ρ(S) = w(E(S)) / |S|`` of a non-empty subset ``S``."""
        nodes = set(subset)
        if not nodes:
            raise GraphError("density of the empty subset is undefined")
        return self.subset_weight(nodes) / len(nodes)

    # ----------------------------------------------------------------- copies
    def copy(self) -> "Graph":
        """An independent copy of the graph that shares its rows copy-on-write.

        The copy gets its own node -> row dict and self-loop dict, but every
        row dict (a node's neighbour -> weight map) is shared with this
        graph.  A write through :meth:`add_edge`, :meth:`remove_edge` or
        :meth:`remove_node` first copies the one or two rows it touches, in
        whichever of the two graphs it writes, so each behaves as a deep copy
        and a copy costs O(n) plus the rows later written, not the whole
        adjacency.  Rows keep their neighbour order, so the copy has the
        original's CSR view and content fingerprint (re-adding edges through
        :meth:`edges` would reorder rows whose neighbours were not inserted
        in node order).  As for any graph, do not mutate it while another
        thread copies or reads it.
        """
        g = Graph()
        g._adj = dict(self._adj)
        g._loops = dict(self._loops)
        g._num_edges = self._num_edges
        g._total_weight = self._total_weight
        g._owned = set()
        self._owned = set()     # this graph's rows are now shared too
        return g

    def is_unit_weighted(self, tol: float = 1e-12) -> bool:
        """Whether every edge (including self-loops) has weight 1 up to ``tol``."""
        return all(abs(w - 1.0) <= tol for _, _, w in self.edges())

    def relabeled_to_integers(self) -> Tuple["Graph", Dict[Node, int]]:
        """Return an isomorphic graph on ``{0, ..., n-1}`` plus the relabelling map."""
        mapping = {v: i for i, v in enumerate(self._adj)}
        g = Graph(nodes=range(self.num_nodes))
        for u, v, w in self.edges():
            g.add_edge(mapping[u], mapping[v], w)
        return g, mapping

    # ------------------------------------------------------------------ dunder
    def __contains__(self, v: Node) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Graph(n={self.num_nodes}, m={self.num_edges}, "
                f"w(E)={self._total_weight:.4g})")

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set, same edges, same weights."""
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        if self._num_edges != other._num_edges:
            return False
        for u, v, w in self.edges():
            if not other.has_edge(u, v):
                return False
            if abs(other.edge_weight(u, v) - w) > 1e-12:
                return False
        return True

    def __hash__(self) -> int:  # Graphs are mutable: identity hash only.
        return id(self)

    def __getstate__(self):
        # The pickle holds rows of its own, so an unpickled graph shares no
        # row with another graph, even one unpickled from the same stream.
        return ({v: dict(nbrs) for v, nbrs in self._adj.items()}, dict(self._loops),
                self._num_edges, self._total_weight)

    def __setstate__(self, state) -> None:
        self._adj, self._loops, self._num_edges, self._total_weight = state
        self._owned = None
