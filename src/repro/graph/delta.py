"""Graph deltas: versioned mutations with chained content fingerprints.

Production graphs mutate constantly, and the elimination process is *local* —
one round only moves a node's value through its neighbourhood — so a small
edit should never force a fully cold re-solve.  This module is the graph-layer
half of that story:

* :class:`GraphDelta` — an immutable, canonicalised batch of mutations
  (edges added / removed / re-weighted, nodes added);
* :func:`apply_delta` — the child graph of a parent and a delta, with a
  deterministic node order (parent nodes keep their insertion order, new
  nodes are appended in the delta's canonical order);
* :func:`changed_labels` — the nodes whose update rule differs between
  parent and child (the seed of the dirty-node frontier in
  :func:`repro.engine.kernels.frontier_trajectory`);
* :func:`chain_fingerprint` — ``child_fp = H(parent_fp, delta)``, the
  lineage address recorded by :class:`repro.store.ArtifactStore` so a chain
  of deltas is cacheable without re-hashing the mutated graph.

A delta is canonicalised at construction (undirected pairs normalised, every
section sorted by type-qualified label repr), so two spellings of the same
mutation batch fingerprint identically *and* apply identically — the chain
fingerprint fully determines the child graph's content fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence, Set, Tuple

from repro.errors import GraphError
from repro.graph.graph import Graph, Node

#: Version prefix of the chain hash — bumped if the canonical encoding ever
#: changes, so old and new lineage addresses can never collide.
_CHAIN_VERSION = b"repro-delta-chain/1\x00"

#: Wire-format schema tag of :meth:`GraphDelta.to_dict`.
DELTA_SCHEMA = "repro-graph-delta/1"

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")


def _label_key(label: Node) -> Tuple[str, str]:
    """Total order over arbitrary hashable labels (type-qualified repr)."""
    return (type(label).__name__, repr(label))


def _normalise_pair(u: Node, v: Node) -> Tuple[Node, Node]:
    """Canonical endpoint order of the undirected edge ``{u, v}``."""
    return (u, v) if _label_key(u) <= _label_key(v) else (v, u)


def _edge_sort_key(entry: Sequence) -> tuple:
    return tuple(_label_key(x) for x in entry[:2])


def _canonical_edges(entries: Iterable[Sequence], *, weighted: bool,
                     section: str) -> Tuple[tuple, ...]:
    """Normalise, validate and sort one edge section of a delta."""
    canonical = []
    for entry in entries:
        entry = tuple(entry)
        expected = 3 if weighted else 2
        if len(entry) != expected:
            raise GraphError(f"{section} entries must have {expected} fields, "
                             f"got {entry!r}")
        u, v = _normalise_pair(entry[0], entry[1])
        if weighted:
            try:
                w = float(entry[2])
            except (TypeError, ValueError):
                raise GraphError(f"{section} weights must be numbers, got "
                                 f"{entry[2]!r} for {entry[:2]!r}") from None
            if not 0.0 <= w < math.inf:   # also false for NaN
                raise GraphError(f"{section} weights must be finite and "
                                 f"non-negative, got {w!r} for ({u!r}, {v!r})")
            canonical.append((u, v, w))
        else:
            canonical.append((u, v))
    canonical.sort(key=_edge_sort_key)
    for first, second in zip(canonical, canonical[1:]):
        if first[:2] == second[:2]:
            raise GraphError(f"duplicate edge ({first[0]!r}, {first[1]!r}) "
                             f"in {section}")
    return tuple(canonical)


@dataclass(frozen=True)
class GraphDelta:
    """An immutable batch of graph mutations, canonicalised at construction.

    Application semantics (the order :func:`apply_delta` uses):

    1. ``add_nodes`` — new isolated nodes (appending to the node order);
    2. ``remove_edges`` — remove each edge entirely (error if absent);
    3. ``set_weights`` — set an edge's weight to an absolute value, creating
       the edge (and its endpoints) if absent;
    4. ``add_edges`` — accumulate weight onto an edge, creating it (and its
       endpoints) if absent — the same semantics as :meth:`Graph.add_edge`.

    Every section is stored sorted by type-qualified label repr with
    undirected pairs normalised, so equal mutation batches compare, hash and
    apply identically regardless of how the caller spelled them.
    """

    add_edges: Tuple[Tuple[Node, Node, float], ...] = ()
    remove_edges: Tuple[Tuple[Node, Node], ...] = ()
    set_weights: Tuple[Tuple[Node, Node, float], ...] = ()
    add_nodes: Tuple[Node, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_edges", _canonical_edges(
            self.add_edges, weighted=True, section="add_edges"))
        object.__setattr__(self, "remove_edges", _canonical_edges(
            self.remove_edges, weighted=False, section="remove_edges"))
        object.__setattr__(self, "set_weights", _canonical_edges(
            self.set_weights, weighted=True, section="set_weights"))
        nodes = sorted(set(self.add_nodes), key=_label_key)
        if len(nodes) != len(tuple(self.add_nodes)):
            raise GraphError("duplicate node in add_nodes")
        object.__setattr__(self, "add_nodes", tuple(nodes))

    # ------------------------------------------------------------------ basics
    @property
    def is_empty(self) -> bool:
        """Whether the delta mutates nothing."""
        return not (self.add_edges or self.remove_edges or self.set_weights
                    or self.add_nodes)

    @property
    def num_operations(self) -> int:
        """Total mutation count across all sections."""
        return (len(self.add_edges) + len(self.remove_edges)
                + len(self.set_weights) + len(self.add_nodes))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"delta(+{len(self.add_edges)}e -{len(self.remove_edges)}e "
                f"~{len(self.set_weights)}w +{len(self.add_nodes)}n)")

    # --------------------------------------------------------------- wire form
    def to_dict(self) -> dict:
        """JSON-serialisable wire form (labels must be JSON scalars)."""
        return {
            "schema": DELTA_SCHEMA,
            "add_nodes": list(self.add_nodes),
            "add_edges": [[u, v, w] for u, v, w in self.add_edges],
            "remove_edges": [[u, v] for u, v in self.remove_edges],
            "set_weights": [[u, v, w] for u, v, w in self.set_weights],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GraphDelta":
        """Rebuild a delta from its wire form (:meth:`to_dict`).

        Node labels on the wire are restricted to JSON scalars (``str`` /
        ``int`` / ``float`` / ``bool``) — richer labels exist only in-process.
        """
        if not isinstance(doc, dict):
            raise GraphError(f"delta document must be an object, got "
                             f"{type(doc).__name__}")
        schema = doc.get("schema", DELTA_SCHEMA)
        if schema != DELTA_SCHEMA:
            raise GraphError(f"unknown delta schema {schema!r} "
                             f"(expected {DELTA_SCHEMA!r})")
        unknown = set(doc) - {"schema", "add_nodes", "add_edges",
                              "remove_edges", "set_weights"}
        if unknown:
            raise GraphError(f"unknown delta fields: {sorted(unknown)}")

        def section(name):
            entries = doc.get(name, ())
            if not isinstance(entries, (list, tuple)):
                raise GraphError(f"delta field {name!r} must be an array, "
                                 f"got {entries!r}")
            return entries

        def check_labels(entries, arity):
            for entry in entries:
                if not isinstance(entry, (list, tuple)) or len(entry) != arity:
                    raise GraphError(f"delta edge entries must be "
                                     f"{arity}-element arrays, got {entry!r}")
                for label in entry[:2]:
                    if not isinstance(label, (str, int, float, bool)):
                        raise GraphError(f"wire labels must be JSON scalars, "
                                         f"got {label!r}")
            return entries

        for label in section("add_nodes"):
            if not isinstance(label, (str, int, float, bool)):
                raise GraphError(f"wire labels must be JSON scalars, "
                                 f"got {label!r}")
        return cls(
            add_edges=check_labels(section("add_edges"), 3),
            remove_edges=check_labels(section("remove_edges"), 2),
            set_weights=check_labels(section("set_weights"), 3),
            add_nodes=tuple(section("add_nodes")),
        )


def apply_delta(graph: Graph, delta: GraphDelta) -> Graph:
    """The child graph of ``graph`` and ``delta`` (the parent is untouched).

    Node order is deterministic: parent nodes keep their insertion order
    (so their CSR integer ids are stable across the delta — what the
    frontier-restricted re-solve relies on), new nodes are appended in the
    delta's canonical order of first appearance.

    The child starts as a :meth:`Graph.copy` of the parent, which shares
    every row copy-on-write, so the child holds copies only of the rows the
    delta writes: the cost is O(n) for the node -> row dict plus the touched
    rows, not the whole adjacency.  The child is complete and independent
    when this returns; a later write to either graph copies the row it
    touches first.
    """
    child = graph.copy()
    for v in delta.add_nodes:
        child.add_node(v)
    for u, v in delta.remove_edges:
        child.remove_edge(u, v)  # raises GraphError if absent
    for u, v, w in delta.set_weights:
        if child.has_edge(u, v):
            child.remove_edge(u, v)
        child.add_edge(u, v, w)
    for u, v, w in delta.add_edges:
        child.add_edge(u, v, w)
    return child


def changed_labels(delta: GraphDelta) -> Set[Node]:
    """Nodes whose update rule differs between parent and child.

    These are the endpoints of every touched edge plus explicitly added
    nodes: their neighbourhood (or self-loop weight) changed, so their
    per-round update can never be copied from the parent trajectory — they
    seed (and permanently stay in) the dirty-node frontier.
    """
    touched: Set[Node] = set(delta.add_nodes)
    for u, v, _ in delta.add_edges:
        touched.add(u)
        touched.add(v)
    for u, v in delta.remove_edges:
        touched.add(u)
        touched.add(v)
    for u, v, _ in delta.set_weights:
        touched.add(u)
        touched.add(v)
    return touched


def chain_fingerprint(parent_fingerprint: str, delta: GraphDelta) -> str:
    """The lineage address ``H(parent_fp, delta)`` (hex, 64 chars).

    Deterministic in the delta's canonical form: two spellings of the same
    mutation batch chain to the same child fingerprint.  Because the delta
    also *applies* in canonical order, the chain fingerprint fully determines
    the child graph's content fingerprint — the pair is what
    :meth:`repro.store.ArtifactStore.record_lineage` persists.

    ``parent_fingerprint`` may itself be a chain fingerprint (a chain of
    deltas) or a plain content fingerprint (the chain's root).
    """
    if not isinstance(parent_fingerprint, str) \
            or not _FINGERPRINT_RE.match(parent_fingerprint):
        raise GraphError(f"parent fingerprint must be 64 hex chars, "
                         f"got {parent_fingerprint!r}")
    digest = hashlib.sha256()
    digest.update(_CHAIN_VERSION)
    digest.update(parent_fingerprint.encode("ascii"))

    def feed_label(label):
        digest.update(f"{type(label).__name__}:{label!r}\x1f".encode("utf-8"))

    for section, entries in (("add_nodes", delta.add_nodes),
                             ("remove_edges", delta.remove_edges),
                             ("set_weights", delta.set_weights),
                             ("add_edges", delta.add_edges)):
        digest.update(f"\x1e{section}\x1e".encode("ascii"))
        for entry in entries:
            if section == "add_nodes":
                feed_label(entry)
                continue
            feed_label(entry[0])
            feed_label(entry[1])
            if len(entry) == 3:
                digest.update(repr(float(entry[2])).encode("ascii"))
            digest.update(b"\x1f")
    return digest.hexdigest()
