"""Algorithm 4 — bounded-depth BFS forest construction (Phase 2 of Theorem I.3).

Each node starts as its own leader candidate ``(v, b_v)``; for ``T`` rounds every
node broadcasts the best leader it has heard of (under the total order ``⪰``:
larger surviving number first, then the globally known order on identities) and
adopts a better one, remembering through which neighbour it heard of it (its
``parent``).  Two extra rounds implement the paper's *Request Parent* / *Include
Children* / *Confirm Parent* steps: children announce themselves to their parent,
parents acknowledge the children that share their leader, and nodes whose parent
does not acknowledge them become **orphans** (``parent = None``).

Fact IV.2: for the node ``u`` that is globally maximal under ``⪰``, the resulting
tree rooted at ``u`` contains every node within ``T`` hops of ``u`` — which is the
only tree the densest-subset guarantee needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.distsim.message import Message
from repro.distsim.node import NodeContext, NodeProtocol, Outgoing
from repro.distsim.runner import ProtocolRun, run_protocol
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph

#: A leader candidate: (node identity, that node's surviving number).
Leader = Tuple[Hashable, float]


def leader_key(leader: Leader):
    """Sort key realising the paper's total order ``⪰`` on ``(v, b_v)`` pairs."""
    node, value = leader
    return (value, comparable_identity(node))


def comparable_identity(node: Hashable):
    """The globally known total order on node identities used by every tie-break.

    Identities of mixed types are ordered by type name first, then by ``repr``
    — note this is *string* order, so among integer labels ``9 ≻ 10``.  The
    array paths (:func:`identity_ranks`) bake this exact order into int64
    ranks; the two must never diverge, or the BFS forests (and hence the
    reported subsets) and the kept sets drift between engines.
    """
    return (type(node).__name__, repr(node))


def identity_ranks(csr: CSRAdjacency) -> np.ndarray:
    """Int64 rank of every node of ``csr`` under :func:`comparable_identity`.

    ``ranks[v] < ranks[u]`` iff ``comparable_identity(label(v)) <
    comparable_identity(label(u))`` (labels with equal keys keep their id
    order), realised once so array kernels can compare identities as plain
    integers.  The kept-set reconstruction, the array orientation and the
    densest kernels all use it; it is computed at most once per view
    (:meth:`~repro.graph.csr.CSRAdjacency.cached`) and returned read-only.
    """
    return csr.cached("identity_ranks", _identity_ranks)


def _identity_ranks(csr: CSRAdjacency) -> np.ndarray:
    labels = csr.labels()
    n = len(labels)
    if (set(map(type, labels)) == {int}
            and -2**63 <= min(labels) and max(labels) < 2**63):
        order = _decimal_string_order(
            np.fromiter(labels, dtype=np.int64, count=n))
    else:
        keys = list(map(comparable_identity, labels))
        order = np.fromiter(sorted(range(n), key=keys.__getitem__),
                            dtype=np.int64, count=n)
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


#: ``10**k`` for every digit count ``k`` of an int64 magnitude (uint64).
_POWERS_OF_TEN = np.uint64(10) ** np.arange(20, dtype=np.uint64)


def _decimal_string_order(values: np.ndarray) -> np.ndarray:
    """The stable argsort of int64 ``values`` by their decimal spellings
    (:func:`comparable_identity`'s order on ints), without spelling them:
    negatives first (``"-"`` sorts before digits), then the uint64
    magnitudes left-aligned to 19 digits, then the digit count (a prefix
    sorts first)."""
    unsigned = values.view(np.uint64)
    negative = values < 0
    magnitude = np.where(negative, ~unsigned + np.uint64(1), unsigned)
    digits = np.maximum(
        np.searchsorted(_POWERS_OF_TEN, magnitude, side="right"), 1)
    aligned = magnitude * _POWERS_OF_TEN[19 - digits]
    return np.lexsort((digits, aligned, ~negative))


@dataclass(frozen=True)
class BFSOutput:
    """Per-node output of the BFS construction."""

    leader: Leader                       #: the adopted leader ``(u, b_u)``
    parent: Optional[Hashable]           #: parent in the tree; ``None`` for orphans
    children: Tuple[Hashable, ...]       #: confirmed children
    is_root: bool                        #: whether the node is the root of its tree

    @property
    def leader_id(self) -> Hashable:
        """Identity of the adopted leader."""
        return self.leader[0]

    @property
    def leader_value(self) -> float:
        """Surviving number of the adopted leader (the Phase-3 threshold)."""
        return self.leader[1]


# Message tags used after the T propagation rounds.
_REQUEST = "bfs-request"
_ACK = "bfs-ack"


class BFSConstructionProtocol(NodeProtocol):
    """Per-node logic of Algorithm 4.

    Parameters
    ----------
    context:
        Static node knowledge.
    own_value:
        The node's surviving number ``b_v`` from Phase 1.
    propagation_rounds:
        The number ``T`` of leader-propagation rounds; the protocol needs
        ``T + 2`` simulator rounds in total.
    """

    def __init__(self, context: NodeContext, own_value: float, propagation_rounds: int) -> None:
        super().__init__(context)
        if propagation_rounds < 1:
            raise AlgorithmError(f"propagation_rounds must be >= 1, got {propagation_rounds}")
        self.T = propagation_rounds
        self.leader: Leader = (context.node_id, float(own_value))
        self.parent: Optional[Hashable] = context.node_id
        self.children: list = []
        self.acknowledged = True  # roots and (initially) everyone count as acknowledged
        self._pending_requests: Dict[Hashable, Leader] = {}

    # ------------------------------------------------------------------ rounds
    def compose_message(self, round_index: int) -> Outgoing:
        if round_index <= self.T:
            return self.broadcast(("leader", self.leader[0], self.leader[1]))
        if round_index == self.T + 1:
            # Request Parent: announce ourselves to the chosen parent.
            if self.parent is not None and self.parent != self.context.node_id:
                return self.unicast((_REQUEST, self.leader[0], self.leader[1]), [self.parent])
            return None
        if round_index == self.T + 2:
            # Include Children + acknowledge them.
            accepted = [u for u, leader in self._pending_requests.items()
                        if leader == self.leader]
            self.children = accepted
            if accepted:
                return self.unicast((_ACK,), accepted)
            return None
        return None

    def receive(self, round_index: int, messages: Dict[Hashable, Message]) -> None:
        if round_index <= self.T:
            best_sender: Optional[Hashable] = None
            best_leader: Optional[Leader] = None
            for sender, message in messages.items():
                tag, leader_id, leader_value = message.payload
                if tag != "leader":
                    continue
                candidate: Leader = (leader_id, float(leader_value))
                if best_leader is None or leader_key(candidate) > leader_key(best_leader):
                    best_leader = candidate
                    best_sender = sender
                elif (leader_key(candidate) == leader_key(best_leader)
                      and comparable_identity(sender) > comparable_identity(best_sender)):
                    best_sender = sender
            if best_leader is not None and leader_key(best_leader) > leader_key(self.leader):
                self.leader = best_leader
                self.parent = best_sender
            if round_index == self.T:
                self.acknowledged = (self.parent == self.context.node_id)
            return
        if round_index == self.T + 1:
            for sender, message in messages.items():
                payload = message.payload
                if isinstance(payload, tuple) and payload and payload[0] == _REQUEST:
                    self._pending_requests[sender] = (payload[1], float(payload[2]))
            return
        if round_index == self.T + 2:
            for sender, message in messages.items():
                payload = message.payload
                if (isinstance(payload, tuple) and payload and payload[0] == _ACK
                        and sender == self.parent):
                    self.acknowledged = True
            # Confirm Parent: no acknowledgement → orphan.
            if self.parent != self.context.node_id and not self.acknowledged:
                self.parent = None
            self.halt()

    def output(self) -> BFSOutput:
        return BFSOutput(leader=self.leader, parent=self.parent,
                         children=tuple(self.children),
                         is_root=(self.parent == self.context.node_id))


def total_bfs_rounds(propagation_rounds: int) -> int:
    """Simulator rounds needed by Algorithm 4 (``T`` propagation + 2 bookkeeping)."""
    return propagation_rounds + 2


def run_bfs_construction(graph: Graph, values: Dict[Hashable, float],
                         propagation_rounds: int) -> Tuple[Dict[Hashable, BFSOutput], ProtocolRun]:
    """Run Algorithm 4 on the faithful simulator.

    ``values`` are the surviving numbers from Phase 1 (Algorithm 2).
    """
    missing = [v for v in graph.nodes() if v not in values]
    if missing:
        raise AlgorithmError(f"missing surviving numbers for nodes {missing[:5]!r}...")
    run = run_protocol(
        graph,
        lambda ctx: BFSConstructionProtocol(ctx, values[ctx.node_id], propagation_rounds),
        total_bfs_rounds(propagation_rounds),
    )
    return dict(run.outputs), run
