"""Algorithm 6 — in-tree aggregation and densest-round selection (Phase 4).

Within each BFS tree, the per-round activity/degree arrays of Algorithm 5 are summed
towards the root along tree edges (a node forwards its aggregate once it has heard
from all of its children).  The root then knows, for every round ``t``, the number
``num'[t]`` of surviving nodes and the sum ``deg'[t]`` of their restricted degrees —
hence the density ``deg'[t] / (2 · num'[t])`` of the surviving set ``A_t``
(Lemma IV.4).  It picks the densest round ``t*``, decides whether the resulting set
is good enough, and floods ``t*`` (and the winning density) back down the tree so
that every surviving member learns it belongs to the reported subset.

Acceptance-threshold note
-------------------------
Algorithm 6 line 10 reads "if ``b_max >= b_v``".  Taken literally this contradicts
Lemma IV.4 / Corollary IV.5 — even for a clique the best achievable density is about
``b_v / 2``, so the root would never report anything.  We implement the condition
the analysis supports, ``b_max >= b_v / γ`` (with ``γ = 2·n^(1/T)`` the Phase-1
guarantee), and flag the deviation here.  Setting ``acceptance_factor`` to 1
restores the literal behaviour for ablation purposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.bfs import BFSOutput
from repro.core.local_elimination import LocalEliminationOutput
from repro.distsim.message import Message
from repro.distsim.node import NodeContext, NodeProtocol, Outgoing
from repro.distsim.runner import ProtocolRun, run_protocol
from repro.errors import AlgorithmError
from repro.graph.graph import Graph

_AGG = "agg"
_TSTAR = "tstar"


@dataclass(frozen=True)
class AggregationOutput:
    """Per-node output of Algorithm 6."""

    sigma: int                        #: 1 if the node belongs to the reported subset
    leader_id: Hashable               #: the node's tree (subset) identity
    t_star: Optional[int]             #: the selected round (None if the tree reported nothing)
    density: Optional[float]          #: the density announced by the root (None if nothing)
    is_root: bool                     #: whether this node made the decision


class AggregationProtocol(NodeProtocol):
    """Per-node logic of Algorithm 6."""

    def __init__(self, context: NodeContext, bfs: BFSOutput,
                 local: LocalEliminationOutput, acceptance_factor: float,
                 max_rounds: int) -> None:
        super().__init__(context)
        if acceptance_factor <= 0:
            raise AlgorithmError(f"acceptance_factor must be positive, got {acceptance_factor}")
        self.bfs = bfs
        self.local = local
        self.acceptance_factor = acceptance_factor
        self.max_rounds = max_rounds
        self.children = set(bfs.children)
        self.pending_children = set(bfs.children)
        self.agg_num: List[float] = [float(x) for x in local.num]
        self.agg_deg: List[float] = [float(x) for x in local.deg]
        self.sent_up = False
        self.sigma = 0
        self.t_star: Optional[int] = None
        self.density: Optional[float] = None
        self._downstream_payload: Optional[tuple] = None
        self._decided = False

    # ------------------------------------------------------------------ helpers
    @property
    def is_root(self) -> bool:
        """Whether this node is the root of its BFS tree."""
        return self.bfs.is_root

    def _decide(self) -> None:
        """Root-only: pick the densest round and decide whether to report it."""
        best_t: Optional[int] = None
        best_density = -1.0
        for t, (num_t, deg_t) in enumerate(zip(self.agg_num, self.agg_deg)):
            if num_t <= 0:
                continue
            density = deg_t / (2.0 * num_t)
            if density > best_density:
                best_density = density
                best_t = t
        self._decided = True
        if best_t is None:
            return
        threshold = self.bfs.leader_value / self.acceptance_factor
        if best_density >= threshold:
            self.t_star = best_t
            self.density = best_density
            if best_t < len(self.local.num) and self.local.num[best_t] == 1:
                self.sigma = 1
            self._downstream_payload = (_TSTAR, best_t, best_density)

    # ------------------------------------------------------------------ rounds
    def compose_message(self, round_index: int) -> Outgoing:
        # Downstream flood of the decision takes precedence once available.
        if self._downstream_payload is not None and self.children:
            payload = self._downstream_payload
            self._downstream_payload = None
            return self.unicast(payload, list(self.children))
        # Upstream aggregation: send once all children have reported.
        if (not self.sent_up and not self.pending_children
                and self.bfs.parent is not None and not self.is_root):
            self.sent_up = True
            return self.unicast((_AGG, tuple(self.agg_num), tuple(self.agg_deg)),
                                [self.bfs.parent])
        return None

    def receive(self, round_index: int, messages: Dict[Hashable, Message]) -> None:
        for sender, message in messages.items():
            payload = message.payload
            if not isinstance(payload, tuple) or not payload:
                continue
            if payload[0] == _AGG and sender in self.pending_children:
                _, child_num, child_deg = payload
                self.agg_num = [a + b for a, b in zip(self.agg_num, child_num)]
                self.agg_deg = [a + b for a, b in zip(self.agg_deg, child_deg)]
                self.pending_children.discard(sender)
            elif payload[0] == _TSTAR and sender == self.bfs.parent:
                _, t_star, density = payload
                self.t_star = int(t_star)
                self.density = float(density)
                if self.t_star < len(self.local.num) and self.local.num[self.t_star] == 1:
                    self.sigma = 1
                if self.children:
                    self._downstream_payload = (_TSTAR, self.t_star, self.density)
                else:
                    self.halt()
        # Roots decide as soon as their aggregate is complete.
        if self.is_root and not self._decided and not self.pending_children:
            self._decide()
            if self._downstream_payload is None and not self.children:
                self.halt()
        # Orphans have nothing to do.
        if self.bfs.parent is None:
            self.halt()
        if round_index >= self.max_rounds:
            self.halt()

    def output(self) -> AggregationOutput:
        return AggregationOutput(sigma=self.sigma, leader_id=self.bfs.leader_id,
                                 t_star=self.t_star, density=self.density,
                                 is_root=self.is_root)


def total_aggregation_rounds(elimination_rounds: int) -> int:
    """A safe round budget for Algorithm 6 (up-sweep + down-sweep along depth-T trees)."""
    return 2 * elimination_rounds + 4


def run_aggregation(graph: Graph, bfs_outputs: Dict[Hashable, BFSOutput],
                    local_outputs: Dict[Hashable, LocalEliminationOutput],
                    acceptance_factor: float,
                    elimination_rounds: int) -> Tuple[Dict[Hashable, AggregationOutput], ProtocolRun]:
    """Run Algorithm 6 on the faithful simulator."""
    rounds = total_aggregation_rounds(elimination_rounds)
    run = run_protocol(
        graph,
        lambda ctx: AggregationProtocol(ctx, bfs_outputs[ctx.node_id],
                                        local_outputs[ctx.node_id],
                                        acceptance_factor, rounds),
        rounds,
    )
    return dict(run.outputs), run
