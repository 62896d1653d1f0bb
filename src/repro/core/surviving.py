"""Algorithm 2 — the compact elimination procedure (surviving numbers).

Instead of running Algorithm 1 for every possible threshold in parallel, each node
``v`` keeps only the largest threshold for which it would still survive — its
*surviving number* ``b_v`` (Definition III.1).  In every round the node broadcasts
``b_v``, runs :mod:`Update <repro.core.update>` (Algorithm 3) on the values received
from its neighbours, and optionally rounds the result down onto the geometric grid
``Λ`` (Section III-C).  After ``T`` rounds,

* ``b_v`` is a ``2·n^(1/T)``-approximation of both the coreness ``c(v)`` and the
  maximal density ``r(v)`` (Theorem I.1 / Lemma III.2 + III.3 + III.4), and
* when ``Λ = R``, the auxiliary subsets ``N_v`` returned by ``Update`` form a
  feasible, equally-approximate solution of the min-max edge orientation problem
  (Theorem I.2, Lemma III.11).

Execution is delegated to the engine registry in :mod:`repro.engine`: the
``faithful`` engine wraps :func:`run_compact_elimination` (the per-node
protocol, :class:`CompactEliminationProtocol`, on the synchronous simulator —
the reference implementation, which also tracks message statistics), while the
``vectorized`` and ``sharded`` engines execute the per-round NumPy kernels of
:mod:`repro.engine.kernels` on a CSR view.  All engines are property-tested to
produce identical surviving numbers; auxiliary orientation subsets can be
recovered from a trajectory with
:func:`repro.core.orientation.kept_sets_from_trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.rounding import LambdaGrid
from repro.core.update import UpdateResult, update_sorted, update_stable
from repro.distsim.congest import MessageSizeModel
from repro.distsim.stats import RunStats as SimRunStats
from repro.engine.base import get_engine
from repro.engine.kernels import compact_round, compact_trajectory
from repro.distsim.message import Message
from repro.distsim.node import NodeContext, NodeProtocol, Outgoing
from repro.distsim.runner import ProtocolRun, run_protocol
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph

#: Supported tie-breaking rules for Algorithm 3's sort.
TIE_BREAK_RULES = ("history", "stable", "naive")


@dataclass(frozen=True)
class SurvivingOutput:
    """Per-node output of the compact elimination procedure."""

    value: float                 #: the surviving number ``b_v``
    kept: Tuple[Hashable, ...]   #: the auxiliary in-neighbour subset ``N_v``


class CompactEliminationProtocol(NodeProtocol):
    """Per-node logic of Algorithm 2 (with the Algorithm 3 Update subroutine)."""

    def __init__(self, context: NodeContext, grid: LambdaGrid,
                 tie_break: str = "history", track_kept: bool = True) -> None:
        super().__init__(context)
        if tie_break not in TIE_BREAK_RULES:
            raise AlgorithmError(f"unknown tie_break rule {tie_break!r}; expected one of {TIE_BREAK_RULES}")
        # Lemma III.11 requires Λ = R for the orientation invariants.  Tracking
        # the subsets under rounding is still allowed (the A1/E5 ablations
        # measure the degradation), so it is not an error; only the guarantee
        # is void.
        self.grid = grid
        self.tie_break = tie_break
        self.track_kept = track_kept
        # Algorithm 2, line 1: b_v ← +∞, N_v ← N(v).  Without tracking there
        # is no N_v to maintain, and the node reports it empty, as the array
        # engines do.
        self.value: float = math.inf
        self.kept: Tuple[Hashable, ...] = (
            tuple(context.neighbor_weights) if track_kept else ())
        #: fixed neighbour order for the "stable" rule (insertion order of the graph).
        self.neighbor_order: Tuple[Hashable, ...] = tuple(context.neighbor_weights)
        #: past surviving numbers received from each neighbour (oldest first).
        self.histories: Dict[Hashable, List[float]] = {u: [] for u in context.neighbor_weights}
        #: last value received from each neighbour (starts at +∞, the initial value).
        self.last_received: Dict[Hashable, float] = {u: math.inf for u in context.neighbor_weights}

    # ------------------------------------------------------------------ rounds
    def compose_message(self, round_index: int) -> Outgoing:
        return self.broadcast(self.value)

    def receive(self, round_index: int, messages: Dict[Hashable, Message]) -> None:
        for sender, message in messages.items():
            self.last_received[sender] = float(message.payload)
        entries = [(u, self.last_received[u], w)
                   for u, w in self.context.neighbor_weights.items()]
        if self.tie_break == "history":
            result = update_sorted(entries, histories=self.histories,
                                   self_loop=self.context.self_loop_weight)
        elif self.tie_break == "stable":
            result = update_stable(entries, self.neighbor_order,
                                   self_loop=self.context.self_loop_weight)
            # The paper's alternative rule keeps "an ordering of its neighbours" that
            # is refined by stable-sorting on the current values every round; carrying
            # the sorted order forward makes repeated stable sorts equivalent to the
            # lexicographic history rule (which Lemma III.11's proof relies on).
            position = {u: i for i, u in enumerate(self.neighbor_order)}
            self.neighbor_order = tuple(sorted(
                self.neighbor_order,
                key=lambda u: (self.last_received[u], position[u])))
        else:  # "naive"
            result = update_sorted(entries, histories=None,
                                   self_loop=self.context.self_loop_weight)
        self.value = self.grid.round_down(result.value)
        if self.track_kept:
            self.kept = result.kept
        # The current round's received values become part of the history used to
        # break ties in the *next* round (Algorithm 3, line 1).
        for u in self.histories:
            self.histories[u].append(self.last_received[u])

    def output(self) -> SurvivingOutput:
        return SurvivingOutput(value=self.value, kept=self.kept)


@dataclass
class SurvivingNumbers:
    """Result of running the compact elimination procedure for ``T`` rounds.

    The trajectory engines and store reloads return ``values`` as a
    :class:`~repro.core.orientation.NodeValues`: a read-only float64 array
    on the CSR view's ids (a copy of the trajectory's last row) behind a
    mapping whose label dict is built on the first keyed read.  The faithful
    engine returns a plain dict.  A cached result is shared between
    identical requests; the problem results take ``values.copy()``.
    """

    values: Mapping[Hashable, float]                #: ``b_v`` per node
    #: ``N_v`` per node, read-only; every set is empty when untracked.  The
    #: trajectory engines return a :class:`~repro.core.orientation.KeptSets`
    #: whose per-node tuples are built on the first read; the faithful
    #: engine returns a plain dict.
    kept: Mapping[Hashable, Tuple[Hashable, ...]]
    rounds: int                                     #: number of executed rounds ``T``
    grid: LambdaGrid                                #: the Λ grid used
    num_nodes: int                                  #: ``n`` (for the guarantee)
    trajectory: Optional[np.ndarray] = None         #: (T+1, n) per-round values (vectorised engine)
    node_order: Optional[Tuple[Hashable, ...]] = None  #: column labels of ``trajectory``
    stats_summary: str = ""                         #: simulator statistics (if any)
    message_stats: Optional[SimRunStats] = None     #: full per-round simulator statistics
                                                    #: (faithful engine only)

    @property
    def guarantee(self) -> float:
        """The proven approximation factor ``2·n^(1/T)`` (times ``1+λ`` slack below)."""
        return 2.0 * (self.num_nodes ** (1.0 / self.rounds)) if self.rounds >= 1 else math.inf

    def value_of(self, node: Hashable) -> float:
        """The surviving number of ``node``."""
        return self.values[node]


def _resolve_grid(graph: Graph, lam: float) -> LambdaGrid:
    from repro.core.rounding import grid_for_graph

    return grid_for_graph(graph, lam)


def run_compact_elimination(graph: Graph, rounds: int, *, lam: float = 0.0,
                            tie_break: str = "history", track_kept: bool = True,
                            size_model: Optional[MessageSizeModel] = None,
                            ) -> Tuple[SurvivingNumbers, ProtocolRun]:
    """Run Algorithm 2 for ``rounds`` rounds on the faithful simulator.

    Parameters
    ----------
    graph:
        The input graph (weighted, possibly with self-loops).
    rounds:
        The round budget ``T`` (use :func:`repro.core.rounds.rounds_for_epsilon`).
    lam:
        The Λ-grid parameter; ``0`` keeps exact values (``Λ = R``).
    tie_break:
        Tie-breaking rule of Algorithm 3 (``"history"`` is the paper's rule).
    track_kept:
        Whether to maintain the auxiliary orientation subsets.
    size_model:
        Optional message-size model; when omitted, a model aware of the Λ grid is
        constructed automatically so message-size experiments see the savings.
    """
    if rounds < 1:
        raise AlgorithmError(f"rounds must be >= 1, got {rounds}")
    grid = _resolve_grid(graph, lam)
    if size_model is None:
        size_model = MessageSizeModel(grid_size=grid.grid_size())
    run = run_protocol(
        graph,
        lambda ctx: CompactEliminationProtocol(ctx, grid, tie_break=tie_break,
                                               track_kept=track_kept),
        rounds,
        size_model=size_model,
    )
    values = {v: out.value for v, out in run.outputs.items()}
    kept = {v: out.kept for v, out in run.outputs.items()}
    result = SurvivingNumbers(values=values, kept=kept, rounds=rounds, grid=grid,
                              num_nodes=graph.num_nodes,
                              stats_summary=run.stats.summary(),
                              message_stats=run.stats)
    return result, run


def surviving_numbers_vectorized(csr: CSRAdjacency, rounds: int, *,
                                 lam: float = 0.0) -> np.ndarray:
    """Vectorised Algorithm 2: the full trajectory of surviving numbers.

    Returns an array of shape ``(rounds + 1, n)``: row 0 is the initial ``+inf``
    state, row ``t`` holds every node's surviving number after ``t`` rounds.  The
    values are identical to the faithful protocol's (the Update value does not
    depend on the tie-breaking rule); Λ-rounding is applied after every round when
    ``lam > 0``.  Because the process is monotone, once a fixed point is reached the
    remaining rows simply repeat it.

    This is the single-range special case of
    :func:`repro.engine.kernels.compact_trajectory` (which the trajectory
    engine calls with its shard plan).
    """
    return compact_trajectory(csr, rounds, lam=lam)


def iterate_to_fixed_point(csr: CSRAdjacency, *, lam: float = 0.0,
                           max_rounds: Optional[int] = None,
                           ) -> Tuple[np.ndarray, int]:
    """Run the vectorised compact elimination until the values stop changing.

    Returns ``(values, rounds)`` where ``rounds`` is the number of rounds after
    which the fixed point was first reached.  This is the engine behind the
    Montresor et al. exact distributed k-core baseline: the fixed point of the
    Update operator equals the exact coreness values.
    """
    n = csr.num_nodes
    grid = LambdaGrid(lam=lam)
    cap = max_rounds if max_rounds is not None else max(1, n + 1)
    current = np.full(n, np.inf, dtype=np.float64)
    for t in range(1, cap + 1):
        new = compact_round(csr, current, grid)
        if np.array_equal(new, current):
            return current, t - 1
        current = new
    return current, cap


def compact_elimination(graph: Graph, rounds: int, *, lam: float = 0.0,
                        engine="vectorized", tie_break: str = "history",
                        track_kept: bool = True) -> SurvivingNumbers:
    """Run Algorithm 2 with a registry engine and return a :class:`SurvivingNumbers`.

    ``engine`` is anything :func:`repro.engine.get_engine` resolves: an
    :class:`~repro.engine.base.Engine` instance, ``"faithful"`` (alias
    ``"simulation"``) for the per-node protocol, ``"vectorized"`` (default) for
    the whole-graph NumPy kernels, or ``"sharded"`` / ``"sharded:4"`` for the
    bounded-memory shard-by-shard executor.  When ``track_kept`` is set the
    array engines recover the auxiliary orientation subsets by replaying the
    final Update locally per node (see
    :func:`repro.core.orientation.kept_sets_from_trajectory`).
    """
    return get_engine(engine).run(graph, rounds, lam=lam, tie_break=tie_break,
                                  track_kept=track_kept)
