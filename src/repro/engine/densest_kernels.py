"""Array kernels for phases 2-4 of the Theorem I.3 densest pipeline.

Phase 1 (Algorithm 2) has run at array speed since the engine registry existed;
this module collapses the remaining three per-node protocols into batched NumPy
over the shared CSR view, exactly the way :func:`repro.engine.kernels.compact_round_range`
collapsed Algorithm 2:

* :func:`bfs_forest` — Algorithm 4 (Phase 2): ``T`` rounds of leader
  propagation as masked segmented maxima over CSR neighbourhoods, followed by
  the Request/Include/Confirm-Parent bookkeeping collapsed to pure array
  predicates (a non-root is an orphan iff its chosen parent ended up under a
  different leader — the parent's acknowledgement in the faithful protocol is
  exactly that test);
* :func:`local_elimination_rounds` — Algorithm 5 (Phase 3): the per-tree
  single-threshold elimination as ``T`` calls of
  :func:`repro.engine.kernels.restricted_threshold_round_range` with the
  leader's ``b`` gathered per node, recording the ``num``/``deg`` round arrays
  Phase 4 needs;
* :func:`aggregate_and_decide` — Algorithm 6 (Phase 4): the up-sweep becomes
  per-round ``np.bincount`` sums keyed by each node's tree root, the root's
  densest-round argmax is vectorised over all roots at once, and the
  downstream ``t*`` flood becomes one gather through the root index.

Equivalence contract
--------------------
The faithful simulator (:mod:`repro.core.bfs` / ``local_elimination`` /
``aggregation``) stays the reference ground truth, as the per-node kept-set
loop in ``tests/oracles.py`` does for the batched kept sets; the
cross-engine corpus pins the two paths bit-identical on ``subsets``,
``reported_densities`` and ``node_assignment``.  Three details make that hold:

* **The total order ⪰.**  The faithful protocol compares node identities with
  :func:`repro.core.bfs.comparable_identity` (type name, then ``repr``), *not*
  natural order — so among integer labels ``9 ≻ 10``.
  :func:`~repro.core.bfs.identity_ranks` bakes exactly that order into one
  int64 rank per node, and every leader / sender tie-break below maximises
  ``(b, rank)`` pairs, which is the faithful ``leader_key`` verbatim.
* **The sender tie-break.**  When several neighbours announce the same best
  leader, the faithful loop keeps the sender that is maximal under
  ``comparable_identity``; a lexicographic ``(leader value, leader rank,
  sender rank)`` segmented maximum reproduces that choice independent of
  message arrival order.
* **Trees cut by orphans.**  Nodes whose parent chain passes through an orphan
  participate in Phase 3 (they broadcast and are counted by same-leader
  neighbours) but their aggregates die at the halted orphan and never reach a
  root; :func:`tree_anchors` resolves each node's parent chain by pointer
  doubling and reports ``-1`` for exactly those nodes, so the Phase-4 sums
  cover the same member sets the simulator's up-sweep covers.

Float summation orders differ between the paths (the simulator adds in message
arrival order, ``np.add.at``/``np.bincount`` in index order), so — exactly as
for Phase 1 — bit-identity is guaranteed for integer and dyadic edge weights;
arbitrary float weights carry the usual last-ulp caveat of
:mod:`repro.engine.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.bfs import identity_ranks
from repro.engine.kernels import ShardPlan, restricted_threshold_round_range
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency


@dataclass(frozen=True)
class BFSForest:
    """Array form of the Phase-2 output (one entry per CSR node id).

    ``parent[v] == v`` marks roots and ``parent[v] == -1`` marks orphans
    (the faithful ``parent is None``); ``anchor[v]`` is the root of the tree
    whose up-sweep actually reaches ``v``'s aggregates, or ``-1`` when the
    parent chain is cut by an orphan (including the orphan itself).
    """

    leader: np.ndarray    #: int64 (n,) — adopted leader's node id
    parent: np.ndarray    #: int64 (n,) — parent id; self for roots, -1 for orphans
    anchor: np.ndarray    #: int64 (n,) — root id of the confirmed tree, -1 if cut off
    ranks: np.ndarray     #: int64 (n,) — identity ranks used for the tie-breaks

    @property
    def is_root(self) -> np.ndarray:
        """Mask of tree roots (nodes that are their own confirmed parent)."""
        return self.parent == np.arange(len(self.parent), dtype=np.int64)

    @property
    def participates(self) -> np.ndarray:
        """Mask of Phase-3 participants (everyone but orphans)."""
        return self.parent >= 0

    @property
    def in_tree(self) -> np.ndarray:
        """Mask of nodes whose aggregates reach a root in Phase 4."""
        return self.anchor >= 0


def bfs_forest(csr: CSRAdjacency, values: np.ndarray, propagation_rounds: int, *,
               ranks: Optional[np.ndarray] = None) -> BFSForest:
    """Algorithm 4 as ``T`` rounds of batched leader propagation.

    ``values`` is the Phase-1 surviving-number vector aligned with the CSR ids.
    Per round, every node takes the lexicographic maximum of
    ``(leader value, leader rank, sender rank)`` over its neighbourhood with
    three masked ``np.maximum.reduceat`` passes and adopts the candidate when
    it beats its current ``(value, rank)`` leader key — which is exactly the
    faithful receive loop, made order-independent.  Stops early once no node
    adopts (propagation has converged; later rounds cannot change anything).
    """
    n = csr.num_nodes
    T = int(propagation_rounds)
    if T < 1:
        raise AlgorithmError(f"propagation_rounds must be >= 1, got {T}")
    b = np.ascontiguousarray(values, dtype=np.float64)
    if b.shape != (n,):
        raise AlgorithmError(
            f"values of shape {b.shape} do not match a {n}-node CSR view")
    if ranks is None:
        ranks = identity_ranks(csr)
    ids = np.arange(n, dtype=np.int64)
    by_rank = np.empty(n, dtype=np.int64)  # inverse permutation: rank -> node id
    by_rank[ranks] = ids
    leader = ids.copy()
    parent = ids.copy()
    if n == 0:
        return BFSForest(leader=leader, parent=parent,
                         anchor=np.empty(0, dtype=np.int64), ranks=ranks)

    src = csr.indices
    counts = np.diff(csr.indptr)
    rows = csr.entry_rows()
    row_starts = csr.indptr[:-1]
    nonempty = counts > 0

    def seg_max(edge_vals: np.ndarray, fill) -> np.ndarray:
        out = np.full(n, fill, dtype=edge_vals.dtype)
        if len(edge_vals):
            out[nonempty] = np.maximum.reduceat(edge_vals, row_starts[nonempty])
        return out

    lv = b[leader]       # adopted leader's surviving number
    lr = ranks[leader]   # adopted leader's identity rank
    for _ in range(T):
        e_lv = lv[src]
        m1 = seg_max(e_lv, -np.inf)
        ok1 = e_lv == m1[rows]
        e_lr = np.where(ok1, lr[src], np.int64(-1))
        m2 = seg_max(e_lr, np.int64(-1))
        ok2 = ok1 & (e_lr == m2[rows])
        e_sr = np.where(ok2, ranks[src], np.int64(-1))
        m3 = seg_max(e_sr, np.int64(-1))
        better = (m1 > lv) | ((m1 == lv) & (m2 > lr))
        if not better.any():
            break
        leader = np.where(better, by_rank[m2], leader)
        parent = np.where(better, by_rank[m3], parent)
        lv = b[leader]
        lr = ranks[leader]

    # Confirm Parent, collapsed: a parent acknowledges exactly the requesters
    # that announced the leader it holds itself, so a non-root is an orphan iff
    # it ended up under a different leader than its parent.
    nonroot = parent != ids
    orphan = nonroot & (leader != leader[parent])
    parent = np.where(orphan, np.int64(-1), parent)
    anchor = tree_anchors(parent)
    return BFSForest(leader=leader, parent=parent, anchor=anchor, ranks=ranks)


def tree_anchors(parent: np.ndarray) -> np.ndarray:
    """Resolve each node's parent chain to its root by pointer doubling.

    ``parent`` uses the :class:`BFSForest` convention (self for roots, ``-1``
    for orphans).  Returns the root id where the chain ends in a root, and
    ``-1`` where it is cut by an orphan (orphans included).  Chains are acyclic
    and at most ``T`` long (a node's parent heard of the shared leader one
    round earlier), so the doubling loop runs ``O(log T)`` passes.
    """
    n = len(parent)
    ids = np.arange(n, dtype=np.int64)
    orphan = parent < 0
    hop = np.where(orphan, ids, parent)  # pin orphans to themselves
    while True:
        nxt = hop[hop]
        if np.array_equal(nxt, hop):
            break
        hop = nxt
    is_root = parent == ids
    return np.where(is_root[hop], hop, np.int64(-1))


def local_elimination_rounds(csr: CSRAdjacency, forest: BFSForest,
                             values: np.ndarray, rounds: int, *,
                             plan: Optional[ShardPlan] = None,
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 5 as ``T`` restricted-threshold round kernels.

    Returns ``(num, deg)`` of shape ``(rounds, n)``: ``num[t]`` is the activity
    mask at the start of round ``t + 1`` and ``deg[t]`` the restricted degree
    recorded in that round (0.0 for inactive nodes) — the per-node arrays the
    faithful :class:`~repro.core.local_elimination.LocalEliminationProtocol`
    accumulates.  The per-node threshold is the leader's surviving number,
    gathered from ``values``.  Once the alive mask reaches a fixed point the
    remaining rows repeat it (inactive nodes record zeros, active ones re-record
    the same degree), exactly like the remaining simulator rounds would.
    """
    n = csr.num_nodes
    T = int(rounds)
    if T < 1:
        raise AlgorithmError(f"rounds must be >= 1, got {T}")
    b = np.ascontiguousarray(values, dtype=np.float64)
    thresholds = b[forest.leader] if n else np.zeros(0, dtype=np.float64)
    num = np.zeros((T, n), dtype=bool)
    deg = np.zeros((T, n), dtype=np.float64)
    alive = forest.participates
    bounds = tuple(plan) if plan is not None else ((0, n),)
    for t in range(T):
        new_alive = np.empty(n, dtype=bool)
        deg_row = np.empty(n, dtype=np.float64)
        for lo, hi in bounds:
            new_alive[lo:hi], deg_row[lo:hi] = restricted_threshold_round_range(
                csr, alive, forest.leader, thresholds, lo, hi)
        num[t] = alive
        deg[t] = deg_row
        if np.array_equal(new_alive, alive):
            num[t + 1:] = alive
            deg[t + 1:] = deg_row
            break
        alive = new_alive
    return num, deg


@dataclass(frozen=True)
class DensestDecision:
    """Array form of the Phase-4 output.

    ``t_star`` / ``density`` are indexed by node id but only meaningful at
    accepted roots (``-1`` / ``NaN`` elsewhere); ``sigma`` marks the members of
    the reported subsets, i.e. the in-tree nodes still active at their root's
    chosen round.
    """

    sigma: np.ndarray      #: bool (n,) — member of the reported subset
    t_star: np.ndarray     #: int64 (n,) — accepted root's densest round, else -1
    density: np.ndarray    #: float64 (n,) — accepted root's density, else NaN


def aggregate_and_decide(forest: BFSForest, num: np.ndarray, deg: np.ndarray,
                         values: np.ndarray, acceptance_factor: float,
                         ) -> DensestDecision:
    """Algorithm 6 as segmented sums keyed by tree root.

    The up-sweep collapses to per-round ``np.bincount`` sums of ``num`` / ``deg``
    over the in-tree members of each root; the root's densest-round choice is
    the faithful ``_decide`` loop run for all roots at once (strict ``>`` from
    ``-1.0``, so the earliest round wins ties, and rounds with an empty
    surviving set are skipped); acceptance compares against
    ``b_root / acceptance_factor``; the downstream flood is one gather of the
    accepted root's ``t*`` through the anchor index.
    """
    if acceptance_factor <= 0:
        raise AlgorithmError(
            f"acceptance_factor must be positive, got {acceptance_factor}")
    T, n = num.shape
    b = np.ascontiguousarray(values, dtype=np.float64)
    members = np.flatnonzero(forest.anchor >= 0)
    anchors = forest.anchor[members]
    roots = np.flatnonzero(forest.is_root)

    best_density = np.full(len(roots), -1.0, dtype=np.float64)
    best_t = np.full(len(roots), -1, dtype=np.int64)
    for t in range(T):
        cnt = np.bincount(anchors, weights=num[t, members].astype(np.float64),
                          minlength=n)[roots]
        dsum = np.bincount(anchors, weights=deg[t, members], minlength=n)[roots]
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = dsum / (2.0 * cnt)
        update = (cnt > 0) & (dens > best_density)
        best_density = np.where(update, dens, best_density)
        best_t = np.where(update, np.int64(t), best_t)

    threshold = b[roots] / acceptance_factor
    accepted = (best_t >= 0) & (best_density >= threshold)

    t_star = np.full(n, -1, dtype=np.int64)
    density = np.full(n, np.nan, dtype=np.float64)
    t_star[roots[accepted]] = best_t[accepted]
    density[roots[accepted]] = best_density[accepted]

    sigma = np.zeros(n, dtype=bool)
    if len(members):
        member_t = t_star[anchors]
        flooded = member_t >= 0
        chosen = members[flooded]
        sigma[chosen] = num[member_t[flooded], chosen]
    return DensestDecision(sigma=sigma, t_star=t_star, density=density)


def densest_phases(csr: CSRAdjacency, values: np.ndarray, rounds: int,
                   acceptance_factor: float, *,
                   ranks: Optional[np.ndarray] = None,
                   plan: Optional[ShardPlan] = None,
                   ) -> Tuple[BFSForest, np.ndarray, np.ndarray, DensestDecision]:
    """Phases 2-4 end to end over a CSR view: ``(forest, num, deg, decision)``.

    ``values`` is the Phase-1 surviving-number vector aligned with the CSR ids
    and ``rounds`` the shared budget ``T``.
    """
    b = np.ascontiguousarray(values, dtype=np.float64)
    forest = bfs_forest(csr, b, rounds, ranks=ranks)
    num, deg = local_elimination_rounds(csr, forest, b, rounds, plan=plan)
    decision = aggregate_and_decide(forest, num, deg, b, acceptance_factor)
    return forest, num, deg, decision
