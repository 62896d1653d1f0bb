"""Per-round NumPy kernels shared by the vectorised execution engines.

These are the innermost loops of the library, extracted from the original
monolithic implementations in :mod:`repro.core.surviving` and
:mod:`repro.core.elimination` so that every engine (see :mod:`repro.engine.base`)
composes the *same* kernels instead of re-implementing them:

* :func:`compact_round_range` — one synchronous round of Algorithm 2 (the compact
  elimination / surviving-number update) for a contiguous *row range* of a CSR
  view;
* :func:`threshold_round_range` — one synchronous round of Algorithm 1 (the
  single-threshold elimination) for a row range;
* :func:`compact_trajectory` — the round loop over an arbitrary shard plan,
  producing the full ``(T+1, n)`` trajectory with monotone early-stopping —
  either as a RAM array or, given an ``out=`` append-trajectory sink
  (:mod:`repro.store.traj`), appended round-by-round to a mapped file with
  only a two-row sliding window resident.

Every kernel takes an explicit ``[lo, hi)`` node range and only materialises the
frontier arrays (gathered neighbour values, sort permutation, prefix sums) for
that range, which is what bounds the peak memory of the sharded engine: with a
shard plan of ``k`` ranges, at most one range's frontier arrays exist at a time
(unless a concurrent executor is supplied, in which case each in-flight shard
owns one set).

Numerical note: within a kernel invocation the per-row prefix sums are derived
from a single cumulative sum over the range (exactly like the original
implementation), so surviving numbers are bit-identical across *any* shard plan
whenever the intermediate weight sums are exactly representable — in particular
for integer and dyadic-rational edge weights, which is what the cross-engine
equivalence suite pins down.  For arbitrary float weights, different shard plans
may differ in the last ulp (and so may the faithful per-node protocol, which
accumulates with Python floats); callers compare with tolerances there.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.rounding import LambdaGrid
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_registry

#: Always-on per-round kernel-time histogram (process-wide default registry).
#: One ``observe`` per round is ~µs against round costs of ms and up.
KERNEL_ROUND_SECONDS = get_registry().histogram(
    "repro_kernel_round_seconds",
    "Wall time of one synchronous elimination round (all shards)")

#: A shard plan: contiguous, disjoint ``[lo, hi)`` node ranges covering ``0..n``.
ShardPlan = Sequence[Tuple[int, int]]


def shard_plan(num_nodes: int, num_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``0..num_nodes`` into ``num_shards`` contiguous near-equal ranges.

    The first ``num_nodes % num_shards`` ranges get one extra node.  A plan for an
    empty graph is the single empty range ``(0, 0)`` so that round loops stay
    uniform.  ``num_shards`` larger than ``num_nodes`` is clamped (empty shards
    would only add overhead).
    """
    if num_shards < 1:
        raise AlgorithmError(f"num_shards must be >= 1, got {num_shards}")
    if num_nodes <= 0:
        return ((0, 0),)
    shards = min(num_shards, num_nodes)
    base, extra = divmod(num_nodes, shards)
    bounds = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


def round_values(grid: LambdaGrid, values: np.ndarray) -> np.ndarray:
    """Λ-round every entry of ``values`` down onto the grid (identity when exact).

    Each *distinct* value goes once through the scalar
    :meth:`LambdaGrid.round_down` and the results are scattered back, so the
    output is byte-identical to rounding entry by entry while the Python calls
    scale with the handful of distinct surviving numbers a round produces, not
    with ``n``.  (A vectorised ``log``/``power`` formula could disagree with
    :func:`~repro.utils.numeric.next_power_below` at grid boundaries.)
    """
    if grid.is_exact:
        return values
    levels, inverse = np.unique(values, return_inverse=True)
    rounded = np.fromiter(map(grid.round_down, levels.tolist()),
                          dtype=np.float64, count=len(levels))
    return rounded[inverse]


def compact_round_range(csr: CSRAdjacency, current: np.ndarray, lo: int, hi: int,
                        grid: LambdaGrid) -> np.ndarray:
    """One round of Algorithm 2 for the nodes ``lo..hi-1`` of a CSR view.

    Implements the ``max_k min(S_k, b_(k))`` characterisation of Algorithm 3 (see
    :func:`repro.core.update.update_value_only`) with a single stable int64
    argsort over the range's CSR slice.  ``current`` is the *full*
    surviving-number vector (a node's update reads all of its neighbours, which
    may live in other shards); the return value holds the new surviving numbers
    for the range only, Λ-rounded when the grid is not exact.

    The sort key of an entry is ``row * L + (L - 1 - rank)``, where ``rank`` is
    the dense rank of the neighbour's value among ``L`` distinct values: rows
    ascend, values descend within a row, and equal values keep their adjacency
    order because the sort is stable.  That is the permutation of
    ``np.lexsort((-vals, rows))``, so the prefix sums below, and every float
    result, do not depend on how the ranks were computed.  The ranks come
    from whichever array is smaller: the whole ``current`` vector when the
    range holds at least ``len(current)`` entries, else the range's gathered
    values (a frontier round over a few rows must not pay ``O(n)``).
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    loops = csr.loops[lo:hi]
    counts = np.diff(csr.indptr[lo:hi + 1])
    nbr = csr.indices[start:stop]
    vals = current[nbr]
    if stop - start >= len(current):
        levels, rank = np.unique(current, return_inverse=True)
        rank = rank[nbr]
    else:
        levels, rank = np.unique(vals, return_inverse=True)
    num_levels = len(levels)
    key = np.repeat(np.arange(local_n, dtype=np.int64) * num_levels, counts)
    key += num_levels - 1 - rank
    order = np.argsort(key, kind="stable")
    sorted_vals = vals[order]
    sorted_w = csr.weights[start:stop][order]
    # Prefix sums of weights *within* each row, offset by the node's self-loop.
    flat_cs = np.cumsum(sorted_w)
    row_starts = csr.indptr[lo:hi] - start
    nonempty = counts > 0
    before_row = np.zeros(local_n, dtype=np.float64)
    before_row[nonempty] = flat_cs[row_starts[nonempty]] - sorted_w[row_starts[nonempty]]
    within_cs = flat_cs - np.repeat(before_row, counts) + np.repeat(loops, counts)
    candidates = np.minimum(within_cs, sorted_vals)
    new = loops.copy()  # a node with no neighbours keeps only its self-loop weight
    if len(candidates):
        seg_max = np.full(local_n, -np.inf, dtype=np.float64)
        seg_max[nonempty] = np.maximum.reduceat(candidates, row_starts[nonempty])
        new = np.maximum(new, np.where(nonempty, seg_max, loops))
    return round_values(grid, new)


def compact_round(csr: CSRAdjacency, current: np.ndarray, grid: LambdaGrid) -> np.ndarray:
    """One full round of Algorithm 2 over every node (single-range kernel call)."""
    return compact_round_range(csr, current, 0, csr.num_nodes, grid)


def init_trajectory(num_nodes: int, rounds: int,
                    prefix: Optional[np.ndarray] = None,
                    out=None) -> Tuple[object, int]:
    """Allocate a ``(rounds + 1, n)`` trajectory, seeded from an optional prefix.

    Returns ``(trajectory, start)``: row 0 is the initial ``+inf`` state, rows
    ``1..start`` are copied verbatim from ``prefix`` (clamped to ``rounds``),
    and the round loop should resume at ``start + 1``.

    When ``out`` is an :class:`~repro.store.traj.AppendTrajectory`, no RAM
    array is allocated: the first element of the return value is ``out``
    itself, seeded so its on-disk rows hold the same ``start + 1`` rows the
    in-memory path would, and ``start`` additionally resumes from rows
    *already published on disk* (the file is its own warm start, so a prefix
    shorter than the file — or none at all — still skips the completed
    rounds).
    """
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    if prefix is not None and (
            prefix.ndim != 2 or prefix.shape[1] != num_nodes or prefix.shape[0] < 1):
        raise AlgorithmError(
            f"trajectory prefix of shape {getattr(prefix, 'shape', None)} does not "
            f"match a {num_nodes}-node CSR view")
    if out is not None:
        return out, min(out.ensure_prefix(prefix), rounds)
    trajectory = np.full((rounds + 1, num_nodes), np.inf, dtype=np.float64)
    start = 0
    if prefix is not None:
        start = min(prefix.shape[0] - 1, rounds)
        trajectory[:start + 1] = prefix[:start + 1]
    return trajectory, start


def compact_trajectory(csr: CSRAdjacency, rounds: int, *, lam: float = 0.0,
                       plan: Optional[ShardPlan] = None,
                       shard_map: Optional[Callable] = None,
                       prefix: Optional[np.ndarray] = None,
                       out=None) -> np.ndarray:
    """The full Algorithm 2 trajectory of surviving numbers over a shard plan.

    Returns an array of shape ``(rounds + 1, n)``: row 0 is the initial ``+inf``
    state, row ``t`` holds every node's surviving number after ``t`` rounds.
    Because the process is monotone, once a fixed point is reached the remaining
    rows simply repeat it.

    Parameters
    ----------
    plan:
        Contiguous node ranges executed one after another within each round
        (default: a single range covering all nodes).  Synchronous-round semantics
        are preserved because every shard reads the *previous* round's full
        vector and writes only its own range.
    shard_map:
        Optional parallel map (e.g. ``concurrent.futures.Executor.map``) applied
        to the per-shard kernel calls of one round; ``None`` runs the shards
        sequentially, which caps peak memory at one shard's frontier arrays.
    prefix:
        Optional previously computed trajectory of the *same* CSR view and λ (an
        output of this function).  Its rows are copied verbatim and the round
        loop resumes after the last one, so a request with a larger budget pays
        only for the missing rounds.  Each round is a deterministic function of
        the previous row, hence the resumed trajectory is bit-identical to a
        cold run (the cross-engine equivalence suite pins this).  A prefix
        longer than ``rounds`` simply yields the sliced trajectory.
    out:
        Optional :class:`~repro.store.traj.AppendTrajectory`: completed rounds
        are appended (and published) to the mapped file instead of filling a
        RAM array, only a sliding window of two rows stays resident, and the
        return value is a read-only ``np.memmap`` over the published prefix —
        bit-identical rows, since each round runs the very same kernel calls
        on the very same previous-row vector.
    """
    n = csr.num_nodes
    grid = LambdaGrid(lam=lam)
    bounds = tuple(plan) if plan is not None else ((0, n),)
    trajectory, start = init_trajectory(n, rounds, prefix, out=out)
    current = out.row(start) if out is not None else trajectory[start].copy()
    # One tracer/context fetch per call; per-round work stays a None-check
    # when tracing is disabled.  Shard spans recorded from pool threads pass
    # the caller's context explicitly (thread-local stacks don't cross).
    tracer = obs_trace.active()
    parent = obs_trace.current_context() if tracer is not None else None
    for t in range(start + 1, rounds + 1):
        round_unix = time.time() if tracer is not None else 0.0
        round_perf = time.perf_counter()
        if len(bounds) == 1:
            lo, hi = bounds[0]
            new = compact_round_range(csr, current, lo, hi, grid)
        else:
            new = np.empty(n, dtype=np.float64)
            if shard_map is not None:
                if tracer is None:
                    run_shard = (lambda b, _cur=current:
                                 compact_round_range(csr, _cur, b[0], b[1], grid))
                else:
                    def run_shard(b, _cur=current, _t=t):
                        shard_unix = time.time()
                        shard_perf = time.perf_counter()
                        chunk = compact_round_range(csr, _cur, b[0], b[1], grid)
                        tracer.record_span(
                            "kernel.shard", start_unix=shard_unix,
                            duration=time.perf_counter() - shard_perf,
                            parent=parent,
                            attrs={"lo": b[0], "hi": b[1], "round": _t})
                        return chunk
                chunks = shard_map(run_shard, bounds)
                for (lo, hi), chunk in zip(bounds, chunks):
                    new[lo:hi] = chunk
            else:
                for lo, hi in bounds:
                    new[lo:hi] = compact_round_range(csr, current, lo, hi, grid)
        round_seconds = time.perf_counter() - round_perf
        KERNEL_ROUND_SECONDS.observe(round_seconds)
        if tracer is not None:
            tracer.record_span(
                "kernel.round_range", start_unix=round_unix,
                duration=round_seconds, parent=parent,
                attrs={"round": t, "shards": len(bounds), "n": n})
        if out is not None:
            out.append_row(new)
        else:
            trajectory[t] = new
        if np.array_equal(new, current):
            if out is not None:
                out.fill_to(rounds, new)
            else:
                trajectory[t:] = new
            break
        current = new
    return out.as_array(rounds) if out is not None else trajectory


class FrontierWarmStart:
    """Warm start for a delta-derived graph: recompute only the dirty frontier.

    Carries everything :func:`frontier_trajectory` needs to re-solve a child
    graph incrementally against its parent's trajectory:

    * ``parent_trajectory`` — the parent's ``(P + 1, parent_n)`` trajectory
      for the same λ;
    * ``parent_ids`` — int64 ``(n,)``: the parent integer id of every child
      node, ``-1`` for nodes the delta introduced;
    * ``changed`` — sorted int64 child ids whose update rule differs from the
      parent (delta edge endpoints, re-weighted/removed edge endpoints, new
      nodes) — the permanent seed of the frontier;
    * ``max_frontier_fraction`` — the fallback policy: when the dirty set of
      any round exceeds this fraction of ``n``, the incremental path bails
      out (returns ``None``) and the caller runs a cold solve instead.

    After the attempt the object reports what happened: ``used`` (the
    incremental path produced the trajectory), ``fallback_reason`` (why it
    did not), ``peak_frontier`` and ``nodes_recomputed`` (the work actually
    done — the rest of the rows were copied from the parent).
    """

    __slots__ = ("parent_trajectory", "parent_ids", "changed",
                 "max_frontier_fraction", "used", "fallback_reason",
                 "peak_frontier", "nodes_recomputed")

    def __init__(self, parent_trajectory: np.ndarray, parent_ids: np.ndarray,
                 changed: np.ndarray, *,
                 max_frontier_fraction: float = 0.25) -> None:
        fraction = float(max_frontier_fraction)
        if not 0.0 <= fraction <= 1.0:
            raise AlgorithmError(f"max_frontier_fraction must be in [0, 1], "
                                 f"got {fraction!r}")
        self.parent_trajectory = np.asarray(parent_trajectory)
        self.parent_ids = np.asarray(parent_ids, dtype=np.int64)
        self.changed = np.unique(np.asarray(changed, dtype=np.int64))
        self.max_frontier_fraction = fraction
        self.used = False
        self.fallback_reason: Optional[str] = None
        self.peak_frontier = 0
        self.nodes_recomputed = 0

    def _fallback(self, reason: str) -> None:
        self.used = False
        self.fallback_reason = reason


def _gathered_sub_csr(csr: CSRAdjacency, ids: np.ndarray):
    """A CSR view of just the rows ``ids``, indices still in full node space.

    Per-row adjacency order is preserved, so the stable tie resolution
    inside :func:`compact_round_range` is identical to a full-range call —
    the gathered rows run through the *same shared kernel* as every other
    engine path.
    """
    from types import SimpleNamespace

    starts = np.asarray(csr.indptr)[ids]
    counts = np.asarray(csr.indptr)[ids + 1] - starts
    sub_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    positions = np.repeat(starts - sub_indptr[:-1], counts) \
        + np.arange(int(sub_indptr[-1]), dtype=np.int64)
    return SimpleNamespace(indptr=sub_indptr,
                           indices=np.asarray(csr.indices)[positions],
                           weights=np.asarray(csr.weights)[positions],
                           loops=np.asarray(csr.loops)[ids])


def frontier_trajectory(csr: CSRAdjacency, rounds: int, *, lam: float = 0.0,
                        warm: FrontierWarmStart) -> Optional[np.ndarray]:
    """Incremental Algorithm 2 trajectory of a delta-derived graph.

    Exploits the locality of the compact elimination rule: a node's round-``t``
    value depends only on its *neighbours'* round-``t-1`` values (and its own
    static loops/weights), never on its own previous value.  So a node whose
    adjacency is unchanged and whose neighbours all carry parent-identical
    values can copy the parent's row entry verbatim.  Per round the dirty set

        ``dirty_t = changed ∪ N(diff_{t-1})``

    is recomputed through :func:`compact_round_range` on a gathered sub-CSR
    (full-space indices, per-row order preserved), where ``diff_{t-1}`` is the
    set of nodes whose recomputed round-``t-1`` value actually differs from
    the parent's; everything else is copied from ``warm.parent_trajectory``.

    Returns the full ``(rounds + 1, n)`` trajectory, or ``None`` when the
    incremental path cannot (parent trajectory too short and not converged)
    or should not (frontier exceeded ``max_frontier_fraction·n``) run — the
    caller then falls back to a cold solve.  ``warm`` records the outcome.

    Bit-identity caveat: like the shard-plan invariance of
    :func:`compact_round_range`, copied-vs-recomputed equality is exact for
    integer/dyadic-rational weights (the domain the equivalence suite pins);
    arbitrary float weights carry the usual last-ulp caveat.
    """
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    n = csr.num_nodes
    grid = LambdaGrid(lam=lam)
    ptraj = warm.parent_trajectory
    parent_ids = warm.parent_ids
    if parent_ids.shape != (n,):
        raise AlgorithmError(f"parent_ids of shape {parent_ids.shape} does "
                             f"not match a {n}-node CSR view")
    P = ptraj.shape[0] - 1
    if P < 1:
        warm._fallback("parent trajectory has no computed rounds")
        return None
    if rounds > P and not np.array_equal(ptraj[P], ptraj[P - 1]):
        warm._fallback(f"parent trajectory covers {P} < {rounds} rounds "
                       f"and has not converged")
        return None
    limit = int(warm.max_frontier_fraction * n)
    changed = warm.changed
    if changed.size and (changed[0] < 0 or changed[-1] >= n):
        raise AlgorithmError("changed ids out of range")
    has_parent = parent_ids >= 0
    gather_ids = parent_ids[has_parent]

    tracer = obs_trace.active()
    parent_ctx = obs_trace.current_context() if tracer is not None else None
    trajectory = np.full((rounds + 1, n), np.inf, dtype=np.float64)
    dirty = changed
    current = trajectory[0]
    for t in range(1, rounds + 1):
        if dirty.size > limit:
            warm._fallback(f"frontier of {dirty.size} nodes exceeds "
                           f"{warm.max_frontier_fraction:g} of n={n} "
                           f"at round {t}")
            return None
        warm.peak_frontier = max(warm.peak_frontier, int(dirty.size))
        round_unix = time.time() if tracer is not None else 0.0
        round_perf = time.perf_counter()
        row = trajectory[t]
        # Untouched nodes: the parent's row verbatim (the fixed-point row
        # once the parent converged — f(x) = x, so the copy stays exact).
        row[has_parent] = ptraj[min(t, P)][gather_ids]
        if dirty.size:
            new_vals = compact_round_range(_gathered_sub_csr(csr, dirty),
                                           current, 0, len(dirty), grid)
            diff_mask = new_vals != row[dirty]
            row[dirty] = new_vals
            warm.nodes_recomputed += int(dirty.size)
        else:
            diff_mask = np.zeros(0, dtype=bool)
        round_seconds = time.perf_counter() - round_perf
        KERNEL_ROUND_SECONDS.observe(round_seconds)
        if tracer is not None:
            tracer.record_span(
                "kernel.frontier_round", start_unix=round_unix,
                duration=round_seconds, parent=parent_ctx,
                attrs={"round": t, "dirty": int(dirty.size), "n": n})
        if np.array_equal(row, current):
            trajectory[t:] = row  # child fixed point: remaining rows repeat
            break
        if diff_mask.any():
            diff_ids = dirty[diff_mask]
            starts = np.asarray(csr.indptr)[diff_ids]
            counts = np.asarray(csr.indptr)[diff_ids + 1] - starts
            positions = np.repeat(
                starts - np.concatenate(([0], np.cumsum(counts)[:-1])),
                counts) + np.arange(int(counts.sum()), dtype=np.int64)
            neighbours = np.asarray(csr.indices)[positions]
            dirty = np.unique(np.concatenate((changed, neighbours)))
        else:
            dirty = changed
        current = row
    warm.used = True
    return trajectory


def threshold_round_range(csr: CSRAdjacency, alive: np.ndarray, threshold: float,
                          lo: int, hi: int) -> np.ndarray:
    """One round of Algorithm 1 (single-threshold elimination) for ``lo..hi-1``.

    ``alive`` is the full survival mask after the previous round; the return value
    is the new mask restricted to the range: a node stays alive iff it was alive
    and its weighted degree towards surviving neighbours (plus its self-loop) is
    at least ``threshold``.
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    counts = np.diff(csr.indptr[lo:hi + 1])
    rows = np.repeat(np.arange(local_n), counts)
    contrib = np.where(alive[csr.indices[start:stop]], csr.weights[start:stop], 0.0)
    deg = np.zeros(local_n, dtype=np.float64)
    np.add.at(deg, rows, contrib)
    deg += csr.loops[lo:hi]
    return alive[lo:hi] & (deg >= threshold)


def restricted_threshold_round_range(csr: CSRAdjacency, alive: np.ndarray,
                                     leaders: np.ndarray, thresholds: np.ndarray,
                                     lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """One round of Algorithm 5 (tree-restricted elimination) for ``lo..hi-1``.

    The per-tree variant of :func:`threshold_round_range`: a node's degree only
    counts surviving neighbours that adopted the *same leader* (``leaders`` is
    the full per-node leader-id vector from Phase 2), and the threshold is
    per-node (the leader's surviving number ``b_u``, gathered by the caller).
    Returns ``(new_alive, deg)`` for the range: the survival mask after the
    round and the restricted weighted degree that was compared against the
    threshold — the ``deg_v[t]`` record that Phase 4 aggregates.  Nodes that
    were already inactive record a degree of 0.0, matching the faithful
    protocol (inactive nodes never execute the round body).
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    local_n = hi - lo
    counts = np.diff(csr.indptr[lo:hi + 1])
    rows = np.repeat(np.arange(local_n), counts)
    src = csr.indices[start:stop]
    same = leaders[src] == leaders[lo:hi][rows]
    contrib = np.where(alive[src] & same, csr.weights[start:stop], 0.0)
    deg = np.zeros(local_n, dtype=np.float64)
    np.add.at(deg, rows, contrib)
    deg += csr.loops[lo:hi]
    alive_range = alive[lo:hi]
    deg = np.where(alive_range, deg, 0.0)
    return alive_range & (deg >= thresholds[lo:hi]), deg


def threshold_masks(csr: CSRAdjacency, threshold: float, rounds: int, *,
                    plan: Optional[ShardPlan] = None) -> np.ndarray:
    """Per-round survival masks of Algorithm 1 (shape ``(rounds + 1, n)``).

    Row ``t`` is the survival mask after ``t`` rounds (row 0 is all-True).  Stops
    early (repeating the last row) once the mask stops changing, since the
    process is monotone.
    """
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    n = csr.num_nodes
    bounds = tuple(plan) if plan is not None else ((0, n),)
    masks = np.ones((rounds + 1, n), dtype=bool)
    current = masks[0].copy()
    for t in range(1, rounds + 1):
        new = np.empty(n, dtype=bool)
        for lo, hi in bounds:
            new[lo:hi] = threshold_round_range(csr, current, threshold, lo, hi)
        masks[t] = new
        if np.array_equal(new, current):
            masks[t:] = new
            break
        current = new
    return masks
