"""Per-round NumPy kernels shared by the array execution paths.

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
  only a two-row sliding window resident.  It is the only round loop: the
  frontier re-solve of a delta-derived graph (:func:`frontier_trajectory`)
  is the same loop given a :class:`FrontierWarmStart`.

Every kernel takes an explicit ``[lo, hi)`` node range and only materialises the
frontier arrays (gathered neighbour values, sort permutation, prefix sums) for
that range, which is what bounds the peak memory of a shard plan
(:class:`~repro.engine.vectorized.TrajectoryEngine`): with ``k`` ranges, at
most one range's frontier arrays exist at a time (unless a concurrent executor
is supplied, in which case each in-flight shard owns one set).

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

    The sort key of an entry is ``row * L + rank``, where ``rank`` is the
    dense rank of the neighbour's value among ``L`` distinct values in
    descending order (the ascending rank of its negation): rows ascend,
    values descend within a row, and equal values keep their adjacency
    order because the sort is stable.  That is the permutation of
    ``np.lexsort((-vals, rows))``, so the prefix sums below, and every float
    result, do not depend on how the ranks were computed.  The ranks come
    from whichever array is smaller: the whole ``current`` vector when the
    range holds at least ``len(current)`` entries, else the range's gathered
    values (a frontier round over a few rows must not pay ``O(n)``).  The
    rows are a slice of the view's memoised :meth:`entry_rows`.
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    loops = csr.loops[lo:hi]
    if start == stop:
        return round_values(grid, loops.copy())  # no neighbours: self-loops only
    nbr = csr.indices[start:stop]
    vals = current[nbr]
    if stop - start >= len(current):
        levels, rank = np.unique(-current, return_inverse=True)
        rank = rank[nbr]
    else:
        levels, rank = np.unique(-vals, return_inverse=True)
    rows = csr.entry_rows()[start:stop]
    if lo:
        rows = rows - lo
    order = np.argsort(rows * len(levels) + rank, kind="stable")
    sorted_vals = vals[order]
    sorted_w = csr.weights[start:stop][order]
    # Prefix sums of weights *within* each row, offset by the node's self-loop.
    flat_cs = np.cumsum(sorted_w)
    row_starts = csr.indptr[lo:hi] - start
    counts = np.diff(csr.indptr[lo:hi + 1])
    if counts.all():
        before_row = flat_cs[row_starts] - sorted_w[row_starts]
    else:
        nonempty = counts > 0
        row_starts = row_starts[nonempty]
        before_row = np.zeros(hi - lo, dtype=np.float64)
        before_row[nonempty] = flat_cs[row_starts] - sorted_w[row_starts]
    within_cs = (flat_cs - before_row[rows]) + loops[rows]
    seg_max = np.maximum.reduceat(np.minimum(within_cs, sorted_vals), row_starts)
    if len(seg_max) == len(loops):
        new = np.maximum(loops, seg_max)
    else:
        # A node with no neighbours keeps only its self-loop weight.
        new = loops.copy()
        new[nonempty] = np.maximum(loops[nonempty], seg_max)
    return round_values(grid, new)


def compact_round(csr: CSRAdjacency, current: np.ndarray, grid: LambdaGrid) -> np.ndarray:
    """One full round of Algorithm 2 over every node (single-range kernel call)."""
    return compact_round_range(csr, current, 0, csr.num_nodes, grid)


def compact_trajectory(csr: CSRAdjacency, rounds: int, *, lam: float = 0.0,
                       plan: Optional[ShardPlan] = None,
                       shard_map: Optional[Callable] = None,
                       prefix: Optional[np.ndarray] = None,
                       out=None,
                       warm: Optional["FrontierWarmStart"] = None) -> np.ndarray:
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
        on the very same previous-row vector.  The rows the file already
        publishes are its own warm start, even past a shorter ``prefix``.
    warm:
        Optional :class:`FrontierWarmStart`: rounds recompute only the dirty
        rows of a delta-derived view (see :func:`frontier_trajectory`) and
        stop before the first round ``t`` whose dirty set is too wide,
        returning the exact rows ``0..t-1`` for a caller to pass back as
        ``prefix``.  Rows already held (a ``prefix``, or rows ``out``
        published before) come back as they are, with no frontier round.
    """
    n = csr.num_nodes
    if rounds < 0:
        raise AlgorithmError(f"rounds must be non-negative, got {rounds}")
    if prefix is not None and (
            prefix.ndim != 2 or prefix.shape[1] != n or prefix.shape[0] < 1):
        raise AlgorithmError(
            f"trajectory prefix of shape {getattr(prefix, 'shape', None)} does "
            f"not match a {n}-node CSR view")
    grid = LambdaGrid(lam=lam)
    bounds = tuple(plan) if plan is not None else ((0, n),)
    if out is not None:
        start = min(out.ensure_prefix(prefix), rounds)
        current = out.row(start)
    else:
        trajectory = np.full((rounds + 1, n), np.inf, dtype=np.float64)
        start = 0 if prefix is None else min(prefix.shape[0] - 1, rounds)
        if prefix is not None:
            trajectory[:start + 1] = prefix[:start + 1]
        current = trajectory[start].copy()

    def rows_through(t: int) -> np.ndarray:
        return out.as_array(t) if out is not None else trajectory[:t + 1]

    dirty = None if warm is None else warm._begin(n, rounds, start)
    if warm is not None and dirty is None:
        return rows_through(start)
    # One tracer/context fetch per call; per-round work stays a None-check
    # when tracing is disabled.  Shard spans recorded from pool threads pass
    # the caller's context explicitly (thread-local stacks don't cross).
    tracer = obs_trace.active()
    parent = obs_trace.current_context() if tracer is not None else None
    for t in range(start + 1, rounds + 1):
        if dirty is not None:
            if dirty.size > warm.max_frontier_fraction * n:
                return rows_through(t - 1)
            warm.peak_frontier = max(warm.peak_frontier, int(dirty.size))
            warm.nodes_recomputed += int(dirty.size)
        round_unix = time.time() if tracer is not None else 0.0
        round_perf = time.perf_counter()
        if dirty is None:
            tasks = [(lo, hi, None) for lo, hi in bounds]
            new = np.empty(n, dtype=np.float64)
        else:  # each plan range's dirty rows, on their gathered sub-view
            pieces = np.split(dirty, np.searchsorted(
                dirty, [lo for lo, _ in bounds[1:]]))
            tasks = [(lo, hi, ids) for (lo, hi), ids in zip(bounds, pieces)
                     if ids.size]
            new = warm._parent_row(t, n)
        differs = []
        for (lo, hi, ids), chunk in zip(tasks, _round_chunks(
                csr, current, grid, tasks, shard_map, tracer, parent, t)):
            if ids is None:
                new[lo:hi] = chunk
            else:
                differs.append(ids[chunk != new[ids]])
                new[ids] = chunk
        round_seconds = time.perf_counter() - round_perf
        KERNEL_ROUND_SECONDS.observe(round_seconds)
        if tracer is not None:
            tracer.record_span(
                "kernel.round_range" if dirty is None
                else "kernel.frontier_round",
                start_unix=round_unix, duration=round_seconds, parent=parent,
                attrs={"round": t, "n": n, **(
                    {"shards": len(bounds)} if dirty is None
                    else {"dirty": int(dirty.size)})})
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
        if dirty is not None:
            dirty = warm._next_dirty(csr, differs)
        current = new
    if warm is not None:
        warm.used = True
    return out.as_array(rounds) if out is not None else trajectory


def _round_chunks(csr, current, grid, tasks, shard_map, tracer, parent,
                  t: int):
    """The kernel results of one round's ``tasks``, in order.

    A task ``(lo, hi, ids)`` is the rows ``lo..hi-1`` of a plan range, or
    only its sorted rows ``ids``, run on their gathered sub-view.  With a
    ``shard_map`` and more than one task, the tasks run on it, each
    recording a ``kernel.shard`` span when tracing.
    """
    def run(task):
        lo, hi, ids = task
        if ids is None:
            return compact_round_range(csr, current, lo, hi, grid)
        return compact_round_range(_gathered_sub_csr(csr, ids), current,
                                   0, len(ids), grid)

    def traced(task):
        shard_unix = time.time()
        shard_perf = time.perf_counter()
        chunk = run(task)
        tracer.record_span("kernel.shard", start_unix=shard_unix,
                           duration=time.perf_counter() - shard_perf,
                           parent=parent,
                           attrs={"lo": task[0], "hi": task[1], "round": t})
        return chunk

    if shard_map is None or len(tasks) < 2:
        return map(run, tasks)
    return shard_map(run if tracer is None else traced, tasks)


def check_frontier_fraction(value: float) -> float:
    """``max_frontier_fraction`` as a float; :class:`AlgorithmError` unless
    it lies in ``[0, 1]``."""
    if not 0.0 <= float(value) <= 1.0:
        raise AlgorithmError(
            f"max_frontier_fraction must be in [0, 1], got {value!r}")
    return float(value)


class FrontierWarmStart:
    """Warm start for a delta-derived graph: recompute only the dirty frontier.

    Carries what the frontier rounds of :func:`frontier_trajectory` need to
    re-solve a child graph against its parent's trajectory:

    * ``parent_trajectory`` — the parent's ``(P + 1, parent_nodes)``
      trajectory for the same λ.  A delta only appends nodes
      (:func:`repro.graph.delta.apply_delta`), so the parent's nodes are the
      child's first ``parent_nodes`` ids, in order;
    * ``changed`` — sorted int64 child ids whose update rule differs from the
      parent (delta edge endpoints, re-weighted/removed edge endpoints, new
      nodes) — the permanent seed of the frontier;
    * ``max_frontier_fraction`` — the bound on a round's dirty set as a
      fraction of ``n``: full rounds finish the trajectory from the first
      round past it.

    After the attempt the object reports what happened: ``used`` (frontier
    rounds produced the whole trajectory), ``peak_frontier`` and
    ``nodes_recomputed`` (their work; the rest of their rows were copied).
    """

    __slots__ = ("parent_trajectory", "changed", "max_frontier_fraction",
                 "used", "peak_frontier", "nodes_recomputed")

    def __init__(self, parent_trajectory: np.ndarray, changed: np.ndarray, *,
                 max_frontier_fraction: float = 0.25) -> None:
        self.parent_trajectory = np.asarray(parent_trajectory)
        self.changed = np.unique(np.asarray(changed, dtype=np.int64))
        self.max_frontier_fraction = check_frontier_fraction(max_frontier_fraction)
        self.used = False
        self.peak_frontier = 0
        self.nodes_recomputed = 0

    @property
    def parent_nodes(self) -> int:
        """The parent's node count (the width of its trajectory)."""
        return self.parent_trajectory.shape[1]

    def covers(self, rounds: int) -> bool:
        """Whether the parent's rows determine ``rounds`` child rounds: it
        computed at least one round and, if fewer than ``rounds``, reached
        its fixed point, so the rows past its last one repeat it."""
        ptraj = self.parent_trajectory
        P = ptraj.shape[0] - 1
        return P >= 1 and (P >= rounds or np.array_equal(ptraj[P], ptraj[P - 1]))

    def _begin(self, n: int, rounds: int, start: int) -> Optional[np.ndarray]:
        """The first round's dirty set (the changed ids) on an ``n``-node
        view, or None when the trajectory already holds ``start`` > 0 rounds
        or the parent's rows do not cover ``rounds``."""
        changed = self.changed
        if self.parent_nodes > n or changed.size and (
                changed[0] < 0 or changed[-1] >= n):
            raise AlgorithmError(f"the frontier warm start does not fit a "
                                 f"{n}-node CSR view")
        return changed if start == 0 and self.covers(rounds) else None

    def _parent_row(self, t: int, n: int) -> np.ndarray:
        """Round ``t``'s row before its dirty rows are recomputed: the
        parent's (its fixed point past its last row — f(x) = x, so the copy
        stays exact), and +inf for the nodes the delta added."""
        ptraj = self.parent_trajectory
        row = np.empty(n, dtype=np.float64)
        row[:self.parent_nodes] = ptraj[min(t, ptraj.shape[0] - 1)]
        row[self.parent_nodes:] = np.inf
        return row

    def _next_dirty(self, csr: CSRAdjacency, differs: list) -> np.ndarray:
        """``changed ∪ N(differs)``: the next round's dirty set, given the
        arrays of ids whose recomputed value differs from the parent's."""
        differs = np.concatenate([self.changed[:0], *differs])
        if not differs.size:
            return self.changed
        neighbours = csr.indices[_row_entries(csr.indptr, differs)[1]]
        return np.unique(np.concatenate((self.changed, neighbours)))


def _row_entries(indptr: np.ndarray, ids: np.ndarray):
    """``(sub_indptr, positions)``: the entry positions of the rows ``ids``,
    in order, and the indptr of those rows gathered on their own."""
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    sub_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=sub_indptr[1:])
    positions = np.repeat(starts - sub_indptr[:-1], counts) \
        + np.arange(int(sub_indptr[-1]), dtype=np.int64)
    return sub_indptr, positions


def _gathered_sub_csr(csr: CSRAdjacency, ids: np.ndarray) -> CSRAdjacency:
    """A CSR view of just the rows ``ids``, indices still in full node space
    (so it has no labels; only the round kernel reads it).

    Per-row adjacency order is preserved, so the stable tie resolution
    inside :func:`compact_round_range` is identical to a full-range call —
    the gathered rows run through the *same shared kernel* as every other
    engine path, with their own :meth:`~CSRAdjacency.entry_rows`.
    """
    sub_indptr, positions = _row_entries(csr.indptr, ids)
    return CSRAdjacency(indptr=sub_indptr, indices=csr.indices[positions],
                        weights=csr.weights[positions], loops=csr.loops[ids],
                        node_order=())


def frontier_trajectory(csr: CSRAdjacency, rounds: int, *, lam: float = 0.0,
                        warm: FrontierWarmStart,
                        plan: Optional[ShardPlan] = None,
                        shard_map: Optional[Callable] = None,
                        out=None) -> np.ndarray:
    """Incremental Algorithm 2 trajectory of a delta-derived graph: the
    round loop of :func:`compact_trajectory` with ``warm=``.

    A node's round-``t`` value depends only on its *neighbours'* round-``t-1``
    values, so a node whose adjacency is unchanged and whose neighbours all
    carry parent-identical values copies the parent's entry.  Round ``t``
    recomputes ``dirty_t = changed ∪ N(diff_{t-1})``, where ``diff_{t-1}``
    holds the nodes whose round-``t-1`` value differs from the parent's.
    Returns the full ``(rounds + 1, n)`` trajectory, or the exact rows
    ``0..t-1`` when round ``t``'s dirty set exceeds
    ``max_frontier_fraction·n`` (row 0 alone when the parent's rows do not
    cover ``rounds``), which the caller finishes with full rounds.  Each
    ``plan`` range recomputes its own dirty rows, on ``shard_map`` when
    given, and an ``out`` sink receives the rows, all as in
    :func:`compact_trajectory`.  Like any shard plan, copied-vs-recomputed
    equality is exact for integer/dyadic weights; other float weights carry
    the last-ulp caveat.
    """
    return compact_trajectory(csr, rounds, lam=lam, plan=plan,
                              shard_map=shard_map, out=out, warm=warm)


def threshold_round_range(csr: CSRAdjacency, alive: np.ndarray, threshold: float,
                          lo: int, hi: int) -> np.ndarray:
    """One round of Algorithm 1 (single-threshold elimination) for ``lo..hi-1``.

    ``alive`` is the full survival mask after the previous round; the return value
    is the new mask restricted to the range: a node stays alive iff it was alive
    and its weighted degree towards surviving neighbours (plus its self-loop) is
    at least ``threshold``.
    """
    start, stop = int(csr.indptr[lo]), int(csr.indptr[hi])
    rows = csr.entry_rows()[start:stop] - lo
    contrib = np.where(alive[csr.indices[start:stop]], csr.weights[start:stop], 0.0)
    deg = np.zeros(hi - lo, dtype=np.float64)
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
    rows = csr.entry_rows()[start:stop] - lo
    src = csr.indices[start:stop]
    same = leaders[src] == leaders[lo:hi][rows]
    contrib = np.where(alive[src] & same, csr.weights[start:stop], 0.0)
    deg = np.zeros(hi - lo, dtype=np.float64)
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
