"""Session-centric public API: one long-lived coordinator per graph.

The paper's three theorems all run the *same* compact elimination procedure
(Algorithm 2), and a production serving path rarely runs a graph once: repeated
requests with different budgets, λ-grids or problems hit the same graph over
and over.  :class:`Session` makes that the first-class shape — construct it
once per graph, then issue as many parametrised requests as you like:

>>> from repro import Session, load_dataset
>>> session = Session(load_dataset("caveman"))
>>> core = session.coreness(epsilon=0.5)
>>> orient = session.orientation(epsilon=0.5)      # reuses the trajectory
>>> generic = session.solve("coreness", rounds=8)  # problem-registry route

A session owns and amortises, per graph:

* the **CSR view** — built exactly once, shared by every array-engine request;
* the **Λ-grids** — memoised per distinct λ;
* the **surviving-number results** — cached per ``(T, λ, tie_break, track_kept)``;
* the **elimination trajectories** — kept per λ, so a request with a *larger*
  round budget resumes after the cached rounds instead of recomputing rounds
  ``1..T_old`` (and a *smaller* budget is served by slicing).  Resumed and
  sliced runs are bit-identical to cold runs because every round is a
  deterministic function of the previous row (pinned by the test-suite);
* the **problem results** — deduplicated per ``(problem, params)`` through
  :meth:`solve`.

Cached result objects are shared between identical requests — treat them as
read-only.  The caches grow with the number of distinct requests (that is the
amortisation trade); long-lived servers can bound the result caches with
``max_cached_results=`` (LRU eviction) or shed them with
:meth:`Session.clear_cache`.  With a persistent ``store=``
(:class:`~repro.store.ArtifactStore`) the expensive artifacts also survive
process restarts: trajectories are reloaded from disk and resumed
bit-identically.  :attr:`Session.stats` counts builds, hits, resumes, disk
traffic and the executed/reused round split, which is what the cache-reuse
tests and the warm-session timing test in ``tests/test_engine_bench.py``
observe.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rounding import LambdaGrid, grid_for_graph
from repro.core.rounds import resolve_round_budget
from repro.core.surviving import TIE_BREAK_RULES, SurvivingNumbers
from repro.engine.base import Engine, EngineLike, get_engine
from repro.engine.kernels import FrontierWarmStart, check_frontier_fraction
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency, csr_fingerprint, graph_to_csr
from repro.graph.delta import (GraphDelta, apply_delta as apply_graph_delta,
                               chain_fingerprint as delta_chain_fingerprint,
                               changed_labels)
from repro.graph.graph import Graph
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter_families, gauge_family, get_registry
from repro.problems import Problem, ProblemLike, get_problem
from repro.store import AppendTrajectory, ArtifactStore
from repro.utils.numeric import canonical_lam

#: Something the ``store=`` parameter accepts: a store instance or its root.
StoreLike = Union[ArtifactStore, str, Path]

#: Spill threshold: a store-backed session hands a trajectory engine the
#: store's ``.traj`` appender when the run's ``(T+1) × n`` float64 trajectory
#: reaches this many bytes (256 MiB), so its rounds go to disk as they are
#: computed.  Read when a run decides whether to spill.
SPILL_BYTES = 256 * 1024 * 1024

#: Always-on per-problem solve latency (process-wide default registry); one
#: ``observe`` per executed :meth:`Session.solve` (cache hits excluded).
SOLVE_SECONDS = get_registry().histogram(
    "repro_solve_latency_seconds",
    "Wall time of one executed Session.solve request",
    labelnames=("problem",))


@dataclass
class SessionStats:
    """Counters of what a :class:`Session` built, reused and executed."""

    csr_builds: int = 0         #: CSR views built (1 per session)
    grid_builds: int = 0        #: Λ-grids built (1 per distinct λ)
    cold_runs: int = 0          #: engine runs with no reusable trajectory
    result_hits: int = 0        #: exact ``(T, λ, tie_break, track_kept)`` cache hits
    trajectory_slices: int = 0  #: requests served entirely from a cached trajectory
    prefix_resumes: int = 0     #: runs resumed after a cached trajectory prefix
    problem_hits: int = 0       #: :meth:`Session.solve` request-cache hits
    rounds_executed: int = 0    #: elimination rounds actually computed
    rounds_reused: int = 0      #: elimination rounds served from caches
                                #: (in-memory trajectories or the artifact store)
    disk_hits: int = 0          #: requests (partially) served from the artifact store
    disk_misses: int = 0        #: store probes that found nothing usable
    disk_writes: int = 0        #: artifacts persisted to the store
    evictions: int = 0          #: cached results dropped by the LRU bound
    incremental_runs: int = 0   #: runs served by the frontier-restricted path
    incremental_fallbacks: int = 0  #: frontier attempts finished by full rounds
    frontier_nodes_recomputed: int = 0  #: node-rounds recomputed incrementally
    frontier_peak_nodes: int = 0  #: widest dirty frontier across incremental runs

    #: Fields that record a peak, not a count: they aggregate by max and
    #: export as gauges.
    PEAKS: ClassVar[Tuple[str, ...]] = ("frontier_peak_nodes",)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the counters."""
        return dict(vars(self))

    @classmethod
    def merge(cls, totals: Dict[str, int], counters: Dict[str, int]) -> None:
        """Fold one session's ``to_dict()`` into ``totals`` in place: counts
        add up, :attr:`PEAKS` take the max."""
        for key, value in counters.items():
            held = totals.get(key, 0)
            totals[key] = max(held, value) if key in cls.PEAKS else held + value

    @classmethod
    def families(cls, totals: Dict[str, int], prefix: str = "repro_session",
                 help_prefix: str = "Session counter") -> List[tuple]:
        """Counters (one session's ``to_dict()`` or :meth:`merge`\\ d
        totals) as metric families for a
        :class:`repro.obs.metrics.MetricsRegistry` collector:
        ``<prefix>_<name>_total`` counters, and a ``<prefix>_<name>`` gauge
        per :attr:`PEAKS` field."""
        counts = {k: v for k, v in totals.items() if k not in cls.PEAKS}
        return counter_families(prefix, counts, help_prefix) + [
            gauge_family(f"{prefix}_{key}", f"{help_prefix}: {key} (peak)",
                         totals[key])
            for key in cls.PEAKS if key in totals]


@dataclass(frozen=True)
class DeltaLink:
    """What makes a session a delta version of another (see
    :meth:`Session.apply_delta`): the parent session, held weakly, with its
    node count and, when a store is bound, its content fingerprint (to read
    its stored trajectory once it is collected); the delta that derived the
    graph from it; the chained lineage fingerprint; and the fallback policy
    of the frontier-restricted re-solve.

    :meth:`Session.release_link` hands it out and
    :meth:`Session.restore_link` puts it on a new session over the same
    graph, which then is the same version: same lineage address, and the
    same frontier warm start while the parent or its stored trajectory is
    there.
    """

    parent: "weakref.ref[Session]"
    parent_nodes: int
    parent_fingerprint: Optional[str]
    delta: GraphDelta
    chain_fingerprint: str
    max_frontier_fraction: float


class Session:
    """Stateful entry point for repeated requests against one graph.

    Parameters
    ----------
    graph:
        The input graph (treated as immutable while the session holds it).
    engine:
        Anything :func:`repro.engine.get_engine` resolves (name, spec string or
        instance); extra keyword ``engine_options`` are handed to the factory.
    lam:
        The session's default Λ-grid parameter, used by :meth:`surviving` and
        :meth:`coreness` when a request does not override it.  The CSR view and
        Λ-grids are built on first use and owned for the session's lifetime, so
        a session that only ever runs the densest pipeline (or a faithful
        engine, which replays rounds per node) never pays for them.
    store:
        Optional persistent artifact store (an
        :class:`~repro.store.ArtifactStore` or its root directory).  The
        session then consults the store before computing — a stored
        elimination trajectory for this graph warm-starts or fully serves a
        request, bit-identically to the in-process warm path, as a read-only
        map of the store's append-only ``.traj`` file — and persists what it
        computes (a trajectory by appending only the rounds that file lacks),
        so a freshly constructed session on a known graph resumes from disk.
        Disk traffic is counted in :attr:`stats` (``disk_hits`` /
        ``disk_misses`` / ``disk_writes``).  Opening a store builds the CSR
        view once even for the faithful engine (the content fingerprint
        hashes it).  A trajectory-engine run whose trajectory reaches
        :data:`SPILL_BYTES` — a cold run, a prefix resume or a delta child's
        frontier re-solve — appends its rounds to the store's ``.traj`` file
        as it goes (bit-identical results, and its trajectory maps that
        file).  The engine holds no storage of its own, so one engine
        instance can serve sessions on any number of stores.
    max_cached_results:
        Optional bound on the in-memory result caches (surviving-number and
        problem results each keep at most this many entries, evicting the
        least recently used).  ``None`` (the default) keeps every distinct
        request for the session's lifetime.
    """

    def __init__(self, graph: Graph, *, engine: EngineLike = "vectorized",
                 lam: float = 0.0, store: Optional[StoreLike] = None,
                 max_cached_results: Optional[int] = None,
                 **engine_options) -> None:
        if graph.num_nodes == 0:
            raise AlgorithmError("a Session needs a non-empty graph")
        if max_cached_results is not None and max_cached_results < 1:
            raise AlgorithmError(
                f"max_cached_results must be >= 1, got {max_cached_results}")
        self.graph = graph
        self.engine: Engine = get_engine(engine, **engine_options)
        # Canonical λ from the very first entry point: -0.0 collapses to 0.0
        # (one cache key in memory AND on disk) and non-finite λ is rejected.
        self._default_lam = canonical_lam(lam)
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(store) if isinstance(store, (str, Path)) else store)
        self.max_cached_results = max_cached_results
        self.stats = SessionStats()
        self._csr: Optional[CSRAdjacency] = None
        self._fingerprint: Optional[str] = None
        self._grids: Dict[float, LambdaGrid] = {}
        self._results: "OrderedDict[Tuple[int, float, str, bool], SurvivingNumbers]" \
            = OrderedDict()
        self._trajectories: Dict[float, np.ndarray] = {}
        self._problem_results: "OrderedDict[tuple, object]" = OrderedDict()
        #: rounds known to be on disk per λ (-1: known empty, absent: unknown).
        self._disk_rounds: Dict[float, int] = {}
        # Incremental state (set by apply_delta on the child session, None
        # on root sessions): the link to the parent version, plus a strong
        # pin on the parent until the first solve.
        self._link: Optional[DeltaLink] = None
        self._parent_pin: Optional["Session"] = None
        self._array_engine = isinstance(self.engine, TrajectoryEngine)

    @property
    def default_lam(self) -> float:
        """The session's default λ (read-only: the request caches key on it,
        so mutating it mid-session would serve results computed at the old λ —
        open a new :class:`Session` for a different default)."""
        return self._default_lam

    @property
    def supports_trajectories(self) -> bool:
        """Whether the engine produces per-round trajectories.

        The single capability check (the engine is a
        :class:`~repro.engine.vectorized.TrajectoryEngine`): used internally
        to decide stored-trajectory reuse and the frontier warm start, and by
        analysis helpers to decide whether a session can serve a trajectory
        at all (the faithful simulator cannot).
        """
        return self._array_engine

    # ---------------------------------------------------------------- artifacts
    @property
    def csr(self) -> CSRAdjacency:
        """The session's CSR view of the graph (built on first use, once).

        A session minted by :meth:`apply_delta` whose parent is live and
        already holds its view splices this one from the parent's arrays,
        re-reading only the rows of the nodes the delta touched (see
        :func:`~repro.graph.csr.graph_to_csr`); the view, and so the
        fingerprint, equals a full build's.  A parent without a view is not
        made to build one, and a collected parent has none: the child then
        builds in full.
        """
        if self._csr is None:
            self.stats.csr_builds += 1
            parent = self.parent
            if parent is None:
                self._csr = graph_to_csr(self.graph)
            else:
                self._csr = graph_to_csr(
                    self.graph, parent=parent._csr,
                    touched=changed_labels(self._link.delta))
        return self._csr

    def grid(self, lam: Optional[float] = None) -> LambdaGrid:
        """The (memoised) Λ-grid for ``lam`` (default: the session's λ)."""
        lam = self.default_lam if lam is None else canonical_lam(lam)
        hit = self._grids.get(lam)
        if hit is None:
            self.stats.grid_builds += 1
            hit = self._grids[lam] = grid_for_graph(self.graph, lam, csr=self.csr)
        return hit

    @property
    def fingerprint(self) -> str:
        """The content fingerprint addressing this graph in an artifact store.

        Computed (and the CSR view built) on first use, then owned for the
        session's lifetime — the graph is immutable while the session holds it.
        """
        if self._fingerprint is None:
            self._fingerprint = csr_fingerprint(self.csr)
        return self._fingerprint

    @property
    def chain_fingerprint(self) -> str:
        """The lineage address of this session's graph version.

        For a delta-derived session this is the chained fingerprint
        ``H(parent_chain_fp, delta)`` — cheap to mint (no re-hash of the
        mutated graph) and unique per *path* of mutations.  For a root
        session it is simply the content :attr:`fingerprint`, so every
        session has a lineage address and chains can start anywhere.
        """
        if self._link is not None:
            return self._link.chain_fingerprint
        return self.fingerprint

    @property
    def parent(self) -> Optional["Session"]:
        """The session this one was derived from via :meth:`apply_delta`,
        while it is live; None for root sessions and once it was collected.

        A child pins its parent only until the child's first solve (the
        frontier re-solve reads the parent's trajectory then); after that
        the link is weak, so a chain of versions keeps alive only the
        versions its callers still hold.
        """
        return None if self._link is None else self._link.parent()

    def release_link(self) -> Optional[DeltaLink]:
        """Turn the link to the parent weak and return it (None for a root
        session).

        The first solve turns the link weak on its own.  A
        :class:`~repro.engine.batch.BatchRunner` calls this when it evicts
        the session, so an evicted version that never solved stops pinning
        its chain, and keeps the link to :meth:`restore_link` on the session
        it re-opens for the same graph.
        """
        self._parent_pin = None
        return self._link

    def restore_link(self, link: DeltaLink) -> None:
        """Make this fresh session the delta version ``link`` describes (a
        :meth:`release_link` of an earlier session over the same graph): it
        answers the same :attr:`chain_fingerprint` and seeds its frontier as
        that session would have, holding the parent weakly."""
        self._link = link

    @property
    def delta(self) -> Optional[GraphDelta]:
        """The delta that derived this session's graph (None for roots)."""
        return None if self._link is None else self._link.delta

    # -------------------------------------------------------------- incremental
    def apply_delta(self, delta: GraphDelta, *,
                    max_frontier_fraction: float = 0.25) -> "Session":
        """A child session over the mutated graph, solving incrementally.

        Applies ``delta`` to this session's graph (which is left untouched)
        and returns a new :class:`Session` that knows its parentage: its
        first solve per λ recomputes only the dirty-node frontier seeded by
        the delta's endpoints, copying the parent's trajectory rows for
        untouched nodes — bit-identical to a cold solve of the mutated graph
        (the contract pinned by ``tests/test_session_equivalence.py``).  When
        a round's frontier exceeds ``max_frontier_fraction * n``, the child
        finishes with full rounds from the first overflowing round, after
        the exact rows the frontier computed (a parent with no usable
        trajectory means a cold solve); either way the child persists its
        own artifacts under its content fingerprint, so later requests and
        restarts never depend on the parent again.

        The child holds this session strongly until its own first solve and
        weakly after that (see :attr:`parent`), so a caller that keeps only
        the latest versions of a chain lets the older ones be collected.  A
        first solve at a λ the child has not solved yet then seeds its
        frontier from the parent while it is live, else from the parent's
        stored trajectory when a store is bound, else solves cold; every
        path answers bit-identically.

        With a bound store, the lineage edge
        ``chain_fingerprint -> (parent, delta)`` is recorded via
        :meth:`repro.store.ArtifactStore.record_lineage`, making the chain
        reconstructable (and the delta re-playable) after a restart.

        Chains compose: ``session.apply_delta(d1).apply_delta(d2)`` walks two
        frontier-restricted solves, each against its immediate parent; the
        unnamed middle version lives until the last one's first solve.
        """
        if not isinstance(delta, GraphDelta):
            raise AlgorithmError(
                f"apply_delta expects a GraphDelta, got {type(delta).__name__}")
        fraction = check_frontier_fraction(max_frontier_fraction)
        child_graph = apply_graph_delta(self.graph, delta)
        child = Session(child_graph, engine=self.engine, lam=self._default_lam,
                        store=self.store,
                        max_cached_results=self.max_cached_results)
        child._link = DeltaLink(
            parent=weakref.ref(self), parent_nodes=self.graph.num_nodes,
            parent_fingerprint=(None if self.store is None
                                else self.fingerprint),
            delta=delta,
            chain_fingerprint=delta_chain_fingerprint(self.chain_fingerprint,
                                                      delta),
            max_frontier_fraction=fraction)
        child._parent_pin = self
        if self.store is not None:
            self.store.record_lineage(
                child.chain_fingerprint, self.chain_fingerprint, delta,
                content_fingerprint=child.fingerprint,
                parent_content_fingerprint=self.fingerprint)
        return child

    def _frontier_warm_start(self, lam: float, T: int):
        """A :class:`~repro.engine.kernels.FrontierWarmStart` for this request,
        or None when the incremental path cannot apply.

        Requires a parent trajectory at this λ that covers ``T`` rounds
        (:meth:`~repro.engine.kernels.FrontierWarmStart.covers`) — pulled
        from the live parent's memory cache or its artifact store, or, once
        the parent was collected, straight from the store under the parent's
        content fingerprint.  The engine (shared with the parent) must be a
        :class:`~repro.engine.vectorized.TrajectoryEngine` (they all share
        the frontier branch in ``run``); anything else solves cold.
        """
        link = self._link
        if link is None or not self._array_engine:
            return None
        parent = link.parent()
        if parent is not None:
            ptraj = parent._trajectories.get(lam)
            if parent.store is not None:
                ptraj = parent._adopt_stored_trajectory(lam, T, ptraj)
        elif link.parent_fingerprint is not None and self.store is not None:
            ptraj = self.store.load_trajectory(link.parent_fingerprint, lam,
                                               num_nodes=link.parent_nodes)
            if ptraj is None:
                self.stats.disk_misses += 1
            else:
                self.stats.disk_hits += 1
        else:
            return None
        if ptraj is None:
            return None
        labels = changed_labels(link.delta)
        index = self.csr.label_index()
        changed = np.fromiter(
            labels if index is None else map(index.__getitem__, labels),
            dtype=np.int64, count=len(labels))
        warm = FrontierWarmStart(
            ptraj, changed, max_frontier_fraction=link.max_frontier_fraction)
        return warm if warm.covers(T) else None

    def _cache_put(self, cache: OrderedDict, key, value) -> None:
        """Insert into an LRU-bounded result cache, evicting the oldest."""
        cache[key] = value
        cache.move_to_end(key)
        if self.max_cached_results is not None:
            while len(cache) > self.max_cached_results:
                cache.popitem(last=False)
                self.stats.evictions += 1

    def _cache_get(self, cache: OrderedDict, key):
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
        return hit

    def clear_cache(self) -> None:
        """Drop every cached result and trajectory, keeping the CSR view and grids.

        The caches grow with the number of distinct requests for the session's
        lifetime (an explicit trade: the session is the amortisation layer);
        long-running servers can call this to shed memory without losing the
        per-graph artifacts the next request needs.  Counters in :attr:`stats`
        are not reset.
        """
        self._results.clear()
        self._trajectories.clear()
        self._problem_results.clear()

    def describe(self) -> str:
        """One-line summary of the session (graph size, engine, caches)."""
        return (f"n={self.graph.num_nodes} m={self.graph.num_edges} "
                f"engine={self.engine.name} lam={self.default_lam:g} "
                f"cached_results={len(self._results)}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Session {self.describe()}>"

    # ---------------------------------------------------------------- surviving
    def surviving(self, *, epsilon: Optional[float] = None,
                  gamma: Optional[float] = None, rounds: Optional[int] = None,
                  lam: Optional[float] = None, tie_break: str = "history",
                  track_kept: bool = False) -> SurvivingNumbers:
        """Run (or reuse) the compact elimination procedure for one request.

        Exactly one of ``epsilon`` (γ = 2(1+ε)), ``gamma`` (γ > 2) or ``rounds``
        must be given.  Results are cached per ``(T, λ, tie_break, track_kept)``;
        on a miss, the cached trajectory for λ (if any) is handed to the engine
        as a warm start, so only rounds beyond the cached budget are computed.
        Returned objects are shared between identical requests — read-only.
        """
        T = resolve_round_budget(self.graph.num_nodes, epsilon, gamma, rounds)
        if tie_break not in TIE_BREAK_RULES:
            raise AlgorithmError(f"unknown tie_break rule {tie_break!r}; "
                                 f"expected one of {TIE_BREAK_RULES}")
        lam = self.default_lam if lam is None else canonical_lam(lam)
        key = (T, lam, tie_break, bool(track_kept))
        hit = self._cache_get(self._results, key)
        if hit is not None:
            self.stats.result_hits += 1
            return hit
        with obs_trace.span("session.surviving", rounds=T, lam=lam,
                            engine=self.engine.name):
            frontier = None
            prefix = self._trajectories.get(lam)
            if self.store is not None and self._array_engine:
                prefix = self._adopt_stored_trajectory(lam, T, prefix)
            if prefix is not None and prefix.shape[0] > T:
                # Fully covered by the cached trajectory: answer from a view
                # without invoking the engine (which would allocate and copy
                # the whole prefix just to be discarded); kept sets, when
                # requested, are recovered from the sliced rows exactly as
                # the engine would.
                result = self._sliced_result(T, lam, prefix,
                                             tie_break=tie_break,
                                             track_kept=track_kept)
                reused = T
            else:
                if self.store is not None and not self._array_engine:
                    loaded = self._load_stored_result(T, lam,
                                                      tie_break=tie_break,
                                                      track_kept=track_kept)
                    if loaded is not None:
                        self._cache_put(self._results, key, loaded)
                        self._parent_pin = None
                        return loaded
                # The documented Engine.run hints: trajectory engines get
                # the session's csr/grid and, when the run spills, the
                # store's .traj appender as their sink (the faithful
                # simulator replays rounds per node and takes neither).
                # Every engine gets the cached prefix as its warm start.  A
                # delta-derived session with no trajectory of its own yet
                # hands over a frontier warm start against the parent's
                # trajectory instead; the engine finishes with full rounds
                # by itself when the frontier widens past the policy bound.
                # Rounds the sink already publishes are a prefix too.
                hints = {}
                if self._array_engine:
                    hints = {"csr": self.csr, "grid": self.grid(lam),
                             "out": self._spill_sink(lam, T)}
                sink = hints.get("out")
                try:
                    reused = -1 if prefix is None else prefix.shape[0] - 1
                    if sink is not None and sink.rounds > max(reused, 0):
                        reused = sink.rounds
                    warm_start = prefix
                    if reused < 0:
                        warm_start = frontier = self._frontier_warm_start(lam, T)
                    result = self.engine.run(self.graph, T, lam=lam,
                                             tie_break=tie_break,
                                             track_kept=track_kept,
                                             warm_start=warm_start, **hints)
                finally:
                    if sink is not None:
                        sink.close()
            self._account(T, reused, frontier=frontier)
            if result.trajectory is not None and (
                    prefix is None or result.trajectory.shape[0] > prefix.shape[0]):
                self._trajectories[lam] = result.trajectory
                # Earlier cached results for this λ hold bit-identical
                # prefixes of the new longest array (round determinism);
                # rebind them to views so a budget sweep — ascending or
                # descending — retains one O(T_max * n) trajectory, not
                # O(T_max^2 * n) floats.
                for (cached_T, cached_lam, _, _), cached in self._results.items():
                    if cached_lam == lam and cached.trajectory is not None:
                        cached.trajectory = result.trajectory[:cached_T + 1]
            self._persist(lam, result, tie_break=tie_break,
                          track_kept=track_kept)
            self._cache_put(self._results, key, result)
            self._parent_pin = None
            return result

    # ------------------------------------------------------------- persistence
    def _spill_sink(self, lam: float, T: int) -> Optional[AppendTrajectory]:
        """The store's ``.traj`` appender for a ``T``-round run at ``λ``, or
        None to keep the trajectory in RAM (no store, or a trajectory below
        :data:`SPILL_BYTES`).  The engine appends every round it computes to
        the very file :meth:`_persist` extends, so persisting the run then
        appends nothing."""
        n = self.csr.num_nodes
        if self.store is None or (T + 1) * n * 8 < SPILL_BYTES:
            return None
        return AppendTrajectory.open(self.store.root, self.fingerprint, lam,
                                     num_nodes=n)

    def _adopt_stored_trajectory(self, lam: float, T: int,
                                 prefix: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """The best warm-start prefix for ``(λ, T)``: memory, or disk if longer.

        Probes the store only when the in-memory trajectory cannot fully serve
        the request and the disk is not already known to hold fewer rounds, so
        warm in-process requests never pay I/O (and never count disk misses).
        A usable stored trajectory is adopted into the in-memory cache — from
        then on it slices and resumes exactly like a locally computed one.
        """
        mem_rounds = -1 if prefix is None else prefix.shape[0] - 1
        if mem_rounds >= T:
            return prefix
        known = self._disk_rounds.get(lam)
        if known is not None and known <= mem_rounds:
            return prefix
        stored = self.store.load_trajectory(self.fingerprint, lam,
                                            num_nodes=self.csr.num_nodes)
        if stored is None:
            self._disk_rounds[lam] = -1
            self.stats.disk_misses += 1
            return prefix
        self._disk_rounds[lam] = stored.shape[0] - 1
        if stored.shape[0] - 1 <= mem_rounds:
            self.stats.disk_misses += 1
            return prefix
        self.stats.disk_hits += 1
        self._trajectories[lam] = stored
        return stored

    def _load_stored_result(self, T: int, lam: float, *, tie_break: str,
                            track_kept: bool) -> Optional[SurvivingNumbers]:
        """A stored full result for a non-trajectory engine, or None.

        The reloaded result is value- and kept-identical to the computed one
        (the simulator's per-round message statistics are not persisted); its
        ``T`` rounds count as reused, mirroring the trajectory reuse split.
        """
        loaded = self.store.load_result(self.fingerprint, rounds=T, lam=lam,
                                        tie_break=tie_break, track_kept=track_kept,
                                        labels=self.csr.labels(),
                                        grid=self.grid(lam))
        if loaded is None:
            self.stats.disk_misses += 1
            return None
        self.stats.disk_hits += 1
        self.stats.rounds_reused += T
        return loaded

    def _persist(self, lam: float, result: SurvivingNumbers, *, tie_break: str,
                 track_kept: bool) -> None:
        """Persist what this request added: the longest trajectory, or — for
        engines without trajectories — the full result.

        The store appends only the rows its ``.traj`` file lacks, so the
        trajectory is saved whenever it is longer than the rounds this session
        knows are on disk (``_disk_rounds``, set by the store probe before
        every engine run): a run that spilled into that file appends
        nothing, and an append never shortens a longer file.
        """
        if self.store is None:
            return
        if self._array_engine:
            best = self._trajectories.get(lam)
            rounds = -1 if best is None else best.shape[0] - 1
            if rounds > self._disk_rounds.get(lam, -1):
                self.store.save_trajectory(self.fingerprint, lam, best,
                                           labels=self.csr.labels())
                self._disk_rounds[lam] = rounds
                self.stats.disk_writes += 1
        elif result.trajectory is None:
            self.store.save_result(self.fingerprint, result, lam=lam,
                                   tie_break=tie_break, track_kept=track_kept,
                                   labels=self.csr.labels())
            self.stats.disk_writes += 1

    def _sliced_result(self, T: int, lam: float, prefix: np.ndarray, *,
                       tie_break: str, track_kept: bool) -> SurvivingNumbers:
        """A ``SurvivingNumbers`` read straight off the cached trajectory.

        Delegates to the engines' shared assembly so slice-served results stay
        field-for-field identical to engine-produced ones by construction.
        """
        return TrajectoryEngine.assemble(self.csr, prefix[:T + 1], T,
                                         self.grid(lam), tie_break=tie_break,
                                         track_kept=track_kept)

    def _account(self, T: int, reused: int, *, frontier=None) -> None:
        # ``reused`` counts the rounds the request did not compute: those of
        # the cached trajectory it was sliced from or resumed after, or that
        # the spill sink already published; -1 when the engine ran every
        # round itself.  ``frontier`` is the FrontierWarmStart of an
        # incremental attempt; it records whether its rounds made the whole
        # trajectory or full rounds finished it (counted as a fallback and a
        # cold run).
        if frontier is not None and frontier.used:
            self.stats.incremental_runs += 1
            self.stats.frontier_nodes_recomputed += frontier.nodes_recomputed
            self.stats.frontier_peak_nodes = max(
                self.stats.frontier_peak_nodes, frontier.peak_frontier)
            self.stats.rounds_executed += T
            return
        if reused < 0:
            if frontier is not None:
                self.stats.incremental_fallbacks += 1
            self.stats.cold_runs += 1
            self.stats.rounds_executed += T
            return
        reused = min(reused, T)
        self.stats.rounds_reused += reused
        self.stats.rounds_executed += T - reused
        if reused >= T:
            self.stats.trajectory_slices += 1
        else:
            self.stats.prefix_resumes += 1

    # ----------------------------------------------------------------- problems
    def solve(self, problem: ProblemLike, **params):
        """Solve a registered problem against this session.

        ``problem`` is anything :func:`repro.problems.get_problem` resolves
        (``"coreness"``, ``"orientation"``, ``"densest"``, an alias, or a
        :class:`~repro.problems.Problem` instance).  Identical requests return
        the *same* cached result object.
        """
        prob, params, key = self.resolve_request(problem, params)
        if key is not None:
            hit = self._cache_get(self._problem_results, key)
            if hit is not None:
                self.stats.problem_hits += 1
                return hit
        start = time.perf_counter()
        with obs_trace.span("session.solve", problem=prob.name,
                            n=self.graph.num_nodes):
            result = prob.solve(self, **params)
        SOLVE_SECONDS.observe(time.perf_counter() - start, problem=prob.name)
        self._parent_pin = None
        if key is not None:
            self._cache_put(self._problem_results, key, result)
        return result

    def resolve_request(self, problem: ProblemLike,
                        params: dict) -> Tuple[Problem, dict, Optional[tuple]]:
        """``(problem, params, key)`` of one :meth:`solve` request.

        The resolved :class:`~repro.problems.Problem`; the params with λ
        canonicalised and an explicit λ at the session default collapsed
        onto the omitted spelling; and the request key, None when the
        params are unhashable.  The one place a request's identity is
        computed: :meth:`solve` caches results on the key, and
        :class:`repro.serve.AsyncSession` coalesces in-flight submissions on
        it.  An unknown problem or a non-finite λ raises here, before any
        work runs.
        """
        prob = get_problem(problem)
        # Canonical λ: the same spelling in the request cache, the surviving
        # cache and the store.
        if params.get("lam") is not None:
            params = {**params, "lam": canonical_lam(params["lam"])}
        # An explicit lam at the session default is the same request as an
        # omitted one (surviving() resolves None to the default).
        if params.get("lam") == self._default_lam:
            params = {**params, "lam": None}
        # The problem's own Problem.request_key strips default-valued params.
        base = prob.request_key(params, lineage=(
            None if self._link is None else self._link.chain_fingerprint))
        if base is None:
            return prob, params, None
        # Name-resolved problems get a fresh stateless instance per request, so
        # they dedup by class; the class token also keeps a re-registered
        # (shadowed) implementation from serving the old one's cached results.
        # A caller-supplied instance may carry its own configuration, so it
        # dedups per instance — keyed on the object itself, which also keeps
        # it alive (an id() would be reusable after collection).
        return prob, params, (base, prob if isinstance(problem, Problem)
                              else type(prob))

    def coreness(self, *, epsilon: Optional[float] = None,
                 gamma: Optional[float] = None, rounds: Optional[int] = None,
                 lam: Optional[float] = None):
        """Theorem I.1 — :class:`~repro.core.api.CorenessResult` for one budget.

        ``lam`` defaults to the session's λ; see :meth:`surviving` for the
        caching semantics.
        """
        return self.solve("coreness", epsilon=epsilon, gamma=gamma, rounds=rounds,
                          lam=lam)

    def orientation(self, *, epsilon: Optional[float] = None,
                    gamma: Optional[float] = None, rounds: Optional[int] = None,
                    tie_break: str = "history"):
        """Theorem I.2 — :class:`~repro.core.api.OrientationResult` for one budget.

        Always runs with ``Λ = R`` (Lemma III.11), regardless of the session's
        default λ; shares the λ=0 trajectory with coreness requests.
        """
        return self.solve("orientation", epsilon=epsilon, gamma=gamma,
                          rounds=rounds, tie_break=tie_break)

    def densest(self, *, epsilon: Optional[float] = None,
                gamma: Optional[float] = None, rounds: Optional[int] = None,
                acceptance_factor: Optional[float] = None,
                message_accounting: bool = True,
                engine: Optional[str] = None):
        """Theorem I.3 — :class:`~repro.core.densest.WeakDensestResult`.

        Runs the faithful 4-phase pipeline (message accounting included);
        repeated identical requests are served from the request cache.  Pass
        ``message_accounting=False`` to serve Phase 1 from the session's
        cached λ=0 elimination trajectory (shared with coreness / orientation
        requests) instead of re-simulating it — the Phase-1 message statistics
        are skipped, and the reported subsets are unchanged for
        integer/dyadic edge weights (arbitrary float weights carry the usual
        last-ulp caveat of :mod:`repro.engine.kernels`).

        Pass ``engine="array"`` to run phases 2-4 on the batched CSR kernels
        of :mod:`repro.engine.densest_kernels` as well — the whole pipeline
        then executes at array speed over the session's cached CSR view and
        λ=0 trajectory, with the same bit-identity contract and no message
        accounting (see :class:`repro.problems.DensestProblem`).
        """
        return self.solve("densest", epsilon=epsilon, gamma=gamma, rounds=rounds,
                          acceptance_factor=acceptance_factor,
                          message_accounting=message_accounting,
                          engine=engine)
