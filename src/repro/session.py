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
tests and ``scripts/bench_session.py`` observe.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.rounding import LambdaGrid, grid_for_graph
from repro.core.rounds import resolve_round_budget
from repro.core.surviving import TIE_BREAK_RULES, SurvivingNumbers
from repro.engine.base import Engine, EngineLike, get_engine
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency, csr_fingerprint, graph_to_csr
from repro.graph.delta import (GraphDelta, apply_delta as apply_graph_delta,
                               chain_fingerprint as delta_chain_fingerprint,
                               changed_labels)
from repro.graph.graph import Graph
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter_families, get_registry
from repro.problems import Problem, ProblemLike, get_problem
from repro.store import ArtifactStore
from repro.utils.numeric import canonical_lam

#: Something the ``store=`` parameter accepts: a store instance or its root.
StoreLike = Union[ArtifactStore, str, Path]

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
    incremental_fallbacks: int = 0  #: frontier attempts that fell back cold
    frontier_nodes_recomputed: int = 0  #: node-rounds recomputed incrementally
    frontier_peak_nodes: int = 0  #: widest dirty frontier across incremental runs

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the counters."""
        return dict(vars(self))

    def metric_families(self, prefix: str = "repro_session") -> List[tuple]:
        """These counters as metric families (``<prefix>_<name>_total``).

        The adapter that registers session counters into a
        :class:`repro.obs.metrics.MetricsRegistry` (via
        ``register_collector``) instead of being hand-merged into a JSON
        document; works on aggregated totals too via
        :func:`repro.obs.metrics.counter_families`.
        """
        return counter_families(prefix, self.to_dict(), "Session counter")


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
        request, bit-identically to the in-process warm path — and persists
        what it computes, so a freshly constructed session on a known graph
        resumes from disk.  Disk traffic is counted in :attr:`stats`
        (``disk_hits`` / ``disk_misses`` / ``disk_writes``).  Opening a store
        builds the CSR view once even for the faithful engine (the content
        fingerprint hashes it).  An engine that supports memory-mapped
        storage (the sharded engine) is additionally bound to the store root:
        graphs whose edge arrays exceed its spill threshold — or any graph
        under ``storage="mmap"`` — execute over arrays mapped from
        ``<store>/<fingerprint>/csr/`` instead of RAM (out-of-core mode,
        bit-identical results).
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
        if self.store is not None and getattr(self.engine, "supports_mmap", False):
            # Out-of-core wiring: an engine that can run over memory-mapped
            # CSR arrays spills into the store's per-fingerprint layout when
            # the graph outgrows its auto-spill threshold (or always, for
            # storage="mmap").  An explicitly configured storage_dir wins.
            self.engine.bind_storage(self.store.root)
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
        # Incremental state (set by apply_delta on the child session): the
        # parent session, the delta that derived this graph from it, the
        # chained lineage fingerprint, and the fallback policy for the
        # frontier-restricted re-solve.  All None/default on root sessions.
        self._parent: Optional["Session"] = None
        self._delta: Optional[GraphDelta] = None
        self._chain_fingerprint: Optional[str] = None
        self._max_frontier_fraction: float = 0.25
        self._frontier_seed: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._array_engine = callable(getattr(self.engine, "trajectory", None))
        # Hints (csr / grid / warm_start) go to any engine whose run()
        # signature declares them — the documented contract — but csr/grid are
        # only *built* for engines that consume them (Engine.consumes_artifacts;
        # the faithful simulator opts out, so it costs nothing).
        run_params = inspect.signature(self.engine.run).parameters
        var_kw = any(p.kind is inspect.Parameter.VAR_KEYWORD
                     for p in run_params.values())
        self._run_hints = {hint for hint in ("csr", "grid", "warm_start")
                           if var_kw or hint in run_params}
        if not getattr(self.engine, "consumes_artifacts", True):
            self._run_hints -= {"csr", "grid"}

    @property
    def default_lam(self) -> float:
        """The session's default λ (read-only: the request caches key on it,
        so mutating it mid-session would serve results computed at the old λ —
        open a new :class:`Session` for a different default)."""
        return self._default_lam

    @property
    def supports_trajectories(self) -> bool:
        """Whether the engine produces per-round trajectories.

        The single capability probe: used internally to decide artifact/hint
        passing, and by analysis helpers to decide whether a session can serve
        a trajectory at all (the faithful simulator cannot).
        """
        return self._array_engine

    # ---------------------------------------------------------------- artifacts
    @property
    def csr(self) -> CSRAdjacency:
        """The session's CSR view of the graph (built on first use, exactly once)."""
        if self._csr is None:
            self.stats.csr_builds += 1
            self._csr = graph_to_csr(self.graph)
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
        if self._chain_fingerprint is not None:
            return self._chain_fingerprint
        return self.fingerprint

    @property
    def parent(self) -> Optional["Session"]:
        """The session this one was derived from via :meth:`apply_delta`
        (None for root sessions)."""
        return self._parent

    @property
    def delta(self) -> Optional[GraphDelta]:
        """The delta that derived this session's graph (None for roots)."""
        return self._delta

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
        a round's frontier exceeds ``max_frontier_fraction * n`` (or the
        parent has no usable trajectory), the child transparently falls back
        to a cold solve; either way the child persists its own artifacts
        under its content fingerprint, so later requests and restarts never
        depend on the parent again.

        With a bound store, the lineage edge
        ``chain_fingerprint -> (parent, delta)`` is recorded via
        :meth:`repro.store.ArtifactStore.record_lineage`, making the chain
        reconstructable (and the delta re-playable) after a restart.

        Chains compose: ``session.apply_delta(d1).apply_delta(d2)`` walks two
        frontier-restricted solves, each against its immediate parent.
        """
        if not isinstance(delta, GraphDelta):
            raise AlgorithmError(
                f"apply_delta expects a GraphDelta, got {type(delta).__name__}")
        if not 0.0 <= float(max_frontier_fraction) <= 1.0:
            raise AlgorithmError(
                f"max_frontier_fraction must be in [0, 1], "
                f"got {max_frontier_fraction!r}")
        child_graph = apply_graph_delta(self.graph, delta)
        child = Session(child_graph, engine=self.engine, lam=self._default_lam,
                        store=self.store,
                        max_cached_results=self.max_cached_results)
        child._parent = self
        child._delta = delta
        child._max_frontier_fraction = float(max_frontier_fraction)
        child._chain_fingerprint = delta_chain_fingerprint(
            self.chain_fingerprint, delta)
        if self.store is not None:
            self.store.record_lineage(
                child._chain_fingerprint, self.chain_fingerprint, delta,
                content_fingerprint=child.fingerprint,
                parent_content_fingerprint=self.fingerprint)
        return child

    def _label_index(self) -> Dict:
        """Label -> integer id map of this session's CSR view (cached)."""
        cached = getattr(self, "_label_index_cache", None)
        if cached is None:
            cached = {lab: i for i, lab in enumerate(self.csr.labels())}
            self._label_index_cache = cached
        return cached

    def _delta_frontier_seed(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(parent_ids, changed)`` for the frontier warm start (cached).

        ``parent_ids[i]`` is the parent CSR id of child node ``i`` (-1 for
        delta-introduced nodes); ``changed`` is the sorted child ids of every
        node the delta touched.  Node order is insertion order and
        :func:`repro.graph.delta.apply_delta` appends new nodes, so the
        common case is the identity prefix — detected with one tuple
        comparison instead of a per-node dict walk.
        """
        if self._frontier_seed is not None:
            return self._frontier_seed
        child_labels = self.csr.labels()
        parent_labels = self._parent.csr.labels()
        pn, n = len(parent_labels), len(child_labels)
        parent_ids = np.full(n, -1, dtype=np.int64)
        if child_labels[:pn] == parent_labels:
            parent_ids[:pn] = np.arange(pn, dtype=np.int64)
        else:  # pragma: no cover - defensive: apply_delta preserves order
            index = self._parent._label_index()
            for i, lab in enumerate(child_labels):
                parent_ids[i] = index.get(lab, -1)
        child_index = self._label_index()
        changed = np.fromiter(
            sorted(child_index[lab] for lab in changed_labels(self._delta)),
            dtype=np.int64)
        self._frontier_seed = (parent_ids, changed)
        return self._frontier_seed

    def _frontier_warm_start(self, lam: float, T: int):
        """A :class:`~repro.engine.kernels.FrontierWarmStart` for this request,
        or None when the incremental path cannot apply.

        Requires a parent trajectory at this λ covering ``T`` rounds (or a
        converged shorter one) — pulled from the parent's memory cache or,
        after a restart, from its artifact store.  The engine must be a
        :class:`~repro.engine.vectorized.TrajectoryEngine` (they all share
        the frontier branch in ``run``); anything else solves cold.
        """
        from repro.engine.kernels import FrontierWarmStart
        from repro.engine.vectorized import TrajectoryEngine

        parent = self._parent
        if parent is None or not isinstance(self.engine, TrajectoryEngine) \
                or not parent.supports_trajectories:
            return None
        ptraj = parent._trajectories.get(lam)
        if parent.store is not None:
            ptraj = parent._adopt_stored_trajectory(lam, T, ptraj)
        if ptraj is None or ptraj.shape[0] < 2:
            return None
        P = ptraj.shape[0] - 1
        if P < T and not np.array_equal(ptraj[P], ptraj[P - 1]):
            # Parent rounds don't cover the request and the parent hasn't
            # reached its fixed point: rows past P are unknown, so the
            # incremental path cannot be bit-exact.  Solve cold.
            return None
        parent_ids, changed = self._delta_frontier_seed()
        return FrontierWarmStart(
            ptraj, parent_ids, changed,
            max_frontier_fraction=self._max_frontier_fraction)

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
                warm = prefix
            else:
                if self.store is not None and not self._array_engine:
                    loaded = self._load_stored_result(T, lam,
                                                      tie_break=tie_break,
                                                      track_kept=track_kept)
                    if loaded is not None:
                        self._cache_put(self._results, key, loaded)
                        return loaded
                # The warm-start hint only goes to engines that will actually
                # consume it (and `warm` only counts as reuse then); engines
                # written against hint-free signatures keep working unchanged,
                # with every round honestly counted as executed.
                warm = prefix if "warm_start" in self._run_hints \
                    and self._engine_takes_prefix() else None
                run_kwargs = {}
                if "csr" in self._run_hints:
                    run_kwargs["csr"] = self.csr
                if "grid" in self._run_hints:
                    run_kwargs["grid"] = self.grid(lam)
                if warm is not None:
                    run_kwargs["warm_start"] = warm
                elif self._parent is not None and self._array_engine \
                        and "warm_start" in self._run_hints:
                    # Delta-derived session with no own trajectory yet: hand
                    # the engine a frontier warm start against the parent's
                    # trajectory.  The engine falls back to a cold run by
                    # itself when the frontier widens past the policy bound.
                    frontier = self._frontier_warm_start(lam, T)
                    if frontier is not None:
                        run_kwargs["warm_start"] = frontier
                result = self.engine.run(self.graph, T, lam=lam,
                                         tie_break=tie_break,
                                         track_kept=track_kept, **run_kwargs)
            self._account(T, warm, result, frontier=frontier)
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
            return result

    # ------------------------------------------------------------- persistence
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
        stored = self.store.load_trajectory(self.fingerprint, lam)
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

    def _spilled_rounds(self, lam: float, best: np.ndarray) -> Optional[int]:
        """Rounds the engine already published into the store's own ``.traj``
        file, or None when ``best`` is not a view of that file.

        A spilled-trajectory engine bound to this session's store returns a
        read-only ``np.memmap`` over ``<root>/<fingerprint>/trajectory-lam<λ>
        .traj/rows.bin`` — the rounds-on-disk metadata then comes from the
        append header the engine published round-by-round, and re-writing the
        monolithic ``.npz`` would only duplicate the bytes.
        """
        filename = getattr(best, "filename", None)
        if not isinstance(best, np.memmap) or filename is None:
            return None
        from repro.store.traj import rows_path

        expected = rows_path(self.store.root, self.fingerprint, lam)
        if os.path.realpath(filename) != os.path.realpath(expected):
            return None
        return best.shape[0] - 1

    def _persist(self, lam: float, result: SurvivingNumbers, *, tie_break: str,
                 track_kept: bool) -> None:
        """Persist what this request added: the longest trajectory, or — for
        engines without trajectories — the full result."""
        if self.store is None:
            return
        if self._array_engine:
            best = self._trajectories.get(lam)
            if best is None:
                return
            spilled = self._spilled_rounds(lam, best)
            if spilled is not None:
                # Already on disk, appended round-by-round by the engine; no
                # npz round-trip.  A crash mid-run would have lost at most
                # the last un-published round, never a readable prefix.
                disk = self._disk_rounds.get(lam)
                if disk is None or spilled > disk:
                    self._disk_rounds[lam] = spilled
                    self.stats.disk_writes += 1
                    self.store.record_graph(self.fingerprint,
                                            self.csr.num_nodes,
                                            self.csr.labels())
                return
            disk = self._disk_rounds.get(lam)
            if disk is None:
                # Disk state unknown (memory fully served so far): a cheap
                # metadata read keeps us from clobbering a longer artifact.
                stored = self.store.trajectory_rounds(self.fingerprint, lam)
                disk = self._disk_rounds[lam] = -1 if stored is None else stored
            if best.shape[0] - 1 > disk:
                self.store.save_trajectory(self.fingerprint, lam, best,
                                           labels=self.csr.labels())
                self._disk_rounds[lam] = best.shape[0] - 1
                self.stats.disk_writes += 1
        elif result.trajectory is None:
            self.store.save_result(self.fingerprint, result, lam=lam,
                                   tie_break=tie_break, track_kept=track_kept,
                                   labels=self.csr.labels())
            self.stats.disk_writes += 1

    def _engine_takes_prefix(self) -> bool:
        """Whether the engine can exploit a warm-start prefix.

        An engine whose ``run()`` declares ``warm_start`` is assumed to honour
        the documented contract; trajectory engines additionally expose
        ``_trajectory_accepts_prefix`` so that subclasses written against the
        hint-free ``trajectory()`` signature are not handed (and not credited
        for) a prefix they would recompute anyway.
        """
        probe = getattr(self.engine, "_trajectory_accepts_prefix", None)
        return True if probe is None else bool(probe())

    def _sliced_result(self, T: int, lam: float, prefix: np.ndarray, *,
                       tie_break: str, track_kept: bool) -> SurvivingNumbers:
        """A ``SurvivingNumbers`` read straight off the cached trajectory.

        Delegates to the engines' shared assembly so slice-served results stay
        field-for-field identical to engine-produced ones by construction.
        """
        from repro.engine.vectorized import TrajectoryEngine

        return TrajectoryEngine.assemble(self.csr, prefix[:T + 1], T,
                                         self.grid(lam), tie_break=tie_break,
                                         track_kept=track_kept)

    def _account(self, T: int, warm: Optional[np.ndarray],
                 result: SurvivingNumbers, *, frontier=None) -> None:
        # ``warm`` is the cached trajectory that was actually consumed (served
        # as a slice or handed to a prefix-capable engine) — None whenever the
        # engine ran every round itself, including engines that cannot take
        # the hint.  ``frontier`` is the FrontierWarmStart of an incremental
        # attempt; it records whether the engine used it or fell back cold.
        if frontier is not None:
            if frontier.used:
                self.stats.incremental_runs += 1
                self.stats.frontier_nodes_recomputed += frontier.nodes_recomputed
                self.stats.frontier_peak_nodes = max(
                    self.stats.frontier_peak_nodes, frontier.peak_frontier)
                self.stats.rounds_executed += T
                return
            self.stats.incremental_fallbacks += 1
        if result.trajectory is None or warm is None:
            self.stats.cold_runs += 1
            self.stats.rounds_executed += T
            return
        reused = min(warm.shape[0] - 1, T)
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
        prob = get_problem(problem)
        # Canonicalise λ before any key is derived from it (same spelling in
        # the request cache, the surviving cache and the store) and reject
        # non-finite values at the solve boundary, before any work runs.
        if params.get("lam") is not None:
            params = {**params, "lam": canonical_lam(params["lam"])}
        # An explicit lam at the session default is the same request as an
        # omitted one (surviving() resolves None to the default).
        if params.get("lam") == self._default_lam:
            params = {**params, "lam": None}
        key = self._request_key(prob, params,
                                caller_instance=isinstance(problem, Problem),
                                lineage=self._chain_fingerprint)
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
        if key is not None:
            self._cache_put(self._problem_results, key, result)
        return result

    @staticmethod
    def _request_key(prob: Problem, params: dict, *, caller_instance: bool,
                     lineage: Optional[str] = None) -> Optional[tuple]:
        # The parameter canonicalisation (default-stripping) is the problem's
        # own :meth:`Problem.request_key` — shared with the in-flight dedup of
        # :mod:`repro.serve`.  None (unhashable params) skips request caching.
        base = prob.request_key(params, lineage=lineage)
        if base is None:
            return None
        # Name-resolved problems get a fresh stateless instance per request, so
        # they dedup by class; the class token also keeps a re-registered
        # (shadowed) implementation from serving the old one's cached results.
        # A caller-supplied instance may carry its own configuration, so it
        # dedups per instance — keyed on the object itself, which also keeps
        # it alive (an id() would be reusable after collection).
        return (base, prob if caller_instance else type(prob))

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
