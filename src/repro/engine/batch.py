"""Batch execution of many problem requests over shared per-graph sessions.

Production workloads rarely run one graph once: parameter sweeps (ε / Λ grids),
multi-tenant serving and the experiment harness all execute *many* jobs, often
against the *same* graphs.  :class:`BatchRunner` makes that the first-class
shape: it resolves one engine from the registry, opens one
:class:`~repro.session.Session` per distinct graph (so every job on a graph
shares its CSR view, memoised Λ-grids, cached results and elimination
trajectories), routes each :class:`BatchJob` through the problem registry
(:mod:`repro.problems` — ``coreness`` / ``orientation`` / ``densest``), and
returns a :class:`BatchResult` with the problem result plus per-job
:class:`RunStats` (wall-clock, convergence round, scalar objective).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.rounding import LambdaGrid
from repro.core.rounds import resolve_round_budget
from repro.engine.base import Engine, EngineLike, get_engine
from repro.errors import AlgorithmError
from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.problems import Problem, ProblemLike, get_problem
from repro.session import DeltaLink, Session, SessionStats
from repro.utils.numeric import canonical_lam

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.surviving import SurvivingNumbers

#: BatchJob fields a problem may consume beyond the round budget; a job must
#: keep each at its field default (or the problem's forced value) when the
#: problem does not consume it.
_OPTIONAL_JOB_FIELDS = ("lam", "tie_break", "track_kept")


@dataclass(frozen=True)
class BatchJob:
    """One unit of work: a graph, a problem, and the paper's parametrisation.

    Exactly one of ``epsilon`` (γ = 2(1+ε)), ``gamma`` (γ > 2) or ``rounds``
    must be given — the same contract as :func:`repro.core.api.approximate_coreness`.
    ``problem`` is anything :func:`repro.problems.get_problem` resolves
    (default ``"coreness"``); ``lam``, ``tie_break`` and ``track_kept`` are
    forwarded only to problems that consume them (``Problem.batch_params``) and
    must stay at their defaults otherwise.
    """

    graph: Graph
    name: str = ""
    problem: ProblemLike = "coreness"
    epsilon: Optional[float] = None
    gamma: Optional[float] = None
    rounds: Optional[int] = None
    lam: float = 0.0
    tie_break: str = "history"
    track_kept: bool = False

    def resolve_rounds(self) -> int:
        """The round budget ``T`` this job's parametrisation resolves to."""
        return resolve_round_budget(self.graph.num_nodes, self.epsilon, self.gamma,
                                    self.rounds)

    def problem_name(self) -> str:
        """The display name of the job's problem (without registry resolution)."""
        return self.problem if isinstance(self.problem, str) else self.problem.name

    def label(self) -> str:
        """A display label: the explicit name, or a budget-derived fallback."""
        if self.name:
            return self.name
        if self.epsilon is not None:
            budget = f"eps={self.epsilon:g}"
        elif self.gamma is not None:
            budget = f"gamma={self.gamma:g}"
        else:
            budget = f"T={self.rounds}"
        label = f"n={self.graph.num_nodes};{budget};lam={self.lam:g}"
        if self.problem_name() != "coreness":
            label += f";problem={self.problem_name()}"
        return label


#: Field defaults of the optional job params, read off the dataclass itself so
#: the validation in :meth:`BatchRunner._job_params` cannot drift from them.
_OPTIONAL_JOB_PARAMS = {f.name: f.default for f in fields(BatchJob)
                        if f.name in _OPTIONAL_JOB_FIELDS}


@dataclass(frozen=True)
class RunStats:
    """Per-job execution statistics recorded by the :class:`BatchRunner`."""

    job: str                         #: the job's display label
    engine: str                      #: canonical engine name
    num_nodes: int
    num_edges: int
    rounds: int                      #: synchronous rounds executed (the budget T;
                                     #: for densest, all 4 pipeline phases)
    seconds: float                   #: wall-clock of the request
    converged_round: Optional[int]   #: first round the values stopped changing
                                     #: (None when unknown or not reached)
    problem: str = "coreness"        #: canonical problem name
    objective: Optional[float] = None  #: the problem's scalar objective


@dataclass
class BatchResult:
    """A finished job: the problem result plus its :class:`RunStats`."""

    job: BatchJob
    surviving: "SurvivingNumbers"
    stats: RunStats
    result: object = None            #: the full problem result (``to_dict()``-capable)

    @property
    def values(self):
        """Shortcut to the per-node surviving numbers."""
        return self.surviving.values


def _converged_round(trajectory: Optional[np.ndarray]) -> Optional[int]:
    if trajectory is None or trajectory.shape[0] < 2:
        return None
    for t in range(1, trajectory.shape[0]):
        if np.array_equal(trajectory[t], trajectory[t - 1]):
            return t - 1
    return None


class BatchRunner:
    """Execute many :class:`BatchJob`\\ s through one registry engine.

    The runner owns one :class:`~repro.session.Session` per distinct graph
    (keyed by graph identity), so CSR views, Λ-grids, cached results and
    elimination trajectories are shared by every job on the same graph —
    including across *different* problems (a coreness job and an orientation
    job on the same graph reuse one λ=0 trajectory).  Graphs are treated as
    immutable while a runner holds them.

    ``max_sessions`` bounds the open sessions: beyond it the least recently
    used one is evicted (``None``, the default, keeps every session for the
    runner's lifetime, which a one-shot ``repro batch`` wants).  An evicted
    session still counts in :meth:`aggregate_stats`, including work a job
    still running on it does after the eviction, so the totals never
    decrease; its link to its parent version turns weak.  A later job on
    the same graph re-opens a session, which reloads its trajectories from
    the store as disk hits (without a store it solves cold again, so bound
    only a store-backed runner).  A delta version re-opens as the same
    version (:meth:`~repro.session.Session.restore_link`): a delta derived
    from it again mints the same lineage address, and its first solve at a
    new λ still seeds its frontier from the parent's live or stored
    trajectory.  The map is locked: threads that miss on one graph at once
    get one session.
    """

    def __init__(self, engine: EngineLike = "vectorized", *, store=None,
                 max_sessions: Optional[int] = None,
                 **engine_options) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise AlgorithmError(
                f"max_sessions must be >= 1 or None, got {max_sessions}")
        self.engine: Engine = get_engine(engine, **engine_options)
        #: persistent artifact store handed to every opened session (optional;
        #: an :class:`~repro.store.ArtifactStore` or its root directory), so
        #: batch runs resume from — and extend — the on-disk cache; a large
        #: trajectory is appended to the store's own ``.traj`` file as the
        #: engine computes it.
        self.store = store
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        # id() keys require keeping the graph alive; the Session holds it.
        # Least recently used first.
        self._sessions: "OrderedDict[int, Session]" = OrderedDict()
        #: counters of the sessions dropped from the map: folded totals of
        #: the collected ones, and the live stats of those still alive (a
        #: job may still run on one), folded once they are collected
        self._retired: Dict[str, int] = {}
        self._dropped: List[Tuple["weakref.ref[Session]", SessionStats]] = []
        self._evicted = 0
        #: the delta links of evicted versions, while their graphs live
        self._links: "weakref.WeakKeyDictionary[Graph, DeltaLink]" = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ caches
    def session(self, graph: Graph) -> Session:
        """The (cached) :class:`Session` owning the artifacts of ``graph``."""
        key = id(graph)
        with self._lock:
            hit = self._sessions.get(key)
            if hit is not None:
                self._sessions.move_to_end(key)
                return hit
            hit = self.new_session(graph)
            link = self._links.pop(graph, None)
            if link is not None:
                hit.restore_link(link)
            self._admit_locked(key, hit)
            return hit

    def new_session(self, graph: Graph) -> Session:
        """A fresh :class:`Session` on ``graph`` with the runner's engine
        and store; it owns nothing in the runner until
        :meth:`adopt_session` registers it."""
        return Session(graph, engine=self.engine, store=self.store)

    def adopt_session(self, session: Session) -> Session:
        """Register an externally built session as the owner of its graph.

        The delta path uses this: ``Session.apply_delta`` mints the child
        session (carrying its parent link, delta and chain fingerprint), and
        adopting it here routes every later job on the child graph through
        the incremental state instead of a fresh cold session.  The adopted
        session replaces any session previously opened for the same graph
        object (whose counters stay in :meth:`aggregate_stats`).
        """
        key = id(session.graph)
        with self._lock:
            held = self._sessions.get(key)
            if held is not None and held is not session:
                self._drop_locked(held)
            # Counted from here on as an open session, not a dropped one.
            self._dropped = [(ref, stats) for ref, stats in self._dropped
                             if ref() is not session]
            self._links.pop(session.graph, None)
            self._admit_locked(key, session)
        return session

    def _admit_locked(self, key: int, session: Session) -> None:
        """Put ``session`` at the recent end, evicting beyond the bound."""
        self._sessions[key] = session
        self._sessions.move_to_end(key)
        while self.max_sessions is not None \
                and len(self._sessions) > self.max_sessions:
            self._evict_locked(self._sessions.popitem(last=False)[1])

    def _evict_locked(self, old: Session) -> None:
        """Drop ``old`` from the map, keeping its counters and, for a delta
        version, its link (now weak) for the session re-opened on its
        graph."""
        self._drop_locked(old)
        self._evicted += 1
        link = old.release_link()
        if link is not None:
            self._links[old.graph] = link

    def _drop_locked(self, old: Session) -> None:
        """Keep counting ``old``'s stats, and fold those of dropped
        sessions that were collected since (their counts are final)."""
        self._dropped.append((weakref.ref(old), old.stats))
        alive = []
        for ref, stats in self._dropped:
            if ref() is None:
                SessionStats.merge(self._retired, stats.to_dict())
            else:
                alive.append((ref, stats))
        self._dropped = alive

    def csr_view(self, graph: Graph) -> CSRAdjacency:
        """The (cached) CSR view of ``graph`` (owned by its session)."""
        return self.session(graph).csr

    def grid_view(self, graph: Graph, lam: float) -> LambdaGrid:
        """The (memoised) Λ-grid of ``graph`` for parameter ``lam``."""
        return self.session(graph).grid(lam)

    @property
    def cached_graphs(self) -> int:
        """Number of distinct graphs with an open session."""
        with self._lock:
            return len(self._sessions)

    @property
    def evicted_sessions(self) -> int:
        """Sessions dropped by the ``max_sessions`` bound so far."""
        with self._lock:
            return self._evicted

    def aggregate_stats(self) -> dict:
        """:class:`~repro.session.SessionStats` across every session the
        runner has held, evicted ones included.

        One JSON-ready dict with the same counter keys as
        ``SessionStats.to_dict()`` — what the CLI and the serving layer report
        for a whole batch (cache hits, disk traffic, executed/reused rounds).
        Counts are summed; peaks (``SessionStats.PEAKS``) take the max.
        """
        with self._lock:
            totals = dict(self._retired)
            for _, stats in self._dropped:
                SessionStats.merge(totals, stats.to_dict())
            for session in self._sessions.values():
                SessionStats.merge(totals, session.stats.to_dict())
        return totals

    # -------------------------------------------------------------------- runs
    @staticmethod
    def _job_params(job: BatchJob, problem: Problem) -> dict:
        """The ``solve`` params of ``job``; raises for a bad job before any
        work: a non-finite λ (:class:`~repro.errors.InvalidLambdaError`) or
        an optional field the problem does not take."""
        params: dict = {}
        if job.epsilon is not None:
            params["epsilon"] = job.epsilon
        if job.gamma is not None:
            params["gamma"] = job.gamma
        if job.rounds is not None:
            params["rounds"] = job.rounds
        for name, default in _OPTIONAL_JOB_PARAMS.items():
            value = getattr(job, name)
            if name == "lam":
                value = canonical_lam(value)
            if name in problem.batch_params:
                params[name] = value
            elif value != default and value != problem.forced_params.get(name, default):
                raise AlgorithmError(
                    f"problem {problem.name!r} does not take {name} "
                    f"(job {job.label()!r} sets {name}={value!r})")
        return params

    def run_job(self, job: BatchJob) -> BatchResult:
        """Execute one job and return its :class:`BatchResult`."""
        if job.graph.num_nodes == 0:
            raise AlgorithmError("batch jobs need a non-empty graph")
        problem = get_problem(job.problem)
        params = self._job_params(job, problem)
        job.resolve_rounds()   # budget validation up front, before any work
        session = self.session(job.graph)
        start = time.perf_counter()
        # The job's own problem spec goes to solve(): name specs dedup by
        # problem class there, while a fresh instance resolved here would not.
        result = session.solve(job.problem, **params)
        seconds = time.perf_counter() - start
        surviving = result.surviving
        trajectory = surviving.trajectory if surviving is not None else None
        stats = RunStats(job=job.label(),
                         engine=problem.forced_engine or self.engine.name,
                         num_nodes=job.graph.num_nodes, num_edges=job.graph.num_edges,
                         rounds=problem.rounds_executed(result), seconds=seconds,
                         converged_round=_converged_round(trajectory),
                         problem=problem.name, objective=problem.objective(result))
        return BatchResult(job=job, surviving=surviving, stats=stats, result=result)

    def run(self, jobs: Iterable[BatchJob]) -> List[BatchResult]:
        """Execute every job in order and return their results."""
        return [self.run_job(job) for job in jobs]


def sweep_jobs(graphs: Dict[str, Graph], *, epsilons: Iterable[float] = (),
               rounds: Iterable[int] = (), lams: Iterable[float] = (0.0,),
               problem: ProblemLike = "coreness",
               track_kept: bool = False) -> List[BatchJob]:
    """Cross-product helper: one job per (graph × budget × λ).

    ``epsilons`` and ``rounds`` together form the budget axis (each entry is one
    budget variant); at least one budget must be supplied.  ``problem`` applies
    to every generated job.
    """
    budgets: List[tuple] = []
    for eps in epsilons:
        budgets.append((f"eps={eps:g}", {"epsilon": float(eps)}))
    for t in rounds:
        budgets.append((f"T={t}", {"rounds": int(t)}))
    if not budgets:
        raise AlgorithmError("sweep_jobs needs at least one epsilon or rounds budget")
    jobs: List[BatchJob] = []
    for graph_name, graph in graphs.items():
        for budget_name, budget in budgets:
            for lam in lams:
                name = f"{graph_name};{budget_name}"
                if lam:
                    name += f";lam={lam:g}"
                jobs.append(BatchJob(graph=graph, name=name, problem=problem,
                                     lam=float(lam), track_kept=track_kept, **budget))
    return jobs
