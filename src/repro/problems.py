"""The problem registry — the paper's three theorems behind one protocol.

The engine registry (:mod:`repro.engine.base`) abstracts *how* the compact
elimination procedure executes; this module abstracts *what* is being asked of
it.  A :class:`Problem` turns a parametrised request against a
:class:`~repro.session.Session` (which owns the per-graph artifacts and caches)
into a self-describing result object:

==============  ==========================================================
name            result
==============  ==========================================================
``coreness``    :class:`~repro.core.api.CorenessResult` (Theorem I.1)
``orientation`` :class:`~repro.core.api.OrientationResult` (Theorem I.2)
``densest``     :class:`~repro.core.densest.WeakDensestResult` (Theorem I.3)
==============  ==========================================================

All problems share a uniform request/result protocol:

* requests are keyword-only: exactly one of ``epsilon`` / ``gamma`` / ``rounds``
  (the paper's parametrisation, resolved by
  :func:`repro.core.rounds.resolve_round_budget`) plus problem-specific options;
* every result carries a ``surviving`` attribute (the Phase-1
  :class:`~repro.core.surviving.SurvivingNumbers`), a scalar
  :meth:`Problem.objective`, and a ``to_dict()`` JSON serialization.

Problems are resolved by name through :func:`get_problem`; third-party problems
hook in with :func:`register_problem` — the same extension-point shape as
:func:`repro.engine.register_engine`.
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.core.densest import weak_densest_subsets
from repro.core.orientation import orientation_from_kept
from repro.errors import AlgorithmError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session import Session


class Problem(ABC):
    """One of the paper's problems, solvable against a :class:`Session`."""

    #: canonical registry name of the problem
    name: str = "abstract"

    #: :class:`~repro.engine.batch.BatchJob` fields (beyond the round budget)
    #: this problem consumes; the batch runner rejects jobs that set any other
    #: field to a non-default value instead of silently dropping it.
    batch_params: Tuple[str, ...] = ()

    #: Values the problem forces for fields it does not consume; a job setting
    #: a field to its forced value is accepted (the request is implied, not
    #: contradicted) — e.g. ``track_kept=True`` on an orientation job.
    forced_params: Dict[str, object] = {}

    #: Engine name the problem always executes on, overriding the session's
    #: engine (None: the session's engine runs the rounds).  Purely
    #: informational — used by batch stats so they report the engine that
    #: actually ran.
    forced_engine: Optional[str] = None

    @abstractmethod
    def solve(self, session: "Session", **params):
        """Solve one request against ``session`` and return the result object."""

    @abstractmethod
    def objective(self, result) -> float:
        """The scalar summary of ``result`` (batch tables, benchmarks, JSON)."""

    def rounds_executed(self, result) -> int:
        """Synchronous rounds the solved request actually executed.

        Defaults to the Phase-1 budget ``T``; problems that run additional
        phases override this so batch stats report honest round counts.
        """
        return result.surviving.rounds

    #: per-Problem-class cache of the non-None defaults of its solve signature.
    _SOLVE_DEFAULTS: Dict[type, Dict[str, object]] = {}

    def request_key(self, params: Mapping[str, object], *,
                    lineage: Optional[str] = None) -> Optional[tuple]:
        """Canonical hashable identity of one parametrised request.

        Params spelled at their default — ``None`` padding from convenience
        wrappers (``epsilon=None``, ``lam=None``, ...) or an explicit
        signature default (``tie_break="history"``) — are dropped, so every
        equivalent spelling of a request maps to the same key.  A finite
        ``lam`` is canonicalised (``-0.0`` → ``0.0``) so the key always
        carries the spelling the caches and the artifact store use.  This is
        the deduplication key shared by :meth:`repro.session.Session.solve`
        and the in-flight dedup of :mod:`repro.serve`; ``None`` (for
        unhashable parameter values) means the request cannot be
        deduplicated.

        ``lineage`` is the graph-version dimension: a delta-derived session
        passes its chain fingerprint so requests against different versions
        of "the same" graph never deduplicate into each other, while root
        sessions (``lineage=None``) keep their historical keys.
        """
        lam = params.get("lam")
        if isinstance(lam, (int, float)) and math.isfinite(lam):
            params = {**params, "lam": float(lam) + 0.0}
        defaults = Problem._SOLVE_DEFAULTS.get(type(self))
        if defaults is None:
            defaults = {name: p.default
                        for name, p in inspect.signature(self.solve).parameters.items()
                        if p.default is not inspect.Parameter.empty
                        and p.default is not None}
            Problem._SOLVE_DEFAULTS[type(self)] = defaults
        try:
            base = (self.name, frozenset(
                (k, v) for k, v in params.items()
                if v is not None and (k not in defaults or v != defaults[k])))
        except TypeError:  # unhashable parameter value: no deduplication
            return None
        return base if lineage is None else base + (lineage,)

    def describe(self) -> str:
        """One-line human-readable description (used by the CLI)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


#: Something :func:`get_problem` accepts: a name string or a Problem instance.
ProblemLike = Union[str, Problem]

ProblemFactory = Callable[[], Problem]

_FACTORIES: Dict[str, ProblemFactory] = {}
_ALIASES: Dict[str, str] = {}


def register_problem(name: str, factory: ProblemFactory, *,
                     aliases: Tuple[str, ...] = ()) -> None:
    """Register a problem factory under ``name`` (plus optional aliases).

    ``factory()`` must return a :class:`Problem`.  Re-registering a name
    replaces the previous factory, which lets tests and downstream code shadow
    a builtin.
    """
    canonical = name.strip().lower()
    if not canonical:
        raise AlgorithmError("problem name must be non-empty")
    _FACTORIES[canonical] = factory
    for alias in aliases:
        _ALIASES[alias.strip().lower()] = canonical


def available_problems() -> Tuple[str, ...]:
    """The canonical names of all registered problems, sorted."""
    return tuple(sorted(_FACTORIES))


def get_problem(problem: ProblemLike) -> Problem:
    """Resolve ``problem`` to a :class:`Problem` instance.

    ``problem`` may be a :class:`Problem` instance (returned as-is) or a
    registered name/alias (case-insensitive).

    Raises
    ------
    AlgorithmError
        For unknown problem names.
    """
    if isinstance(problem, Problem):
        return problem
    if not isinstance(problem, str):
        raise AlgorithmError(
            f"problem must be a name string or a Problem instance, got {problem!r}")
    name = problem.strip().lower()
    canonical = _ALIASES.get(name, name)
    factory = _FACTORIES.get(canonical)
    if factory is None:
        raise AlgorithmError(
            f"unknown problem {problem!r}; expected one of "
            f"{', '.join(available_problems())} "
            f"(aliases: {', '.join(sorted(_ALIASES))})")
    return factory()


# ----------------------------------------------------------------- builtins

class CorenessProblem(Problem):
    """Theorem I.1 — per-node approximate coreness / maximal density."""

    name = "coreness"
    batch_params = ("lam", "tie_break", "track_kept")

    def solve(self, session: "Session", *, epsilon: Optional[float] = None,
              gamma: Optional[float] = None, rounds: Optional[int] = None,
              lam: Optional[float] = None, tie_break: str = "history",
              track_kept: bool = False):
        from repro.core.api import CorenessResult

        surv = session.surviving(epsilon=epsilon, gamma=gamma, rounds=rounds,
                                 lam=lam, tie_break=tie_break,
                                 track_kept=track_kept)
        return CorenessResult(values=surv.values.copy(), rounds=surv.rounds,
                              guarantee=surv.guarantee, lam=surv.grid.lam,
                              surviving=surv)

    def objective(self, result) -> float:
        return result.max_value

    def describe(self) -> str:
        return "coreness (Theorem I.1: per-node approximate coreness / maximal density)"


class OrientationProblem(Problem):
    """Theorem I.2 — approximate min-max edge orientation."""

    name = "orientation"
    batch_params = ("tie_break",)
    forced_params = {"track_kept": True, "lam": 0.0}

    def solve(self, session: "Session", *, epsilon: Optional[float] = None,
              gamma: Optional[float] = None, rounds: Optional[int] = None,
              tie_break: str = "history"):
        from repro.core.api import OrientationResult

        # Lemma III.11 requires Λ = R for the orientation invariants, so the
        # session's default λ is deliberately overridden with 0.
        surv = session.surviving(epsilon=epsilon, gamma=gamma, rounds=rounds,
                                 lam=0.0, tie_break=tie_break, track_kept=True)
        orientation = orientation_from_kept(session.graph, surv.kept,
                                            values=surv.values, csr=session.csr)
        return OrientationResult(orientation=orientation, values=surv.values.copy(),
                                 rounds=surv.rounds, guarantee=surv.guarantee,
                                 surviving=surv)

    def objective(self, result) -> float:
        return result.max_in_weight

    def describe(self) -> str:
        return "orientation (Theorem I.2: approximate min-max edge orientation)"


class DensestProblem(Problem):
    """Theorem I.3 — the weak densest subset collection.

    By default the 4-phase pipeline runs end-to-end on the faithful simulator
    (its round and message accounting is part of the result), so it does not
    consume the session's CSR view or engine; the session still deduplicates
    repeated identical requests through its problem-result cache.  With
    ``message_accounting=False`` Phase 1 is served from the session's cached
    λ=0 elimination trajectory instead of re-simulating it; the result's
    ``messages_total`` then covers phases 2-4 only.

    With ``engine="array"`` the whole pipeline runs at array speed: phases 2-4
    on the CSR kernels of :mod:`repro.engine.densest_kernels` over the
    session's cached CSR view, and Phase 1 from the session's cached λ=0
    trajectory whenever the session engine produces trajectories (the faithful
    session engine cannot, so Phase 1 then runs on a one-off vectorised pass).
    Message accounting does not exist on this path — ``messages_total`` is 0
    and ``rounds_per_phase`` reports nominal budgets.

    For integer/dyadic edge weights every engine combination reports
    bit-identical subsets; for arbitrary float weights they may differ in the
    last ulp (the usual caveat of :mod:`repro.engine.kernels`), which can tip
    a threshold comparison.
    """

    name = "densest"
    batch_params = ()
    forced_engine = "faithful"

    def solve(self, session: "Session", *, epsilon: Optional[float] = None,
              gamma: Optional[float] = None, rounds: Optional[int] = None,
              acceptance_factor: Optional[float] = None,
              message_accounting: bool = True,
              engine: Optional[str] = None):
        from repro.core.densest import ARRAY_DENSEST_ENGINES

        use_array = engine is not None and engine in ARRAY_DENSEST_ENGINES
        phase1 = None
        if (use_array or not message_accounting) and session.supports_trajectories:
            from repro.core.rounds import resolve_round_budget

            T = resolve_round_budget(session.graph.num_nodes, epsilon, gamma, rounds)
            phase1 = session.surviving(rounds=T, lam=0.0, track_kept=False)
            epsilon = gamma = None
            rounds = T  # same resolver as the pipeline: budgets cannot drift
        return weak_densest_subsets(session.graph, epsilon=epsilon, gamma=gamma,
                                    rounds=rounds,
                                    acceptance_factor=acceptance_factor,
                                    phase1=phase1, engine=engine,
                                    csr=session.csr if use_array else None)

    def objective(self, result) -> float:
        return result.best_density

    def rounds_executed(self, result) -> int:
        # All 4 phases count: the wall-clock in the batch stats covers them.
        return result.rounds_total

    def describe(self) -> str:
        return "densest (Theorem I.3: weak densest subset collection)"


register_problem("coreness", CorenessProblem, aliases=("kcore", "core"))
register_problem("orientation", OrientationProblem, aliases=("orient", "minmax"))
register_problem("densest", DensestProblem, aliases=("densest-subsets", "dss"))
