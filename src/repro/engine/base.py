"""The :class:`Engine` protocol and the engine registry.

An *engine* is an interchangeable executor of Algorithm 2 (the compact
elimination procedure): given a graph and a round budget it produces a
:class:`~repro.core.surviving.SurvivingNumbers`.  All engines are required — and
property-tested — to compute the same surviving numbers, kept sets and
orientations; they differ only in *how* the synchronous rounds are executed:

============  ===============================================================
name          implementation
============  ===============================================================
``faithful``  the per-node message-passing protocol on the distsim simulator
              (reference semantics, message statistics; alias ``simulation``)
``vectorized``  NumPy kernels over the whole CSR view in one shot per round
              (alias ``numpy``)
``sharded``   the same kernels executed shard-by-shard over contiguous node
              ranges, bounding peak memory to one shard's frontier arrays;
              with ``workers=N`` each round's shards run on an ``N``-thread
              pool (both are :class:`~repro.engine.vectorized.TrajectoryEngine`)
============  ===============================================================

Where a trajectory engine's output lives is not an engine option: its
``run`` takes an ``out=`` append-trajectory sink (see
:mod:`repro.store.traj`), which a store-backed
:class:`~repro.session.Session` opens on the store's own ``.traj`` file when
the trajectory is large.

Engines are resolved by name through :func:`get_engine`, which also accepts an
*engine spec* carrying inline options, e.g. ``"sharded:4"`` (4 shards) or
``"sharded:shards=4,workers=2"``.  Third-party backends can hook in with
:func:`register_engine`; the registry is the extension point for every other
execution backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

from repro.errors import AlgorithmError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.rounding import LambdaGrid
    from repro.core.surviving import SurvivingNumbers
    from repro.graph.csr import CSRAdjacency
    from repro.graph.graph import Graph


class Engine(ABC):
    """Executor of the compact elimination procedure (Algorithm 2)."""

    #: canonical registry name of the engine
    name: str = "abstract"

    @abstractmethod
    def run(self, graph: "Graph", rounds: int, *, lam: float = 0.0,
            tie_break: str = "history", track_kept: bool = True,
            csr: Optional["CSRAdjacency"] = None,
            grid: Optional["LambdaGrid"] = None,
            warm_start=None) -> "SurvivingNumbers":
        """Run Algorithm 2 for ``rounds`` rounds and return the surviving numbers.

        ``csr`` and ``grid`` are optional precomputed artifacts (a CSR view of
        ``graph`` and its Λ-grid); :class:`~repro.session.Session` (and so the
        :class:`~repro.engine.batch.BatchRunner`) passes them to trajectory
        engines so that many requests on the same graph share one CSR view
        and memoised grids.  ``warm_start`` is an optional trajectory array
        from an earlier run with the *same* graph and λ: trajectory engines
        resume the round loop after its last row instead of recomputing
        rounds ``1..T_old`` (bit-identical by round determinism).  Engines
        that do not consume these hints ignore them — they are pure
        optimisations, never a semantic change.
        """

    def describe(self) -> str:
        """One-line human-readable description (used by the CLI)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


#: Something :func:`get_engine` accepts: a name/spec string or an Engine instance.
EngineLike = Union[str, Engine]

EngineFactory = Callable[..., Engine]

_FACTORIES: Dict[str, EngineFactory] = {}
_ALIASES: Dict[str, str] = {}
_SHORTHAND: Dict[str, str] = {}


def register_engine(name: str, factory: EngineFactory, *,
                    aliases: Tuple[str, ...] = (),
                    shorthand_option: Optional[str] = None) -> None:
    """Register an engine factory under ``name`` (plus optional aliases).

    ``factory(**options)`` must return an :class:`Engine`.  ``shorthand_option``
    names the keyword a bare value in an engine spec maps to (e.g. ``"sharded:4"``
    with ``shorthand_option="num_shards"`` resolves to ``num_shards=4``).
    Re-registering a name replaces the previous factory, which lets tests and
    downstream code shadow a builtin.
    """
    canonical = name.strip().lower()
    if not canonical:
        raise AlgorithmError("engine name must be non-empty")
    _FACTORIES[canonical] = factory
    for alias in aliases:
        _ALIASES[alias.strip().lower()] = canonical
    if shorthand_option is not None:
        _SHORTHAND[canonical] = shorthand_option


def available_engines() -> Tuple[str, ...]:
    """The canonical names of all registered engines, sorted."""
    return tuple(sorted(_FACTORIES))


def _coerce(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def parse_engine_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """Split an engine spec string into ``(name, options)``.

    Grammar: ``name[:opt[,opt...]]`` where each ``opt`` is either ``key=value``
    or a bare value (mapped through the engine's registered shorthand option).
    Values are coerced to int/float when they parse as one.
    """
    name, _, option_text = spec.partition(":")
    name = name.strip().lower()
    options: Dict[str, object] = {}
    if option_text:
        canonical = _ALIASES.get(name, name)
        for token in option_text.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                options[key.strip()] = _coerce(value.strip())
            else:
                shorthand = _SHORTHAND.get(canonical)
                if shorthand is None:
                    raise AlgorithmError(
                        f"engine {canonical!r} takes no positional option "
                        f"(got {token!r} in spec {spec!r}); use key=value")
                options[shorthand] = _coerce(token)
    return name, options


def get_engine(engine: EngineLike = "vectorized", **options) -> Engine:
    """Resolve ``engine`` to an :class:`Engine` instance.

    ``engine`` may be an :class:`Engine` instance (returned as-is; extra options
    are rejected), a canonical name or alias (``"faithful"``/``"simulation"``,
    ``"vectorized"``/``"numpy"``, ``"sharded"``), or a spec string with inline
    options such as ``"sharded:4"``.  Keyword ``options`` are merged over the
    inline ones and handed to the engine factory.

    Raises
    ------
    AlgorithmError
        For unknown engine names or invalid options.
    """
    if isinstance(engine, Engine):
        if options:
            raise AlgorithmError(
                f"options {sorted(options)!r} cannot be applied to an already-"
                f"constructed engine instance {engine!r}")
        return engine
    if not isinstance(engine, str):
        raise AlgorithmError(
            f"engine must be a name string or an Engine instance, got {engine!r}")
    name, spec_options = parse_engine_spec(engine)
    canonical = _ALIASES.get(name, name)
    factory = _FACTORIES.get(canonical)
    if factory is None:
        raise AlgorithmError(
            f"unknown engine {name!r}; expected one of {', '.join(available_engines())} "
            f"(aliases: {', '.join(sorted(_ALIASES))})")
    merged = {**spec_options, **options}
    try:
        return factory(**merged)
    except TypeError as exc:
        raise AlgorithmError(
            f"invalid options {merged!r} for engine {canonical!r}: {exc}") from exc


# ----------------------------------------------------------------- builtins
# The builtin factories import their modules lazily so that importing the
# registry (which `repro.core.surviving` does at import time, for the kernels)
# never recurses back into the core modules the engines are built from.

def _make_faithful(**options) -> Engine:
    from repro.engine.faithful import FaithfulEngine

    return FaithfulEngine(**options)


def _make_vectorized() -> Engine:
    from repro.engine.vectorized import TrajectoryEngine

    engine = TrajectoryEngine(num_shards=1)
    engine.name = "vectorized"
    return engine


#: Friendly spelling aliases accepted in sharded engine specs.
_SHARDED_OPTION_ALIASES = {"shards": "num_shards", "workers": "max_workers"}


def _make_sharded(**options) -> Engine:
    from repro.engine.vectorized import TrajectoryEngine

    return TrajectoryEngine(**{_SHARDED_OPTION_ALIASES.get(k, k): v
                               for k, v in options.items()})


register_engine("faithful", _make_faithful, aliases=("simulation", "distsim"))
register_engine("vectorized", _make_vectorized, aliases=("numpy",))
register_engine("sharded", _make_sharded, shorthand_option="num_shards")
