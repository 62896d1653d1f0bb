"""repro.engine — the unified multi-engine execution layer.

Every way of executing Algorithm 2 (the compact elimination procedure) lives
behind the :class:`~repro.engine.base.Engine` protocol and is resolved by name
through :func:`~repro.engine.base.get_engine`:

>>> from repro.engine import get_engine, available_engines
>>> available_engines()
('faithful', 'sharded', 'vectorized')
>>> engine = get_engine("sharded", num_shards=4)

The per-round NumPy kernels of the trajectory engine (``vectorized`` and
``sharded``) are in :mod:`repro.engine.kernels`; multi-job execution with
shared per-graph sessions is in :mod:`repro.engine.batch`.

The batch symbols are re-exported lazily (PEP 562): :mod:`repro.engine.batch`
routes jobs through :mod:`repro.session` and :mod:`repro.problems`, which in
turn build on :mod:`repro.core` — and ``repro.core.surviving`` imports
:mod:`repro.engine.base` (hence this ``__init__``) for the kernels.  Importing
batch eagerly here would re-enter those half-initialised core modules.
"""

from repro.engine.base import (
    Engine,
    EngineLike,
    available_engines,
    get_engine,
    parse_engine_spec,
    register_engine,
)

_BATCH_EXPORTS = ("BatchJob", "BatchResult", "BatchRunner", "RunStats", "sweep_jobs")

__all__ = [
    "Engine",
    "EngineLike",
    "available_engines",
    "get_engine",
    "parse_engine_spec",
    "register_engine",
    *_BATCH_EXPORTS,
]


def __getattr__(name):
    if name in _BATCH_EXPORTS:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_BATCH_EXPORTS))
