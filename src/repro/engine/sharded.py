"""The ``sharded`` engine — per-round kernels over contiguous CSR node ranges.

The CSR arrays are partitioned into ``num_shards`` contiguous node-range shards;
each synchronous round executes the compact-elimination kernel shard-by-shard,
every shard reading the previous round's full surviving-number vector and
writing only its own range.  Synchronous-round semantics are therefore exact,
while peak memory for the frontier arrays (gathered neighbour values, sort
permutation, prefix sums — the ``O(m)`` part) is bounded by the largest shard
instead of the whole graph.

``max_workers`` selects how the shards of a round run:

* ``None`` (default) — in sequence, which caps peak frontier memory at a
  single shard;
* ``N`` — on the engine's reusable ``N``-thread
  ``concurrent.futures.ThreadPoolExecutor`` (NumPy releases the GIL in the
  sort and reduction kernels, so threads give partial parallelism without
  copying the CSR arrays); the GIL still serialises the Python-level parts.

Like every trajectory engine, it writes the ``(T+1) × n`` output trajectory
to a RAM array unless :meth:`ShardedEngine.trajectory` is handed an ``out=``
append-trajectory sink (:mod:`repro.store.traj`): completed rounds are then
appended to that ``.traj`` file and only two rows stay resident.  A
store-backed :class:`~repro.session.Session` opens that sink on the store's
own file once the trajectory reaches :data:`repro.session.SPILL_BYTES`, for
cold runs, prefix resumes and a delta child's frontier re-solve alike.

Every shard plan and thread count produces bit-identical trajectories: the
kernels run the same float64 operations in the same order whether the rows
they write are in RAM or appended to the file (the cross-engine equivalence
suite pins this down to the float64 representation).
"""

from __future__ import annotations

import weakref
from typing import Optional

import numpy as np

from repro.engine.kernels import compact_trajectory, shard_plan
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import AlgorithmError
from repro.obs import trace as obs_trace

#: Target number of nodes per shard when ``num_shards`` is not given.
DEFAULT_SHARD_NODES = 16384


class ShardedEngine(TrajectoryEngine):
    """Bounded-memory engine: rounds execute shard-by-shard over node ranges.

    Parameters
    ----------
    num_shards:
        Number of contiguous node-range shards (clamped to ``n``).  ``None``
        sizes shards automatically to about :data:`DEFAULT_SHARD_NODES` nodes —
        and to at least ``max_workers`` shards, so every thread has a range
        to own.
    max_workers:
        Size of the thread pool that runs each round's shards; ``None`` (the
        memory-bounded default) runs them in sequence — see the module
        docstring.
    """

    name = "sharded"

    def __init__(self, num_shards: Optional[int] = None,
                 max_workers: Optional[int] = None, **unknown) -> None:
        if unknown:
            raise AlgorithmError(
                f"invalid options {sorted(unknown)} for engine 'sharded'; it "
                f"takes num_shards and max_workers")
        if num_shards is not None and num_shards < 1:
            raise AlgorithmError(f"num_shards must be >= 1, got {num_shards}")
        if max_workers is not None and max_workers < 1:
            raise AlgorithmError(f"max_workers must be >= 1, got {max_workers}")
        self.num_shards = num_shards
        self.max_workers = max_workers
        #: lazily created thread pool, reused across trajectory() calls (a
        #: fresh pool per call pays thread spawn/teardown on every warm
        #: request); close() or garbage collection shuts it down.
        self._thread_pool = None
        self._pool_finalizer = None

    # ---------------------------------------------------------------- execution
    def plan_for(self, num_nodes: int):
        """The shard plan (contiguous ``[lo, hi)`` ranges) used for ``num_nodes``."""
        if self.num_shards is not None:
            shards = self.num_shards
        else:
            # Auto-sizing must not starve the pool: plan at least one range
            # per thread (still clamped to n inside shard_plan).
            shards = max(-(-num_nodes // DEFAULT_SHARD_NODES),
                         self.max_workers or 1)
        return shard_plan(num_nodes, shards)

    def _ensure_thread_pool(self):
        """The engine's reusable thread pool (created on first threaded run).

        One pool per engine instance, shut down by :meth:`close` — and, as a
        backstop, by a ``weakref.finalize`` when the engine is collected — so
        warm requests stop paying thread spawn/teardown per ``trajectory()``
        call.
        """
        pool = self._thread_pool
        if pool is None:
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=self.max_workers,
                                      thread_name_prefix="repro-sharded")
            self._thread_pool = pool
            self._pool_finalizer = weakref.finalize(
                self, pool.shutdown, wait=False)
        return pool

    def close(self) -> None:
        """Release pooled resources (idempotent; the engine stays usable)."""
        pool, self._thread_pool = self._thread_pool, None
        if pool is not None:
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            pool.shutdown(wait=True)

    def trajectory(self, csr, rounds, *, lam=0.0, prefix=None,
                   frontier=None, out=None) -> np.ndarray:
        plan = self.plan_for(csr.num_nodes)
        shard_map = None
        if self.max_workers is not None and len(plan) > 1:
            shard_map = self._ensure_thread_pool().map
        with obs_trace.span(
                "engine.trajectory", shards=len(plan),
                workers=self.max_workers or 1,
                trajectory="memory" if out is None else "mmap"):
            return compact_trajectory(csr, rounds, lam=lam, plan=plan,
                                      shard_map=shard_map, prefix=prefix,
                                      out=out, warm=frontier)

    def describe(self) -> str:
        shards = self.num_shards if self.num_shards is not None \
            else f"auto(~{DEFAULT_SHARD_NODES} nodes)"
        workers = "sequential" if self.max_workers is None \
            else f"{self.max_workers} threads"
        return f"sharded (shards={shards}, workers={workers})"
