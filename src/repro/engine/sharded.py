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

Orthogonally, ``trajectory_storage`` selects where the *output* — the
``(T+1) × n`` elimination trajectory, the single largest allocation at scale —
lives during the run:

* ``None`` (auto) — in memory, unless a storage directory has been bound (a
  :class:`~repro.session.Session` with a persistent store binds its root) and
  the full trajectory would reach :data:`SPILL_BYTES`;
* ``"memory"`` — always a RAM array;
* ``"mmap"`` — completed rounds are *appended* to
  ``<storage_dir>/<fingerprint>/trajectory-lam<λ>.traj/`` (the append-only
  artifact of :mod:`repro.store.traj`, published with atomic header updates),
  only a sliding window of two rows stays resident, and the returned
  trajectory is a read-only ``np.memmap`` over the published prefix.  The
  rows already on disk are their own warm start: a fresh engine pointed at
  the same directory resumes after the last published round, which is also
  what makes a crash-interrupted run recoverable (at most the un-published
  round is lost, never a readable prefix).  A delta-derived graph's
  frontier re-solve appends to its own file the same way.

All modes produce bit-identical trajectories: the kernels run the same float64
operations in the same order whether the rows they write are in RAM or
appended to the file (the cross-engine equivalence suite pins this down to the
float64 representation).
"""

from __future__ import annotations

import tempfile
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from repro.engine.kernels import compact_trajectory, shard_plan
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import AlgorithmError
from repro.graph.csr import csr_fingerprint
from repro.obs import trace as obs_trace

#: Target number of nodes per shard when ``num_shards`` is not given.
DEFAULT_SHARD_NODES = 16384

#: Accepted values of the ``trajectory_storage`` option (``None`` = auto:
#: spill to a bound directory only when the full trajectory reaches
#: :data:`SPILL_BYTES`).
TRAJECTORY_STORAGE_MODES = (None, "memory", "mmap")

#: Auto-spill threshold: a ``(T+1) × n`` float64 trajectory of this many
#: bytes or more is appended to the store's ``.traj`` file when a storage
#: directory is bound (256 MiB).  Read when a run decides whether to spill.
SPILL_BYTES = 256 * 1024 * 1024


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
    storage_dir:
        Root directory for spilled ``.traj`` files (the artifact-store root
        when a session binds one).  ``trajectory_storage="mmap"`` without a
        directory spills into a private temporary directory owned by the
        engine instance.
    trajectory_storage:
        ``None`` (auto-spill when a directory is bound and the trajectory is
        big), ``"memory"`` (always a RAM array) or ``"mmap"`` (append rounds
        to the on-disk ``.traj`` buffer) — see the module docstring.
    """

    name = "sharded"

    #: Session wiring hook: engines exposing this accept a bound storage root.
    supports_mmap = True

    def __init__(self, num_shards: Optional[int] = None,
                 max_workers: Optional[int] = None,
                 storage_dir=None,
                 trajectory_storage: Optional[str] = None,
                 **unknown) -> None:
        if unknown:
            raise AlgorithmError(
                f"invalid options {sorted(unknown)} for engine 'sharded'; it "
                f"takes num_shards, max_workers, storage_dir and "
                f"trajectory_storage")
        if num_shards is not None and num_shards < 1:
            raise AlgorithmError(f"num_shards must be >= 1, got {num_shards}")
        if max_workers is not None and max_workers < 1:
            raise AlgorithmError(f"max_workers must be >= 1, got {max_workers}")
        if isinstance(trajectory_storage, str):
            trajectory_storage = trajectory_storage.strip().lower() or None
            if trajectory_storage in ("none", "auto"):
                trajectory_storage = None
        if trajectory_storage not in TRAJECTORY_STORAGE_MODES:
            raise AlgorithmError(
                f"unknown trajectory_storage mode {trajectory_storage!r}; "
                f"expected one of 'memory', 'mmap' or 'auto'")
        self.num_shards = num_shards
        self.max_workers = max_workers
        self.trajectory_storage = trajectory_storage
        self.storage_dir = Path(storage_dir) if storage_dir is not None else None
        self._private_dir: Optional[tempfile.TemporaryDirectory] = None
        #: whether storage_dir came from bind_storage (a session's store)
        #: rather than the constructor — rebinding to a *different* store is
        #: then a configuration error, not something to silently ignore.
        self._bound_dir = False
        #: lazily created thread pool, reused across trajectory() calls (a
        #: fresh pool per call pays thread spawn/teardown on every warm
        #: request); close() or garbage collection shuts it down.
        self._thread_pool = None
        self._pool_finalizer = None

    # ------------------------------------------------------------------ storage
    def bind_storage(self, root) -> None:
        """Give the engine a directory for spilled trajectories.

        Called by :class:`~repro.session.Session` when a persistent store is
        configured, so spilled runs append to the store's own ``.traj``
        files.  An explicitly constructed ``storage_dir`` wins — binding
        never overrides it — but binding one engine instance to *two
        different* stores is a configuration error (the second store's
        sessions would silently spill into the first store's root, which its
        ``purge``/``evict`` then own) and raises.
        """
        root = Path(root)
        if self.storage_dir is None:
            self.storage_dir = root
            self._bound_dir = True
        elif self._bound_dir and self.storage_dir != root:
            raise AlgorithmError(
                f"engine already spills into {self.storage_dir}; one engine "
                f"instance cannot serve a second store at {root} — construct "
                f"a separate engine (or pass storage_dir=) per store")

    def _storage_root(self) -> Path:
        """The directory spilled trajectories live under (a private temporary
        directory when none is set or bound)."""
        if self.storage_dir is not None:
            return self.storage_dir
        if self._private_dir is None:
            self._private_dir = tempfile.TemporaryDirectory(prefix="repro-mmap-")
        return Path(self._private_dir.name)

    def _uses_traj_mmap(self, csr, rounds: int) -> bool:
        """Whether this run appends its trajectory to a mapped ``.traj`` file."""
        if self.trajectory_storage == "mmap":
            return True
        if self.trajectory_storage == "memory":
            return False
        if self.storage_dir is None:
            return False
        return (int(rounds) + 1) * csr.num_nodes * 8 >= SPILL_BYTES

    def _trajectory_sink(self, csr, rounds: int, lam: float):
        """The :class:`~repro.store.traj.AppendTrajectory` sink, or None.

        Keyed by the CSR content fingerprint (memoised on the view) and
        canonical λ under the store's per-fingerprint layout, so a session's
        store and the engine read/write the very same file.
        """
        if csr.num_nodes < 1 or not self._uses_traj_mmap(csr, rounds):
            return None
        from repro.store.traj import AppendTrajectory

        return AppendTrajectory.open(self._storage_root(), csr_fingerprint(csr),
                                     lam, num_nodes=csr.num_nodes)

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
                   frontier=None) -> np.ndarray:
        plan = self.plan_for(csr.num_nodes)
        shard_map = None
        if self.max_workers is not None and len(plan) > 1:
            shard_map = self._ensure_thread_pool().map
        sink = self._trajectory_sink(csr, rounds, lam)
        try:
            with obs_trace.span(
                    "engine.trajectory", shards=len(plan),
                    workers=self.max_workers or 1,
                    trajectory="mmap" if sink is not None else "memory"):
                return compact_trajectory(csr, rounds, lam=lam, plan=plan,
                                          shard_map=shard_map, prefix=prefix,
                                          out=sink, warm=frontier)
        finally:
            if sink is not None:
                sink.close()

    def describe(self) -> str:
        shards = self.num_shards if self.num_shards is not None \
            else f"auto(~{DEFAULT_SHARD_NODES} nodes)"
        workers = "sequential" if self.max_workers is None \
            else f"{self.max_workers} threads"
        trajectory = self.trajectory_storage or (
            "auto" if self.storage_dir is not None else "memory")
        return (f"sharded (shards={shards}, workers={workers}, "
                f"trajectory={trajectory})")
