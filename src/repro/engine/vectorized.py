"""The trajectory engine: Algorithm 2's rounds on a CSR view, over a shard plan.

In Algorithm 2 every node reads only its neighbours' previous-round values, so
a *shard plan* of contiguous ``[lo, hi)`` node ranges merely splits a round's
rows: each range runs the same kernel on the previous round's full vector.
:class:`TrajectoryEngine` is registered under two names:

* ``vectorized`` (alias ``numpy``) — the one-range plan, one whole-graph
  kernel call per round; it takes no option;
* ``sharded`` — ``num_shards`` ranges (about :data:`DEFAULT_SHARD_NODES` nodes
  each when unset), which bounds a round's ``O(m)`` frontier arrays by the
  largest range; ``max_workers=N`` runs each round's ranges on a reusable
  ``N``-thread pool (NumPy releases the GIL in the sort and reduction
  kernels), else they run in sequence.

Every plan runs cold runs and prefix resumes through :func:`compact_trajectory`
and a delta child's frontier re-solve through :func:`frontier_trajectory`,
both resolved from this module, so a trace attributes the rounds alike
whatever the plan.  Every plan and thread count gives bit-identical
trajectories on integer and dyadic weights, in RAM or appended to an ``out=``
sink (the cross-engine equivalence suite pins this).
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.engine.base import Engine
from repro.engine.kernels import (FrontierWarmStart, compact_trajectory,
                                  frontier_trajectory, shard_plan)
from repro.errors import AlgorithmError
from repro.obs import trace as obs_trace

#: Target number of nodes per shard when ``num_shards`` is not given.
DEFAULT_SHARD_NODES = 16384


class TrajectoryEngine(Engine):
    """Algorithm 2 on a CSR view, one shard plan per round.

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

    The registry's ``vectorized`` factory builds ``num_shards=1`` and sets the
    instance's ``name`` to ``"vectorized"``.
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
        #: lazily created thread pool, reused across runs (a fresh pool per
        #: run pays thread spawn/teardown on every warm request); close() or
        #: garbage collection shuts it down.
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
        backstop, by a ``weakref.finalize`` when the engine is collected.
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

    def run(self, graph, rounds, *, lam=0.0, tie_break="history", track_kept=True,
            csr=None, grid=None, warm_start=None, out=None):
        """:meth:`Engine.run`, plus ``out``: an optional
        :class:`~repro.store.traj.AppendTrajectory` sink of this view and λ
        that every round of the run appends to (the returned trajectory then
        maps its file); the caller opens and closes it."""
        from repro.core.rounding import grid_for_graph
        from repro.core.surviving import TIE_BREAK_RULES
        from repro.graph.csr import graph_to_csr

        if tie_break not in TIE_BREAK_RULES:
            raise AlgorithmError(
                f"unknown tie_break rule {tie_break!r}; expected one of {TIE_BREAK_RULES}")
        if rounds < 1:
            raise AlgorithmError(f"rounds must be >= 1, got {rounds}")
        if csr is None:
            csr = graph_to_csr(graph)
        if grid is None:
            grid = grid_for_graph(graph, lam, csr=csr)
        plan = self.plan_for(csr.num_nodes)
        shard_map = None
        if self.max_workers is not None and len(plan) > 1:
            shard_map = self._ensure_thread_pool().map
        loop = {"lam": lam, "plan": plan, "shard_map": shard_map, "out": out}
        with obs_trace.span("engine.run", engine=self.name, rounds=rounds,
                            lam=lam, n=csr.num_nodes, shards=len(plan),
                            workers=self.max_workers or 1):
            # One loop under two names, so a trace tells frontier rounds
            # apart.  Frontier rounds stop at a too-wide frontier; full
            # rounds resume after the exact rows they returned.
            if isinstance(warm_start, FrontierWarmStart):
                trajectory = frontier_trajectory(csr, rounds, warm=warm_start,
                                                 **loop)
                if trajectory.shape[0] <= rounds:
                    trajectory = compact_trajectory(csr, rounds,
                                                    prefix=trajectory, **loop)
            else:
                trajectory = compact_trajectory(csr, rounds, prefix=warm_start,
                                                **loop)
            return self.assemble(csr, trajectory, rounds, grid,
                                 tie_break=tie_break, track_kept=track_kept)

    @staticmethod
    def assemble(csr, trajectory, rounds, grid, *, tie_break="history",
                 track_kept=True):
        """Build the :class:`SurvivingNumbers` for a computed trajectory.

        The single assembly path for trajectory-backed results: the engine
        calls it after computing rounds, and :class:`repro.session.Session`
        calls it when a request is served entirely from a cached trajectory —
        keeping both field-for-field identical by construction.  The values
        are a :class:`~repro.core.orientation.NodeValues` over a copy of the
        trajectory's last row, so the answer does not depend on where the
        trajectory lives (RAM or a ``.traj`` memmap), and the kept sets a
        :class:`~repro.core.orientation.KeptSets` on ``csr`` (empty when
        ``track_kept`` is off).
        """
        from repro.core.orientation import (KeptSets, NodeValues,
                                            kept_sets_from_trajectory)
        from repro.core.surviving import SurvivingNumbers

        labels = csr.labels()
        values = NodeValues(labels, trajectory[rounds])
        if track_kept:
            kept = kept_sets_from_trajectory(csr, trajectory, tie_break=tie_break)
        else:
            kept = KeptSets.empty(labels, view=csr)
        return SurvivingNumbers(values=values, kept=kept, rounds=rounds, grid=grid,
                                num_nodes=csr.num_nodes, trajectory=trajectory,
                                node_order=labels)

    def describe(self) -> str:
        # The one-range ``vectorized`` spelling keeps its own line, which
        # ``repro engines`` and ``Session.describe()`` print; it must not change.
        if self.name == "vectorized":
            return "vectorized (whole-graph NumPy kernels)"
        shards = self.num_shards if self.num_shards is not None \
            else f"auto(~{DEFAULT_SHARD_NODES} nodes)"
        workers = "sequential" if self.max_workers is None \
            else f"{self.max_workers} threads"
        return f"{self.name} (shards={shards}, workers={workers})"
