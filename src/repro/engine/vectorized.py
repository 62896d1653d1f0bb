"""The ``vectorized`` engine — whole-graph NumPy kernels, one call per round.

Also home of :class:`TrajectoryEngine`, the shared base class for every engine
that computes the full per-round trajectory on a CSR view (the sharded engine
subclasses it with a different round executor).
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.engine.base import Engine
from repro.engine.kernels import (FrontierWarmStart, compact_trajectory,
                                  frontier_trajectory)
from repro.errors import AlgorithmError
from repro.obs import trace as obs_trace


class TrajectoryEngine(Engine):
    """Base class for CSR-trajectory engines (vectorized, sharded, ...).

    Subclasses implement :meth:`trajectory`; this class handles argument
    validation, CSR conversion, label mapping and the recovery of the auxiliary
    orientation subsets from the trajectory.
    """

    def run(self, graph, rounds, *, lam=0.0, tie_break="history", track_kept=True,
            csr=None, grid=None, warm_start=None):
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
        with obs_trace.span("engine.run", engine=self.name, rounds=rounds,
                            lam=lam, n=csr.num_nodes):
            if isinstance(warm_start, FrontierWarmStart):
                # Delta-derived graph: try the frontier-restricted re-solve
                # against the parent trajectory.  It shares the per-round
                # kernel with every trajectory engine, so one branch here
                # covers the vectorized engine and all sharded modes; a None
                # return (parent too short, frontier too wide) falls through
                # to the ordinary cold path below.
                trajectory = frontier_trajectory(csr, rounds, lam=lam,
                                                 warm=warm_start)
                if trajectory is not None:
                    return self.assemble(csr, trajectory, rounds, grid,
                                         tie_break=tie_break,
                                         track_kept=track_kept)
                warm_start = None
            if warm_start is not None and self._trajectory_accepts_prefix():
                trajectory = self.trajectory(csr, rounds, lam=lam,
                                             prefix=warm_start)
            else:
                # Subclasses written against the original hint-free
                # trajectory() signature keep working: they just recompute
                # every round.
                trajectory = self.trajectory(csr, rounds, lam=lam)
            return self.assemble(csr, trajectory, rounds, grid,
                                 tie_break=tie_break, track_kept=track_kept)

    def _trajectory_accepts_prefix(self) -> bool:
        cached = getattr(self, "_prefix_support", None)
        if cached is None:
            params = inspect.signature(self.trajectory).parameters
            cached = "prefix" in params or any(
                p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())
            self._prefix_support = cached
        return cached

    @staticmethod
    def assemble(csr, trajectory, rounds, grid, *, tie_break="history",
                 track_kept=True):
        """Build the :class:`SurvivingNumbers` for a computed trajectory.

        The single assembly path for trajectory-backed results: the engines
        call it after computing rounds, and :class:`repro.session.Session`
        calls it when a request is served entirely from a cached trajectory —
        keeping both field-for-field identical by construction.
        """
        from repro.core.surviving import SurvivingNumbers

        labels = csr.labels()
        values = dict(zip(labels, trajectory[rounds].tolist()))
        kept = {v: () for v in labels}
        if track_kept:
            from repro.core.orientation import kept_sets_from_trajectory

            kept = kept_sets_from_trajectory(csr, trajectory, tie_break=tie_break)
        return SurvivingNumbers(values=values, kept=kept, rounds=rounds, grid=grid,
                                num_nodes=csr.num_nodes, trajectory=trajectory,
                                node_order=labels)

    def trajectory(self, csr, rounds, *, lam=0.0, prefix=None) -> np.ndarray:
        """The ``(rounds + 1, n)`` per-round surviving-number trajectory.

        ``prefix`` is an optional earlier trajectory of the same CSR view and λ;
        subclasses resume after its last row (see
        :func:`repro.engine.kernels.compact_trajectory`).
        """
        raise NotImplementedError


class VectorizedEngine(TrajectoryEngine):
    """Fast path: every round is a single whole-graph kernel invocation."""

    name = "vectorized"

    def trajectory(self, csr, rounds, *, lam=0.0, prefix=None) -> np.ndarray:
        return compact_trajectory(csr, rounds, lam=lam, prefix=prefix)

    def describe(self) -> str:
        return "vectorized (whole-graph NumPy kernels)"
