"""The ``vectorized`` engine — whole-graph NumPy kernels, one call per round.

Also home of :class:`TrajectoryEngine`, the shared base class for every engine
that computes the full per-round trajectory on a CSR view (the sharded engine
subclasses it with a different round executor).
"""

from __future__ import annotations

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
        with obs_trace.span("engine.run", engine=self.name, rounds=rounds,
                            lam=lam, n=csr.num_nodes):
            if isinstance(warm_start, FrontierWarmStart):
                # Frontier rounds stop at a too-wide frontier; full rounds
                # resume after the exact rows they returned.
                trajectory = self.trajectory(csr, rounds, lam=lam,
                                             frontier=warm_start, out=out)
                if trajectory.shape[0] <= rounds:
                    trajectory = self.trajectory(csr, rounds, lam=lam,
                                                 prefix=trajectory, out=out)
            else:
                trajectory = self.trajectory(csr, rounds, lam=lam,
                                             prefix=warm_start, out=out)
            return self.assemble(csr, trajectory, rounds, grid,
                                 tie_break=tie_break, track_kept=track_kept)

    @staticmethod
    def assemble(csr, trajectory, rounds, grid, *, tie_break="history",
                 track_kept=True):
        """Build the :class:`SurvivingNumbers` for a computed trajectory.

        The single assembly path for trajectory-backed results: the engines
        call it after computing rounds, and :class:`repro.session.Session`
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

    def trajectory(self, csr, rounds, *, lam=0.0, prefix=None,
                   frontier=None, out=None) -> np.ndarray:
        """The ``(rounds + 1, n)`` per-round surviving-number trajectory.

        ``prefix`` is an optional earlier trajectory of the same CSR view and λ;
        subclasses resume after its last row (see
        :func:`repro.engine.kernels.compact_trajectory`).  With a
        ``frontier`` warm start, the rows may stop short (see
        :func:`repro.engine.kernels.frontier_trajectory`).  With an ``out``
        sink the rows are appended to its file, and its published rows are
        a prefix too.
        """
        raise NotImplementedError


class VectorizedEngine(TrajectoryEngine):
    """Fast path: every round is a single whole-graph kernel invocation."""

    name = "vectorized"

    def trajectory(self, csr, rounds, *, lam=0.0, prefix=None,
                   frontier=None, out=None) -> np.ndarray:
        # One loop under two names, so a trace tells frontier rounds apart.
        if frontier is not None:
            return frontier_trajectory(csr, rounds, lam=lam, warm=frontier,
                                       out=out)
        return compact_trajectory(csr, rounds, lam=lam, prefix=prefix,
                                  out=out)

    def describe(self) -> str:
        return "vectorized (whole-graph NumPy kernels)"
