"""The ``faithful`` engine — the per-node protocol on the distsim simulator.

This is the reference implementation of Algorithm 2: every node is an actual
:class:`~repro.core.surviving.CompactEliminationProtocol` instance exchanging
messages on the synchronous simulator, so message counts/sizes are accounted and
fault models apply.  It is orders of magnitude slower than the array engines and
is used for semantics (the equivalence suite pins the array engines to it) and
for the message-size experiments.
"""

from __future__ import annotations

from repro.engine.base import Engine
from repro.obs import trace as obs_trace


class FaithfulEngine(Engine):
    """Reference engine: the faithful per-node message-passing protocol."""

    name = "faithful"

    def run(self, graph, rounds, *, lam=0.0, tie_break="history", track_kept=True,
            csr=None, grid=None, warm_start=None):
        from repro.core.surviving import run_compact_elimination

        # csr/grid/warm_start hints are ignored: the simulator replays every
        # round per node anyway (the message accounting depends on it).
        with obs_trace.span("engine.run", engine=self.name, rounds=rounds,
                            lam=lam):
            result, _ = run_compact_elimination(graph, rounds, lam=lam,
                                                tie_break=tie_break,
                                                track_kept=track_kept)
        return result

    def describe(self) -> str:
        return "faithful (per-node simulator, message statistics)"
