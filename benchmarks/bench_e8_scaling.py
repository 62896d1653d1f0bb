"""E8 — engine scaling: wall-clock time and message traffic vs graph size.

Times the vectorised NumPy engine and the faithful per-node simulator on growing
Barabási–Albert graphs; also reports the total message count / traffic of the
simulated protocol (the quantity a real deployment would pay).
"""

from __future__ import annotations

from conftest import run_and_report

from repro.analysis.experiments import experiment_e8_scaling


def test_e8_engine_scaling(benchmark):
    rows = run_and_report(
        benchmark,
        lambda: experiment_e8_scaling(sizes=(200, 500, 1000, 2000), rounds=10,
                                      include_simulation=True),
        "E8: vectorised engine vs per-node simulator scaling (BA graphs, T = 10)",
    )
    assert all(row["vectorized_seconds"] >= 0.0 for row in rows)


def test_e8_vectorized_round_kernel(benchmark):
    """Micro-benchmark of the per-round vectorised kernel itself (pytest-benchmark stats)."""
    from repro.core.rounding import LambdaGrid
    from repro.engine.kernels import compact_round
    from repro.graph.csr import graph_to_csr
    from repro.graph.generators.random_graphs import barabasi_albert

    graph = barabasi_albert(3000, 4, seed=99)
    csr = graph_to_csr(graph)
    current = csr.degrees()
    grid = LambdaGrid(lam=0.0)

    benchmark(lambda: compact_round(csr, current, grid))
