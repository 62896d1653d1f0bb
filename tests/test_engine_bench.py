"""Timing comparisons of the array fast paths (excluded from tier-1).

Run with ``python -m pytest -m bench`` (see pytest.ini).  Each test pins that
a fast path beats its slower twin on graphs small enough to run anywhere:
the sharded engine against vectorized, the batched kept-set reconstruction
against the per-node reference loop, the array densest pipeline against
the faithful simulator, and a delta child's spliced CSR view against a full
build.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import get_engine
from repro.graph.generators.random_graphs import barabasi_albert, erdos_renyi_gnp


def _small_graphs():
    """A 2,000-node BA and ER graph, the sizes the fast-path checks run on."""
    return [barabasi_albert(2_000, 3, seed=99),
            erdos_renyi_gnp(2_000, 6.0 / 2_000, seed=100)]


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.bench
def test_sharded_within_2x_of_vectorized():
    graph = barabasi_albert(30_000, 3, seed=77)
    rounds = 8
    vec = get_engine("vectorized")
    sharded = get_engine("sharded", num_shards=8)
    vec.run(graph, 2, track_kept=False)  # warm-up (CSR conversion dominates cold)
    vec_seconds = _best_of(lambda: vec.run(graph, rounds, track_kept=False))
    sharded_seconds = _best_of(lambda: sharded.run(graph, rounds, track_kept=False))
    assert sharded_seconds <= 2.0 * vec_seconds + 0.05, \
        f"sharded {sharded_seconds:.3f}s vs vectorized {vec_seconds:.3f}s"


@pytest.mark.bench
def test_batch_runner_amortises_csr_conversion():
    from repro.engine import BatchJob, BatchRunner

    graph = barabasi_albert(10_000, 3, seed=78)
    runner = BatchRunner("vectorized")
    start = time.perf_counter()
    runner.run_job(BatchJob(graph=graph, rounds=4))
    cold = time.perf_counter() - start
    start = time.perf_counter()
    runner.run_job(BatchJob(graph=graph, rounds=4))
    warm = time.perf_counter() - start
    assert warm <= cold  # second job reuses the cached CSR view


@pytest.mark.bench
@pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
def test_batched_kept_sets_beat_the_reference_loop(tie_break):
    from oracles import kept_sets_from_trajectory_reference
    from repro.core.orientation import kept_sets_from_trajectory
    from repro.engine.kernels import compact_trajectory
    from repro.graph.csr import graph_to_csr

    for graph in _small_graphs():
        csr = graph_to_csr(graph)
        trajectory = compact_trajectory(csr, 10)
        reference = _best_of(lambda: kept_sets_from_trajectory_reference(
            csr, trajectory, tie_break=tie_break))
        batched = _best_of(lambda: kept_sets_from_trajectory(
            csr, trajectory, tie_break=tie_break))
        assert batched < reference, \
            f"batched {batched:.4f}s vs reference {reference:.4f}s"


@pytest.mark.bench
def test_array_densest_beats_the_faithful_pipeline():
    from repro.core.densest import weak_densest_subsets

    for graph in _small_graphs():
        start = time.perf_counter()
        weak_densest_subsets(graph, rounds=3)
        faithful = time.perf_counter() - start
        array = _best_of(lambda: weak_densest_subsets(graph, rounds=3,
                                                      engine="array"))
        assert array < faithful, \
            f"array {array:.4f}s vs faithful {faithful:.4f}s"


@pytest.mark.bench
def test_spliced_child_view_beats_a_full_build():
    # A splice that quietly fell back to the full build would still pass
    # every equivalence test; only its speed tells them apart.
    from repro.graph.csr import graph_to_csr
    from repro.graph.delta import GraphDelta, apply_delta, changed_labels

    graph = barabasi_albert(20_000, 3, seed=79)
    parent = graph_to_csr(graph)
    delta = GraphDelta(add_edges=[(0, 19_999, 1.0)])
    child = apply_delta(graph, delta)
    touched = changed_labels(delta)
    full = _best_of(lambda: graph_to_csr(child), repeats=5)
    spliced = _best_of(lambda: graph_to_csr(child, parent=parent,
                                            touched=touched), repeats=5)
    assert 5.0 * spliced <= full, \
        f"spliced {spliced * 1e3:.2f} ms vs full build {full * 1e3:.2f} ms"
