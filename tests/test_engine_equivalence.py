"""Cross-engine equivalence property suite.

The contract of the execution layer (repro.engine) is that every engine —
``faithful`` (per-node protocol), ``vectorized`` (whole-graph kernels) and
``sharded`` (shard-by-shard kernels, any shard count) — computes *identical*
per-round surviving numbers, kept sets and orientations.

The graph corpus below has ~50 seeded cases covering self-loops, integer and
dyadic edge weights, disconnected pieces, isolated nodes, stars/cycles/paths,
dense cliques and random graphs.  All weights are integers or dyadic rationals,
so every intermediate weight sum is exactly representable in float64 and the
equality assertions are *bit-identical*, not approximate (see the numerical
note in :mod:`repro.engine.kernels`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.orientation import orientation_from_kept
from repro.core.surviving import run_compact_elimination
from repro.engine import get_engine
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import SimulationError
from repro.graph.generators.community import core_periphery, planted_partition
from repro.graph.generators.random_graphs import barabasi_albert, erdos_renyi_gnp
from repro.graph.generators.structured import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.weights import with_uniform_integer_weights
from repro.graph.graph import Graph


def _with_dyadic_weights(graph: Graph, seed: int) -> Graph:
    """Re-weight edges with dyadic rationals (k/4) so float sums stay exact."""
    rng = np.random.default_rng(seed)
    g = Graph(nodes=graph.nodes())
    for u, v, _ in graph.edges():
        g.add_edge(u, v, float(rng.integers(1, 16)) / 4.0)
    return g


def _with_self_loops(graph: Graph, seed: int, *, every: int = 3) -> Graph:
    """Add integer-weight self-loops to every ``every``-th node."""
    rng = np.random.default_rng(seed)
    g = graph.copy()
    for i, v in enumerate(list(graph.nodes())):
        if i % every == 0:
            g.add_edge(v, v, float(rng.integers(1, 5)))
    return g


def _with_isolated_nodes(graph: Graph, count: int) -> Graph:
    g = graph.copy()
    for i in range(count):
        g.add_node(f"iso{i}")
    return g


def _single_node() -> Graph:
    g = Graph()
    g.add_node("only")
    return g


def _single_node_with_loop() -> Graph:
    return Graph(edges=[("only", "only", 3.0)])


def _two_components(seed: int) -> Graph:
    g = complete_graph(4)
    h = cycle_graph(5)
    combined = Graph()
    for u, v, w in g.edges():
        combined.add_edge(("a", u), ("a", v), w)
    for u, v, w in h.edges():
        combined.add_edge(("b", u), ("b", v), w)
    return with_uniform_integer_weights(combined, 1, 4, seed=seed)


def _corpus():
    """~50 (name, graph, rounds) cases; all weights integer or dyadic."""
    cases = []

    def add(name, graph, rounds=3):
        cases.append(pytest.param(graph, rounds, id=f"{name}"))

    # Random graphs — several seeds, may contain isolated nodes / many components.
    for seed in range(8):
        add(f"er-sparse-{seed}", erdos_renyi_gnp(30, 0.06, seed=seed))
    for seed in range(4):
        add(f"er-dense-{seed}", erdos_renyi_gnp(24, 0.3, seed=100 + seed), 4)
    for seed in range(6):
        g = barabasi_albert(40, 2, seed=200 + seed)
        add(f"ba-weighted-{seed}", with_uniform_integer_weights(g, 1, 7, seed=seed))
    for seed in range(4):
        add(f"dyadic-{seed}", _with_dyadic_weights(erdos_renyi_gnp(26, 0.12, seed=seed),
                                                   seed=300 + seed))
    # Self-loops (quotient-graph semantics) layered over several topologies.
    for seed in range(4):
        base = erdos_renyi_gnp(22, 0.12, seed=400 + seed)
        add(f"loops-{seed}", _with_self_loops(base, seed=seed))
    add("loops-on-clique", _with_self_loops(complete_graph(7), seed=1))
    add("loops-on-star", _with_self_loops(star_graph(9), seed=2))
    # Disconnected pieces and isolated nodes.
    for seed in range(3):
        add(f"two-components-{seed}", _two_components(seed))
    for seed in range(3):
        add(f"isolated-{seed}",
            _with_isolated_nodes(erdos_renyi_gnp(18, 0.15, seed=500 + seed), 4))
    add("all-isolated", Graph(nodes=range(6)))
    # Structured graphs.
    add("k2", complete_graph(2))
    add("k6", complete_graph(6))
    add("k10", complete_graph(10), 2)
    add("path9", path_graph(9), 5)
    add("cycle8", cycle_graph(8))
    add("star12", star_graph(12))
    add("grid5x4", grid_graph(5, 4), 4)
    add("single-node", _single_node(), 2)
    add("single-node-loop", _single_node_with_loop(), 2)
    add("weighted-grid", with_uniform_integer_weights(grid_graph(4, 4), 1, 5, seed=13), 4)
    add("weighted-cycle", with_uniform_integer_weights(cycle_graph(10), 1, 9, seed=14), 4)
    add("weighted-path", with_uniform_integer_weights(path_graph(7), 2, 6, seed=15), 4)
    add("dyadic-star", _with_dyadic_weights(star_graph(8), seed=16))
    # Community structure.
    add("planted", planted_partition(2, 12, 0.7, 0.05, seed=42))
    add("core-periphery", core_periphery(8, 20, attach_degree=2, seed=9))
    add("planted-weighted",
        with_uniform_integer_weights(planted_partition(3, 8, 0.6, 0.05, seed=7), 1, 3, seed=8))
    return cases


CORPUS = _corpus()

#: Shard counts exercised per graph: trivial (1), small, and >= n (clamped).
SHARD_COUNTS = (1, 2, 5, 10_000)


def _shard_variants(graph):
    return [TrajectoryEngine(num_shards=k) for k in SHARD_COUNTS] + \
        [TrajectoryEngine(num_shards=3, max_workers=2)]


#: Out-of-core output: every trajectory engine, sequential and threaded,
#: appending its rounds to an explicit ``out=`` .traj appender — the
#: bit-identity contract covers the spilled trajectory too.
SPILLED_ENGINES = ("vectorized", "sharded:3", "sharded:shards=3,workers=2")


def _spilled_runs(graph, rounds, root):
    """One run per :data:`SPILLED_ENGINES` spec, each appending to its own
    appender under ``root`` (none on the empty graph: no rows to append)."""
    from repro.graph.csr import csr_fingerprint, graph_to_csr
    from repro.store import AppendTrajectory

    csr = graph_to_csr(graph)
    if csr.num_nodes == 0:
        return
    for k, spec in enumerate(SPILLED_ENGINES):
        with AppendTrajectory.open(root / str(k), csr_fingerprint(csr), 0.0,
                                   num_nodes=csr.num_nodes) as sink:
            result = get_engine(spec).run(graph, rounds, track_kept=True,
                                          out=sink)
        assert isinstance(result.trajectory, np.memmap), spec
        yield result


class TestCorpusSize:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 50


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("graph, rounds", CORPUS)
    def test_values_kept_and_orientation_identical(self, graph, rounds,
                                                   tmp_path):
        vec = get_engine("vectorized").run(graph, rounds, track_kept=True)
        reference_orientation = orientation_from_kept(graph, vec.kept, values=vec.values)

        # sharded, several shard counts (1, small, >= n) and a threaded
        # variant, and every trajectory engine spilling to an appender:
        # bit-identical trajectory, values, kept sets and orientation.
        runs = [engine.run(graph, rounds, track_kept=True)
                for engine in _shard_variants(graph)]
        for sharded in runs + list(_spilled_runs(graph, rounds, tmp_path)):
            assert sharded.values == vec.values
            assert sharded.kept == vec.kept
            assert np.array_equal(sharded.trajectory, vec.trajectory)
            orientation = orientation_from_kept(graph, sharded.kept, values=sharded.values)
            assert orientation.assignment == reference_orientation.assignment
            assert orientation.in_weight == reference_orientation.in_weight

        # faithful protocol: identical final values and kept sets ...
        faithful = get_engine("faithful").run(graph, rounds, track_kept=True)
        assert faithful.values == vec.values
        assert faithful.kept == vec.kept
        orientation = orientation_from_kept(graph, faithful.kept, values=faithful.values)
        assert orientation.assignment == reference_orientation.assignment

    @pytest.mark.parametrize("graph, rounds", CORPUS[::5])
    def test_per_round_values_match_faithful(self, graph, rounds):
        """Row t of the array trajectory == the protocol's values after t rounds."""
        vec = get_engine("vectorized").run(graph, rounds, track_kept=False)
        labels = vec.node_order
        for t in range(1, rounds + 1):
            partial, _ = run_compact_elimination(graph, t, track_kept=False)
            for i, label in enumerate(labels):
                assert vec.trajectory[t, i] == partial.values[label], (t, label)

    @pytest.mark.parametrize("lam", [0.1, 0.5])
    def test_lambda_rounding_identical_across_engines(self, ba_weighted, lam):
        vec = get_engine("vectorized").run(ba_weighted, 4, lam=lam, track_kept=False)
        sharded = get_engine("sharded:7").run(ba_weighted, 4, lam=lam, track_kept=False)
        faithful = get_engine("faithful").run(ba_weighted, 4, lam=lam, track_kept=False)
        assert sharded.values == vec.values
        assert np.array_equal(sharded.trajectory, vec.trajectory)
        assert faithful.values == vec.values

    @pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
    def test_tie_break_rules_agree_across_engines(self, two_communities, tie_break):
        vec = get_engine("vectorized").run(two_communities, 4, tie_break=tie_break,
                                           track_kept=True)
        sharded = get_engine("sharded:4").run(two_communities, 4, tie_break=tie_break,
                                              track_kept=True)
        assert sharded.values == vec.values
        assert sharded.kept == vec.kept

    def test_untracked_kept_sets_are_empty_on_every_engine(self, tmp_path):
        """Regression: with tracking off the faithful engine reported the
        initial N_v = N(v), and a store-backed session reloaded it."""
        from repro.session import Session
        from repro.store import ArtifactStore

        graph = barabasi_albert(30, 2, seed=1)
        vec = get_engine("vectorized").run(graph, 4, track_kept=False)
        sharded = get_engine("sharded:4").run(graph, 4, track_kept=False)
        faithful = get_engine("faithful").run(graph, 4, track_kept=False)
        store = ArtifactStore(tmp_path / "store")
        Session(graph, engine="faithful", store=store).surviving(
            rounds=4, track_kept=False)
        restarted = Session(graph, engine="faithful", store=store)
        reloaded = restarted.surviving(rounds=4, track_kept=False)
        assert restarted.stats.disk_hits == 1
        empty = {v: () for v in graph.nodes()}
        assert vec.kept == empty
        assert sharded.kept == empty
        assert faithful.kept == empty
        assert reloaded.kept == empty

    def test_empty_graph_array_engines_agree(self):
        empty = Graph()
        vec = get_engine("vectorized").run(empty, 2)
        sharded = get_engine("sharded:4").run(empty, 2)
        assert vec.values == {} == sharded.values
        assert vec.kept == {} == sharded.kept
        assert vec.trajectory.shape == (3, 0) == sharded.trajectory.shape

    def test_empty_graph_faithful_raises(self):
        """The simulator cannot instantiate zero nodes; documented asymmetry."""
        with pytest.raises(SimulationError):
            get_engine("faithful").run(Graph(), 2)


class TestKeptSetReconstruction:
    """The batched kept-set path against the per-node reference loop.

    ``kept_sets_from_trajectory`` (one lexsort + segmented scan) must equal
    ``kept_sets_from_trajectory_reference`` (the original Python loop through
    ``update_sorted`` / ``update_stable``) *as ordered tuples* for every
    corpus graph and every tie-break rule — and both must equal the kept sets
    the faithful protocol maintains.
    """

    @pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
    @pytest.mark.parametrize("graph, rounds", CORPUS[::3])
    def test_vectorized_matches_reference(self, graph, rounds, tie_break):
        from oracles import kept_sets_from_trajectory_reference
        from repro.core.orientation import kept_sets_from_trajectory
        from repro.engine.kernels import compact_trajectory
        from repro.graph.csr import graph_to_csr

        csr = graph_to_csr(graph)
        if csr.num_nodes == 0:
            pytest.skip("no trajectory on the empty graph")
        trajectory = compact_trajectory(csr, rounds)
        vectorized = kept_sets_from_trajectory(csr, trajectory, tie_break=tie_break)
        reference = kept_sets_from_trajectory_reference(csr, trajectory,
                                                        tie_break=tie_break)
        assert vectorized == reference

    @pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
    def test_both_paths_match_the_faithful_protocol(self, two_communities, tie_break):
        from oracles import kept_sets_from_trajectory_reference

        faithful = get_engine("faithful").run(two_communities, 4,
                                              tie_break=tie_break, track_kept=True)
        vec = get_engine("vectorized").run(two_communities, 4,
                                           tie_break=tie_break, track_kept=True)
        assert vec.kept == faithful.kept  # engines route through the batched path
        from repro.graph.csr import graph_to_csr

        csr = graph_to_csr(two_communities)
        reference = kept_sets_from_trajectory_reference(csr, vec.trajectory,
                                                        tie_break=tie_break)
        assert reference == faithful.kept

    def test_single_round_trajectory_has_no_history(self, small_weighted):
        from oracles import kept_sets_from_trajectory_reference
        from repro.core.orientation import kept_sets_from_trajectory
        from repro.engine.kernels import compact_trajectory
        from repro.graph.csr import graph_to_csr

        csr = graph_to_csr(small_weighted)
        trajectory = compact_trajectory(csr, 1)
        for tie_break in ("history", "stable", "naive"):
            assert kept_sets_from_trajectory(csr, trajectory, tie_break=tie_break) \
                == kept_sets_from_trajectory_reference(csr, trajectory,
                                                       tie_break=tie_break)

    def test_unknown_tie_break_rejected(self, triangle):
        from repro.core.orientation import kept_sets_from_trajectory
        from repro.engine.kernels import compact_trajectory
        from repro.graph.csr import graph_to_csr
        from repro.errors import AlgorithmError

        csr = graph_to_csr(triangle)
        trajectory = compact_trajectory(csr, 2)
        with pytest.raises(AlgorithmError, match="tie_break"):
            kept_sets_from_trajectory(csr, trajectory, tie_break="bogus")
