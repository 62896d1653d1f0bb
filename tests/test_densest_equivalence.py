"""Fast densest phases 2-4 vs the faithful simulator — bit-identical.

The array path of :func:`repro.core.densest.weak_densest_subsets`
(``engine="array"``: the CSR kernels of :mod:`repro.engine.densest_kernels`)
must report bit-identical ``subsets`` / ``reported_densities`` /
``node_assignment`` / ``best_leader`` to the retained faithful reference on
the full seeded cross-engine corpus (all weights integer or dyadic, so every
intermediate float sum is exact).

On top of the end-to-end pipeline contract, the phase kernels are compared
against the per-node protocols *per phase* under handcrafted adversarial
surviving numbers — duplicate ``b_v`` plateaus (leader election decided purely
by the identity order, whose ``repr``-string ordering the int64 ranks must
reproduce, e.g. ``9 ≻ 10``) and staggered values that produce orphans and
nodes stranded above them (aggregates that never reach a root).
"""

from __future__ import annotations

import numpy as np
import pytest

from test_engine_equivalence import CORPUS

from repro.core.aggregation import run_aggregation
from repro.core.bfs import comparable_identity, run_bfs_construction
from repro.core.densest import weak_densest_subsets
from repro.core.local_elimination import run_local_elimination
from repro.engine.densest_kernels import (
    aggregate_and_decide,
    bfs_forest,
    identity_ranks,
    local_elimination_rounds,
    tree_anchors,
)
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.generators.structured import cycle_graph, path_graph
from repro.graph.graph import Graph


def _assert_results_identical(fast, reference):
    assert fast.subsets == reference.subsets
    assert fast.reported_densities == reference.reported_densities
    assert fast.actual_densities == reference.actual_densities
    assert fast.node_assignment == reference.node_assignment
    assert fast.best_leader == reference.best_leader
    assert fast.gamma == reference.gamma
    assert fast.surviving.values == reference.surviving.values


class TestPipelineEquivalence:
    """End-to-end: ``engine="array"`` vs the faithful pipeline on the corpus."""

    @pytest.mark.parametrize("graph, rounds", CORPUS)
    def test_array_pipeline_bit_identical(self, graph, rounds):
        reference = weak_densest_subsets(graph, rounds=rounds)
        fast = weak_densest_subsets(graph, rounds=rounds, engine="array")
        assert reference.engine == "faithful" and fast.engine == "array"
        _assert_results_identical(fast, reference)
        assert fast.messages_total == 0
        if any(u != v for u, v, _ in graph.edges()):  # self-loops carry no messages
            assert reference.messages_total > 0
        assert fast.subsets_are_disjoint()

    @pytest.mark.parametrize("graph, rounds", CORPUS[::6])
    def test_array_pipeline_with_precomputed_phase1(self, graph, rounds):
        from repro.engine import get_engine

        phase1 = get_engine("vectorized").run(graph, rounds, lam=0.0,
                                              track_kept=False)
        reference = weak_densest_subsets(graph, rounds=rounds)
        fast = weak_densest_subsets(graph, rounds=rounds, engine="array",
                                    phase1=phase1)
        assert fast.phase1_reused
        _assert_results_identical(fast, reference)

    @pytest.mark.parametrize("engine", ("faithful", "simulation", "reference"))
    def test_reference_spellings_run_the_simulator(self, engine):
        g = cycle_graph(8)
        result = weak_densest_subsets(g, rounds=2, engine=engine)
        assert result.engine == "faithful"
        assert result.messages_total > 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(AlgorithmError, match="unknown densest engine"):
            weak_densest_subsets(cycle_graph(5), rounds=2, engine="gpu")


# --------------------------------------------------------------------- phases
def _phase_comparison(graph, values, T, factor):
    """Run phases 2-4 on both paths under handcrafted surviving numbers."""
    csr = graph_to_csr(graph)
    labels = csr.labels()
    b = np.array([values[label] for label in labels], dtype=np.float64)

    bfs_outputs, _ = run_bfs_construction(graph, values, T)
    forest = bfs_forest(csr, b, T)
    for i, label in enumerate(labels):
        out = bfs_outputs[label]
        assert out.leader_id == labels[forest.leader[i]], label
        if out.parent is None:
            assert forest.parent[i] == -1, label
        elif out.is_root:
            assert forest.parent[i] == i, label
        else:
            assert labels[forest.parent[i]] == out.parent, label

    local_outputs, _ = run_local_elimination(graph, bfs_outputs, T)
    num, deg = local_elimination_rounds(csr, forest, b, T)
    for i, label in enumerate(labels):
        out = local_outputs[label]
        assert tuple(int(x) for x in num[:, i]) == out.num, label
        assert tuple(float(x) for x in deg[:, i]) == out.deg, label

    agg_outputs, _ = run_aggregation(graph, bfs_outputs, local_outputs, factor, T)
    decision = aggregate_and_decide(forest, num, deg, b, factor)
    for i, label in enumerate(labels):
        out = agg_outputs[label]
        assert out.sigma == int(decision.sigma[i]), label
        if out.is_root and out.t_star is not None:
            assert decision.t_star[i] == out.t_star, label
            assert decision.density[i] == out.density, label
    return forest


class TestPhaseKernelsAdversarial:
    def test_orphan_topology(self):
        # The strong leader's wave reaches node 1 only in the last round, so
        # node 0 keeps requesting a parent that already left its tree.
        graph = path_graph(4)
        forest = _phase_comparison(
            graph, {0: 1.0, 1: 5.0, 2: 1.0, 3: 100.0}, 2, 2.0)
        assert forest.parent[0] == -1  # the orphan the construction predicts
        assert not forest.participates[0]

    def test_orphan_with_stranded_subtree(self):
        # Node 4 is acknowledged by node 0, which itself ends up an orphan:
        # node 4 participates in Phase 3 but its aggregates die at node 0.
        graph = Graph(edges=[(4, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        forest = _phase_comparison(
            graph, {4: 0.5, 0: 1.0, 1: 5.0, 2: 1.0, 3: 100.0}, 2, 2.0)
        orphans = np.flatnonzero(forest.parent == -1)
        stranded = np.flatnonzero((forest.anchor == -1) & (forest.parent >= 0))
        assert len(orphans) == 1 and len(stranded) == 1

    def test_duplicate_values_decided_by_identity_order(self):
        # All b_v equal: the forest is decided purely by the repr-string
        # identity order; labels past 9 exercise "9" > "10".
        graph = cycle_graph(14)
        _phase_comparison(graph, {v: 3.0 for v in range(14)}, 3, 2.0)

    def test_duplicate_values_on_string_labels(self):
        names = ["a", "b", "c", "d", "e", "f"]
        graph = Graph()
        for i, name in enumerate(names):
            graph.add_edge(name, names[(i + 1) % len(names)], 1.0)
        _phase_comparison(graph, {name: 2.0 for name in names}, 2, 2.0)

    def test_value_plateaus_on_grid(self):
        graph = Graph()
        for r in range(4):
            for c in range(4):
                if c < 3:
                    graph.add_edge((r, c), (r, c + 1), 1.0)
                if r < 3:
                    graph.add_edge((r, c), (r + 1, c), 1.0)
        values = {(r, c): float(1 + ((r * c) % 3))
                  for r in range(4) for c in range(4)}
        _phase_comparison(graph, values, 3, 2.0)


class TestIdentityRanks:
    def test_ranks_realise_comparable_identity_order(self):
        graph = Graph(nodes=list(range(12)) + ["x", "y"])
        csr = graph_to_csr(graph)
        ranks = identity_ranks(csr)
        labels = csr.labels()
        by_rank = sorted(range(len(labels)), key=lambda i: ranks[i])
        ordered = [labels[i] for i in by_rank]
        assert ordered == sorted(labels, key=comparable_identity)
        # The repr-string order: 9 outranks 10 among integer labels.
        assert ranks[labels.index(9)] > ranks[labels.index(10)]

    @pytest.mark.parametrize("labels", [
        list(range(1001)),                      # "1000" < "101"
        list(range(1001))[::-1],
        [-1, -10, -9, -100, 0, 5, 50, -5, 2**63 - 1, -2**63],
        [True, False],
        [2**63, 2**64 + 5, 7, 10**20, -2**63 - 1, 2**63 - 1],
        [10, 9, "10", "9", 2.5, -0.5, (0, 1), (0, "1"), None, False, -3,
         frozenset({1}), "a\nb", b"x"],
    ], ids=["0..1000", "1000..0", "negative", "bools", "beyond-int64",
            "mixed-types"])
    def test_ranks_match_sorted_comparable_identity(self, labels):
        csr = graph_to_csr(Graph(nodes=labels))
        ranks = identity_ranks(csr)
        assert sorted(ranks.tolist()) == list(range(len(labels)))
        by_rank = [csr.labels()[i] for i in np.argsort(ranks)]
        assert by_rank == sorted(csr.labels(), key=comparable_identity)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_int64_labels(self, seed):
        rng = np.random.default_rng(seed)
        uniform = rng.integers(-2**63, 2**63 - 1, size=3000, endpoint=True)
        # Few distinct digit strings at every length: long shared prefixes.
        heavy = (rng.integers(-30, 30, size=3000)
                 * 10 ** rng.integers(0, 18, size=3000))
        labels = list(dict.fromkeys(uniform.tolist() + heavy.tolist()
                                    + [2**63 - 1, -2**63, 0]))
        csr = graph_to_csr(Graph(nodes=labels))
        by_rank = [csr.labels()[i] for i in np.argsort(identity_ranks(csr))]
        assert by_rank == sorted(csr.labels(), key=comparable_identity)

    def test_tree_anchors_pointer_doubling(self):
        # 0 <- 1 <- 2 <- 3 chain plus an orphan (4) with a child above it (5).
        parent = np.array([0, 0, 1, 2, -1, 4], dtype=np.int64)
        anchors = tree_anchors(parent)
        assert anchors.tolist() == [0, 0, 0, 0, -1, -1]


class TestBestLeaderTieBreak:
    def test_ties_broken_by_stable_order_not_insertion(self):
        from repro.core.densest import WeakDensestResult

        def result_with(densities):
            return WeakDensestResult(
                subsets={k: frozenset([k]) for k in densities},
                reported_densities=dict(densities),
                actual_densities=dict(densities),
                node_assignment={k: k for k in densities},
                surviving=None, rounds_total=0, rounds_per_phase={},
                messages_total=0, gamma=2.0)

        forward = result_with({1: 2.5, 7: 2.5})
        backward = result_with({7: 2.5, 1: 2.5})
        assert forward.best_leader == backward.best_leader == 1
        assert result_with({7: 2.5, 1: 2.0}).best_leader == 7
        assert result_with({}).best_leader is None


class TestReportedDensityConsistency:
    def test_disagreeing_flood_raises(self):
        from repro.core.aggregation import AggregationOutput
        from repro.core.densest import _collect_reference_outputs

        outputs = {
            "root": AggregationOutput(sigma=1, leader_id="root", t_star=0,
                                      density=2.0, is_root=True),
            "child": AggregationOutput(sigma=1, leader_id="root", t_star=0,
                                       density=2.5, is_root=False),
        }
        with pytest.raises(AlgorithmError, match="inconsistent reported density"):
            _collect_reference_outputs(outputs)

    def test_consistent_flood_collects_once(self):
        from repro.core.aggregation import AggregationOutput
        from repro.core.densest import _collect_reference_outputs

        outputs = {
            "root": AggregationOutput(sigma=1, leader_id="root", t_star=0,
                                      density=2.0, is_root=True),
            "child": AggregationOutput(sigma=0, leader_id="root", t_star=0,
                                       density=2.0, is_root=False),
        }
        subsets, reported, assignment = _collect_reference_outputs(outputs)
        assert subsets == {"root": {"root"}}
        assert reported == {"root": 2.0}
        assert assignment == {"root": "root", "child": None}
