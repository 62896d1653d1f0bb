"""Tests for the min-max orientation machinery (repro.core.orientation, Theorem I.2)."""

from __future__ import annotations

import pytest

from repro.analysis.invariants import check_orientation_invariants
from repro.baselines.exact_orientation import exact_orientation_unweighted, lp_lower_bound
from repro.core.api import approximate_orientation
from repro.core.orientation import (
    canonical_edge,
    check_feasible,
    kept_sets_from_trajectory,
    orientation_from_kept,
    orientation_from_kept_reference,
    orientation_from_values_greedy,
)
from repro.core.surviving import compact_elimination, run_compact_elimination, surviving_numbers_vectorized
from repro.engine import get_engine
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.generators.random_graphs import barabasi_albert, erdos_renyi_gnp
from repro.graph.generators.structured import complete_graph, cycle_graph, star_graph
from repro.graph.generators.weights import with_uniform_integer_weights
from repro.graph.graph import Graph
from test_engine_equivalence import CORPUS


class TestCanonicalEdge:
    def test_order_independent(self):
        assert canonical_edge(3, 7) == canonical_edge(7, 3)

    def test_distinct_edges_differ(self):
        assert canonical_edge(1, 2) != canonical_edge(1, 3)


class TestOrientationFromKept:
    def test_simple_assignment(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        kept = {0: (), 1: (0,), 2: (1,)}   # 1 accepts edge (0,1); 2 accepts edge (1,2)
        orientation = orientation_from_kept(g, kept)
        assert orientation.owner(0, 1) == 1
        assert orientation.owner(1, 2) == 2
        assert orientation.in_weight[2] == pytest.approx(3.0)
        assert orientation.max_in_weight == pytest.approx(3.0)
        assert orientation.violations == 0

    def test_conflicts_are_counted_and_resolved(self):
        g = Graph(edges=[(0, 1, 1.0)])
        kept = {0: (1,), 1: (0,)}
        orientation = orientation_from_kept(g, kept)
        assert orientation.conflicts == 1
        assert orientation.owner(0, 1) in (0, 1)
        assert check_feasible(g, orientation)

    def test_violations_fall_back_to_values(self):
        g = Graph(edges=[(0, 1, 1.0)])
        kept = {0: (), 1: ()}
        orientation = orientation_from_kept(g, kept, values={0: 5.0, 1: 1.0})
        assert orientation.violations == 1
        assert orientation.owner(0, 1) == 0   # larger surviving number takes it

    def test_self_loops_charged_to_endpoint(self):
        g = Graph(edges=[(0, 0, 4.0), (0, 1, 1.0)])
        kept = {0: (1,), 1: ()}
        orientation = orientation_from_kept(g, kept)
        assert orientation.in_weight[0] == pytest.approx(5.0)
        assert orientation.loop_weight[0] == pytest.approx(4.0)

    def test_check_feasible_detects_missing_edge(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 2, 1.0)])
        kept = {0: (1,), 1: (), 2: ()}
        orientation = orientation_from_kept(g, kept)
        # All edges get assigned (violations are repaired), so it is feasible.
        assert check_feasible(g, orientation)
        # But an orientation missing an edge is not.
        del orientation.assignment[canonical_edge(1, 2)]
        assert not check_feasible(g, orientation)


def _assert_same_orientation(actual, expected):
    """Field-for-field equality, dict key order included."""
    assert list(actual.assignment.items()) == list(expected.assignment.items())
    assert list(actual.in_weight.items()) == list(expected.in_weight.items())
    assert actual.conflicts == expected.conflicts
    assert actual.violations == expected.violations
    assert list(actual.loop_weight.items()) == list(expected.loop_weight.items())


def _float_weighted() -> Graph:
    """Non-dyadic weights: load sums are exact only in the same order."""
    import numpy as np

    rng = np.random.default_rng(11)
    g = Graph(nodes=range(30))
    for u, v, _ in erdos_renyi_gnp(30, 0.2, seed=12).edges():
        g.add_edge(u, v, float(rng.random()) + 0.1)
    g.add_edge(3, 3, 0.3)
    return g


class TestArrayOrientationMatchesReference:
    """``orientation_from_kept`` (array) against the per-edge reference loop."""

    @pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
    @pytest.mark.parametrize("graph, rounds", CORPUS + [
        pytest.param(_float_weighted(), 3, id="float-weights")])
    def test_corpus(self, graph, rounds, tie_break):
        if graph.num_nodes == 0:
            pytest.skip("no trajectory on the empty graph")
        surv = get_engine("vectorized").run(graph, rounds, tie_break=tie_break,
                                            track_kept=True)
        csr = graph_to_csr(graph)
        for values in (surv.values, None):
            expected = orientation_from_kept_reference(graph, surv.kept, values=values)
            _assert_same_orientation(
                orientation_from_kept(graph, surv.kept, values=values, csr=csr), expected)
            _assert_same_orientation(
                orientation_from_kept(graph, surv.kept, values=values), expected)

    @pytest.mark.parametrize("values", [None, {"b": 2.0, "c": 2.0, 10: 1.0}])
    def test_violations_conflicts_and_foreign_labels(self, values):
        g = Graph(edges=[("b", 10, 1.0), (10, 9, 2.0), ("c", "b", 0.5),
                         (9, "c", 1.0), ("c", "c", 1.5), (9, 9, 0.0), (9, "b", 1.0)])
        kept = {"b": ("c", 10, "nobody"), "c": ("b",), 9: ("b", "c", 12),
                "ghost": (10,)}
        actual = orientation_from_kept(g, kept, values=values)
        _assert_same_orientation(actual, orientation_from_kept_reference(
            g, kept, values=values))
        assert actual.conflicts == 1 and actual.violations == 1
        assert actual.loop_weight == {"c": 1.5, 9: 0.0}

    def test_no_kept_sets_and_no_edges(self):
        g = Graph(edges=[(0, 1, 1.0), (2, 2, 1.0)])
        _assert_same_orientation(orientation_from_kept(g, {}),
                                 orientation_from_kept_reference(g, {}))
        for empty, kept in ((Graph(nodes=["x"]), {"x": ()}), (Graph(), {})):
            _assert_same_orientation(orientation_from_kept(empty, kept),
                                     orientation_from_kept_reference(empty, kept))


class TestInvariantsFromProtocol:
    @pytest.mark.parametrize("rounds", [1, 2, 4, 6])
    def test_definition_iii7_holds_on_unweighted_graphs(self, ba_graph, rounds):
        result, _ = run_compact_elimination(ba_graph, rounds, track_kept=True)
        report = check_orientation_invariants(ba_graph, result.values, result.kept)
        assert report.holds, report.violations

    @pytest.mark.parametrize("rounds", [1, 3, 5])
    def test_definition_iii7_holds_on_weighted_graphs(self, ba_weighted, rounds):
        result, _ = run_compact_elimination(ba_weighted, rounds, track_kept=True)
        report = check_orientation_invariants(ba_weighted, result.values, result.kept)
        assert report.holds, report.violations

    def test_definition_iii7_holds_with_stable_tiebreak(self, ba_weighted):
        result, _ = run_compact_elimination(ba_weighted, 4, tie_break="stable",
                                            track_kept=True)
        report = check_orientation_invariants(ba_weighted, result.values, result.kept)
        assert report.holds, report.violations

    def test_vectorized_kept_satisfies_invariants(self, two_communities):
        result = compact_elimination(two_communities, 5, engine="vectorized", track_kept=True)
        report = check_orientation_invariants(two_communities, result.values, result.kept)
        assert report.holds, report.violations


class TestKeptFromTrajectory:
    def test_matches_protocol_on_weighted_graph(self, ba_weighted):
        rounds = 4
        sim, _ = run_compact_elimination(ba_weighted, rounds, track_kept=True)
        csr = graph_to_csr(ba_weighted)
        traj = surviving_numbers_vectorized(csr, rounds)
        replayed = kept_sets_from_trajectory(csr, traj, tie_break="history")
        assert replayed == sim.kept

    def test_stable_rule_matches_protocol(self, two_communities):
        rounds = 3
        sim, _ = run_compact_elimination(two_communities, rounds, tie_break="stable",
                                         track_kept=True)
        csr = graph_to_csr(two_communities)
        traj = surviving_numbers_vectorized(csr, rounds)
        replayed = kept_sets_from_trajectory(csr, traj, tie_break="stable")
        assert replayed == sim.kept

    def test_rejects_mismatched_trajectory(self, k6):
        csr = graph_to_csr(k6)
        import numpy as np

        with pytest.raises(AlgorithmError):
            kept_sets_from_trajectory(csr, np.zeros((3, 2)))
        with pytest.raises(AlgorithmError):
            kept_sets_from_trajectory(csr, np.zeros((1, 6)))


class TestTheoremI2EndToEnd:
    def test_k6_orientation_value(self, k6):
        result = approximate_orientation(k6, epsilon=0.5)
        # Optimal is 3 (15 edges over 6 nodes); the guarantee allows up to ~2.86*2.5.
        assert result.max_in_weight <= result.guarantee * 2.5 + 1e-9
        assert check_feasible(k6, result.orientation)

    def test_cycle_orientation_is_feasible_and_bounded(self, cycle8):
        result = approximate_orientation(cycle8, epsilon=1.0)
        assert check_feasible(cycle8, result.orientation)
        assert result.max_in_weight <= 2.0 + 1e-9   # b_v = 2 bounds each node's load

    @pytest.mark.parametrize("seed", [0, 1])
    def test_guarantee_against_lp_bound_unweighted(self, seed):
        g = erdos_renyi_gnp(40, 0.15, seed=seed)
        if g.num_edges == 0:
            pytest.skip("degenerate sample")
        result = approximate_orientation(g, epsilon=0.5)
        rho_star = lp_lower_bound(g)
        assert result.max_in_weight <= result.guarantee * rho_star + 1e-6
        assert check_feasible(g, result.orientation)

    def test_guarantee_against_lp_bound_weighted(self):
        g = with_uniform_integer_weights(barabasi_albert(50, 2, seed=5), 1, 6, seed=6)
        result = approximate_orientation(g, epsilon=0.5)
        rho_star = lp_lower_bound(g)
        assert result.max_in_weight <= result.guarantee * rho_star + 1e-6

    def test_close_to_exact_on_unweighted_star(self):
        g = star_graph(9)
        result = approximate_orientation(g, epsilon=0.5)
        exact = exact_orientation_unweighted(g).max_in_weight
        assert exact == pytest.approx(1.0)
        assert result.max_in_weight <= 2 * (1 + 0.5) * exact + 1e-9

    def test_greedy_value_orientation_feasible(self, ba_weighted):
        surv = compact_elimination(ba_weighted, 4, track_kept=False)
        orientation = orientation_from_values_greedy(ba_weighted, surv.values)
        assert check_feasible(ba_weighted, orientation)
