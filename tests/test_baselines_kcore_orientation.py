"""Tests for the coreness, orientation and LP baselines."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.barenboim_elkin import h_partition_orientation, two_phase_orientation
from repro.baselines.bruteforce import bruteforce_coreness, bruteforce_max_density
from repro.baselines.exact_kcore import (
    coreness,
    coreness_unweighted,
    coreness_weighted,
    degeneracy,
    k_core_subgraph,
)
from repro.baselines.exact_orientation import (
    exact_orientation_bruteforce,
    exact_orientation_unweighted,
    greedy_orientation,
    lp_lower_bound,
    optimal_minmax_value,
)
from repro.baselines.goldberg import maximum_density
from repro.baselines.lp import solve_densest_lp, solve_orientation_lp, verify_strong_duality
from repro.baselines.montresor import montresor_kcore
from repro.core.orientation import check_feasible
from repro.errors import AlgorithmError
from repro.graph.generators.random_graphs import barabasi_albert, erdos_renyi_gnp
from repro.graph.generators.structured import (
    balanced_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.generators.weights import with_uniform_integer_weights
from repro.graph.graph import Graph


class TestExactCoreness:
    def test_complete_graph(self, k6):
        assert set(coreness(k6).values()) == {5.0}

    def test_cycle_and_path(self):
        assert set(coreness(cycle_graph(7)).values()) == {2.0}
        assert set(coreness(path_graph(7)).values()) == {1.0}

    def test_star(self):
        values = coreness(star_graph(6))
        assert values[0] == 1.0
        assert all(values[v] == 1.0 for v in range(1, 7))

    def test_clique_with_tail(self, clique_with_tail):
        values = coreness(clique_with_tail)
        assert all(values[v] == 4.0 for v in range(5))
        assert all(values[v] == 1.0 for v in range(5, 9))

    def test_grid_interior_core(self):
        values = coreness(grid_graph(5, 5))
        assert max(values.values()) == 2.0
        assert min(values.values()) == 2.0   # even corners belong to the 2-core

    def test_tree_coreness_is_one(self):
        values = coreness(balanced_tree(3, 3))
        assert set(values.values()) == {1.0}

    def test_weighted_example(self, small_weighted):
        values = coreness(small_weighted)
        assert values[0] == values[1] == values[2] == pytest.approx(6.0)
        assert values[3] == pytest.approx(1.0)

    def test_self_loop_contributes(self):
        # The subgraph {0} alone has minimum weighted degree 3 (its self-loop), which
        # beats any subgraph containing the degree-1 neighbour.
        g = Graph(edges=[(0, 0, 3.0), (0, 1, 1.0)])
        values = coreness_weighted(g)
        assert values[0] == pytest.approx(3.0)
        assert values[1] == pytest.approx(1.0)

    def test_unweighted_fast_path_matches_weighted(self, ba_graph):
        fast = coreness_unweighted(ba_graph)
        slow = coreness_weighted(ba_graph)
        for v in ba_graph.nodes():
            assert float(fast[v]) == pytest.approx(slow[v])

    def test_unweighted_rejects_weights_and_loops(self, small_weighted):
        with pytest.raises(AlgorithmError):
            coreness_unweighted(small_weighted)
        with pytest.raises(AlgorithmError):
            coreness_unweighted(Graph(edges=[(0, 0)]))

    def test_matches_networkx(self, ba_graph):
        import networkx as nx

        from repro.graph.builders import graph_to_networkx

        reference = nx.core_number(graph_to_networkx(ba_graph))
        ours = coreness(ba_graph)
        for v in ba_graph.nodes():
            assert ours[v] == pytest.approx(float(reference[v]))

    def test_degeneracy_and_k_core(self, clique_with_tail):
        assert degeneracy(clique_with_tail) == 4.0
        assert k_core_subgraph(clique_with_tail, 4.0) == set(range(5))
        assert k_core_subgraph(clique_with_tail, 5.0) == set()

    @given(st.data())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_bruteforce_on_small_weighted_graphs(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        weights = data.draw(st.lists(st.integers(min_value=1, max_value=4),
                                     min_size=len(pairs), max_size=len(pairs)))
        g = Graph(nodes=range(n))
        for keep, (u, v), w in zip(mask, pairs, weights):
            if keep:
                g.add_edge(u, v, float(w))
        exact = coreness(g)
        brute = bruteforce_coreness(g)
        for v in g.nodes():
            assert exact[v] == pytest.approx(brute[v])


class TestMontresor:
    def test_exact_values_on_unweighted(self, ba_graph):
        result = montresor_kcore(ba_graph)
        exact = coreness(ba_graph)
        for v in ba_graph.nodes():
            assert result.value_of(v) == pytest.approx(exact[v])

    def test_exact_values_on_weighted(self, ba_weighted):
        result = montresor_kcore(ba_weighted)
        exact = coreness(ba_weighted)
        for v in ba_weighted.nodes():
            assert result.coreness[v] == pytest.approx(exact[v])

    def test_convergence_can_exceed_diameter(self):
        # On a long path convergence takes ~n/2 rounds although the structure is simple.
        g = path_graph(30)
        result = montresor_kcore(g)
        assert result.rounds_to_convergence >= 14

    def test_rejects_empty_graph(self):
        with pytest.raises(AlgorithmError):
            montresor_kcore(Graph())

    def test_takes_no_tolerance(self, ba_graph):
        # The fixed point is detected exactly, so there is nothing to tune.
        with pytest.raises(TypeError):
            montresor_kcore(ba_graph, tol=1e-12)


class TestExactOrientation:
    def test_lp_bound_is_maximum_density(self, k6):
        assert lp_lower_bound(k6) == pytest.approx(2.5)

    def test_unweighted_exact_on_cycle(self):
        orientation = exact_orientation_unweighted(cycle_graph(6))
        assert orientation.max_in_weight == pytest.approx(1.0)
        assert check_feasible(cycle_graph(6), orientation)

    def test_unweighted_exact_on_complete_graph(self, k6):
        orientation = exact_orientation_unweighted(k6)
        assert orientation.max_in_weight == pytest.approx(3.0)   # ceil(15/6) = 3

    def test_unweighted_exact_on_star(self):
        orientation = exact_orientation_unweighted(star_graph(8))
        assert orientation.max_in_weight == pytest.approx(1.0)

    def test_unweighted_rejects_weighted_input(self, small_weighted):
        with pytest.raises(AlgorithmError):
            exact_orientation_unweighted(small_weighted)

    def test_bruteforce_on_weighted_triangle(self):
        g = Graph(edges=[(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)])
        orientation = exact_orientation_bruteforce(g)
        assert orientation.max_in_weight == pytest.approx(3.0)
        assert check_feasible(g, orientation)

    def test_bruteforce_respects_edge_limit(self, k6):
        with pytest.raises(AlgorithmError):
            exact_orientation_bruteforce(k6, max_edges=5)

    def test_greedy_orientation_feasible_and_bounded(self, ba_weighted):
        orientation = greedy_orientation(ba_weighted)
        assert check_feasible(ba_weighted, orientation)
        assert orientation.max_in_weight >= lp_lower_bound(ba_weighted) - 1e-9

    def test_optimal_value_dispatch(self, k6, small_weighted):
        assert optimal_minmax_value(k6) == pytest.approx(3.0)
        # Weighted triangle oriented cyclically (3 each) + pendant edge to node 3 (1).
        assert optimal_minmax_value(small_weighted) == pytest.approx(3.0)

    def test_exact_at_least_lp_bound(self):
        g = erdos_renyi_gnp(25, 0.2, seed=3)
        if g.num_edges == 0:
            pytest.skip("degenerate sample")
        exact = exact_orientation_unweighted(g).max_in_weight
        assert exact >= lp_lower_bound(g) - 1e-9
        assert exact <= math.ceil(lp_lower_bound(g)) + 1e-9

    @given(st.data())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bruteforce_lower_bounded_by_density(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(nodes=range(n))
        for keep, (u, v) in zip(mask, pairs):
            if keep:
                g.add_edge(u, v, 1.0)
        if g.num_edges == 0:
            return
        optimum = exact_orientation_bruteforce(g).max_in_weight
        assert optimum >= bruteforce_max_density(g) - 1e-9


class TestBarenboimElkin:
    def test_ideal_h_partition_guarantee(self, ba_graph):
        epsilon = 0.5
        rho_star = maximum_density(ba_graph)
        result = h_partition_orientation(ba_graph, rho_star, epsilon)
        assert check_feasible(ba_graph, result.orientation)
        assert result.max_in_weight <= (2 + epsilon) * rho_star + 1e-6

    def test_two_phase_guarantee(self, ba_graph):
        epsilon = 0.5
        rho_star = maximum_density(ba_graph)
        result = two_phase_orientation(ba_graph, epsilon)
        assert check_feasible(ba_graph, result.orientation)
        # 2(1+eps)(2+eps) overall bound from using the phase-1 estimate.
        assert result.max_in_weight <= 2 * (1 + epsilon) * (2 + epsilon) * rho_star + 1e-6
        assert result.phase1_rounds > 0
        assert result.total_rounds == result.phase1_rounds + result.num_levels

    def test_levels_cover_all_nodes(self, two_communities):
        result = two_phase_orientation(two_communities, 0.5)
        assert set(result.levels) == set(two_communities.nodes())

    def test_parameter_validation(self, k6):
        with pytest.raises(AlgorithmError):
            h_partition_orientation(k6, 1.0, epsilon=0.0)
        with pytest.raises(AlgorithmError):
            h_partition_orientation(k6, -1.0, epsilon=0.5)
        with pytest.raises(AlgorithmError):
            two_phase_orientation(Graph(), 0.5)


class TestLinearPrograms:
    def test_densest_lp_matches_combinatorial_optimum(self, k6):
        assert solve_densest_lp(k6).value == pytest.approx(2.5, abs=1e-6)

    def test_orientation_lp_matches_density(self, small_weighted):
        assert solve_orientation_lp(small_weighted).value == pytest.approx(3.0, abs=1e-6)

    def test_strong_duality_on_random_graphs(self):
        for seed in (0, 1):
            g = erdos_renyi_gnp(15, 0.3, seed=seed)
            if g.num_edges == 0:
                continue
            assert verify_strong_duality(g)

    def test_lp_value_matches_flow_based_density(self, two_communities):
        lp_value = solve_densest_lp(two_communities).value
        assert lp_value == pytest.approx(maximum_density(two_communities), abs=1e-5)

    def test_lp_with_self_loops(self):
        g = Graph(edges=[(0, 0, 4.0), (0, 1, 1.0), (1, 2, 1.0)])
        assert solve_densest_lp(g).value == pytest.approx(4.0, abs=1e-6)

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            solve_densest_lp(Graph())
        with pytest.raises(AlgorithmError):
            solve_orientation_lp(Graph())
