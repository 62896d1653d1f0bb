"""Tests for the round-budget arithmetic and the Λ grid (repro.core.rounds / rounding)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.rounding import LambdaGrid, grid_for_graph
from repro.core.rounds import (
    epsilon_for_rounds,
    guarantee_after_rounds,
    lower_bound_rounds,
    rounds_for_epsilon,
    rounds_for_gamma,
)
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.graph import Graph
from test_graph_csr import PINNED_GRAPHS


class TestRoundBudgets:
    def test_rounds_for_epsilon_formula(self):
        # T = ceil(log_{1+eps} n)
        assert rounds_for_epsilon(1000, 1.0) == 10
        assert rounds_for_epsilon(1024, 1.0) == 10
        assert rounds_for_epsilon(1025, 1.0) == 11

    def test_rounds_for_epsilon_small_graph(self):
        assert rounds_for_epsilon(1, 0.5) == 1
        assert rounds_for_epsilon(2, 0.5) >= 1

    def test_rounds_for_epsilon_rejects_bad_epsilon(self):
        with pytest.raises(AlgorithmError):
            rounds_for_epsilon(10, 0.0)
        with pytest.raises(AlgorithmError):
            rounds_for_epsilon(0, 1.0)

    def test_rounds_for_gamma_matches_epsilon_parametrisation(self):
        # gamma = 2(1+eps) should give the same budget as epsilon directly.
        for n in (10, 100, 5000):
            for eps in (0.25, 0.5, 1.0):
                assert rounds_for_gamma(n, 2 * (1 + eps)) == rounds_for_epsilon(n, eps)

    def test_rounds_for_gamma_rejects_gamma_at_most_two(self):
        with pytest.raises(AlgorithmError):
            rounds_for_gamma(100, 2.0)

    def test_guarantee_after_rounds(self):
        assert guarantee_after_rounds(100, 1) == pytest.approx(200.0)
        assert guarantee_after_rounds(100, 2) == pytest.approx(20.0)
        assert guarantee_after_rounds(1, 5) == pytest.approx(2.0)

    def test_guarantee_rejects_bad_inputs(self):
        with pytest.raises(AlgorithmError):
            guarantee_after_rounds(10, 0)
        with pytest.raises(AlgorithmError):
            guarantee_after_rounds(0, 3)

    def test_epsilon_for_rounds_inverts_guarantee(self):
        eps = epsilon_for_rounds(1000, 10)
        assert guarantee_after_rounds(1000, 10) == pytest.approx(2 * (1 + eps))

    def test_lower_bound_rounds(self):
        assert lower_bound_rounds(1024, 2.0) == pytest.approx(10 * math.log(2) / math.log(2) * 1.0)
        assert lower_bound_rounds(1, 4.0) == 0.0
        with pytest.raises(AlgorithmError):
            lower_bound_rounds(100, 1.5)

    @given(st.integers(min_value=2, max_value=10**6), st.floats(min_value=0.01, max_value=5.0))
    def test_budget_is_sufficient_for_target(self, n, eps):
        """The returned T really achieves 2·n^(1/T) <= 2(1+eps) (Theorem I.1)."""
        T = rounds_for_epsilon(n, eps)
        assert guarantee_after_rounds(n, T) <= 2 * (1 + eps) + 1e-9


class TestLambdaGrid:
    def test_exact_grid_is_identity(self):
        grid = LambdaGrid(lam=0.0)
        assert grid.is_exact
        assert grid.round_down(math.pi) == math.pi
        assert grid.grid_size() is None

    def test_rounding_down(self):
        grid = LambdaGrid(lam=1.0)   # powers of 2
        assert grid.round_down(9.0) == pytest.approx(8.0)
        assert grid.round_down(8.0) == pytest.approx(8.0)
        assert grid.round_down(0.0) == 0.0
        assert math.isinf(grid.round_down(math.inf))

    def test_rounded_value_within_factor(self):
        grid = LambdaGrid(lam=0.25)
        for value in (0.3, 1.0, 7.7, 123.4):
            rounded = grid.round_down(value)
            assert rounded <= value
            assert rounded * 1.25 > value * (1 - 1e-12)

    def test_grid_size_counts_powers(self):
        grid = LambdaGrid(lam=1.0, value_floor=1.0, value_ceiling=16.0)
        assert grid.grid_size() == 5   # 1, 2, 4, 8, 16

    def test_grid_size_none_without_bounds(self):
        assert LambdaGrid(lam=0.5).grid_size() is None

    def test_rejects_negative_lambda(self):
        with pytest.raises(AlgorithmError):
            LambdaGrid(lam=-0.1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(AlgorithmError):
            LambdaGrid(lam=0.5, value_floor=10.0, value_ceiling=1.0)

    def test_grid_for_graph_bounds(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 8.0)])
        grid = grid_for_graph(g, 0.5)
        assert grid.value_floor == 2.0
        assert grid.value_ceiling == pytest.approx(10.0)
        assert grid.grid_size() is not None

    def test_grid_for_empty_weight_graph(self):
        g = Graph(nodes=[0, 1])
        grid = grid_for_graph(g, 0.5)
        assert grid.grid_size() is None


def _walk_grid(graph: Graph, lam: float) -> LambdaGrid:
    """The Λ-grid as computed by walking ``graph.edges()``."""
    weights = [w for _, _, w in graph.edges() if w > 0]
    if not weights:
        return LambdaGrid(lam=lam)
    return LambdaGrid(lam=lam, value_floor=min(weights),
                      value_ceiling=max(graph.total_weight, min(weights)))


#: Graphs with no positive weight: the grid has no floor or ceiling.
NO_POSITIVE_WEIGHT = [
    pytest.param(lambda: Graph(nodes=[0, 1]), id="isolated"),
    pytest.param(lambda: Graph(edges=[(0, 1, 0.0), (1, 2, 0.0)]), id="zero-edges"),
    pytest.param(lambda: Graph(edges=[(0, 0, 0.0), (0, 1, 0.0)]), id="zero-loop"),
]

#: The pinned CSR graphs, the graphs above and graphs whose lightest positive
#: weight is a self-loop.
GRID_GRAPHS = [pytest.param(param.values[0], id=param.id)
               for param in PINNED_GRAPHS] + NO_POSITIVE_WEIGHT + [
    pytest.param(lambda: Graph(edges=[(0, 0, 2.0), (1, 1, 0.5)]), id="loops-only"),
    pytest.param(lambda: Graph(edges=[("x", "x", 3.0), ("x", "y", 0.0),
                                      ("y", "y", 0.75)]), id="loops-and-zero-edge"),
    pytest.param(lambda: Graph(edges=[(0, 1, 3.0), (2, 2, 0.125)]),
                 id="lightest-is-a-loop"),
]


class TestGridFromCSR:
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("build", GRID_GRAPHS)
    def test_csr_grid_equals_the_graph_walk(self, build, lam):
        graph = build()
        expected = _walk_grid(graph, lam)
        assert grid_for_graph(graph, lam) == expected
        assert grid_for_graph(graph, lam, csr=graph_to_csr(graph)) == expected

    @pytest.mark.parametrize("build", NO_POSITIVE_WEIGHT)
    def test_graphs_without_positive_weight_have_no_floor(self, build):
        grid = grid_for_graph(build(), 0.5)
        assert grid.value_floor is None and grid.value_ceiling is None

    def test_loop_only_graph_floor_is_the_lightest_loop(self):
        grid = grid_for_graph(Graph(edges=[(0, 0, 2.0), (1, 1, 0.5)]), 0.5)
        assert grid.value_floor == 0.5
        assert grid.value_ceiling == 2.5
