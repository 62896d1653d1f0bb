"""Edge-case and determinism tests for the public API and the CSR relabelling.

Locks in (1) round-trip determinism — same seed + same engine twice yields
byte-identical result objects, (2) the stability of ``CSRAdjacency.node_order``
under graph-node insertion order, and (3) the exact exception types/messages of
the public API's error paths (``resolve_round_budget`` & friends).
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.api import approximate_coreness, approximate_orientation
from repro.core.rounds import resolve_round_budget
from repro.errors import AlgorithmError
from repro.graph.csr import graph_to_csr
from repro.graph.generators.random_graphs import barabasi_albert
from repro.graph.generators.structured import complete_graph
from repro.graph.generators.weights import with_uniform_integer_weights
from repro.graph.graph import Graph


@pytest.fixture
def seeded_graph():
    return with_uniform_integer_weights(barabasi_albert(60, 3, seed=17), 1, 6, seed=18)


class TestRoundTripDeterminism:
    @pytest.mark.parametrize("engine", ["faithful", "vectorized", "sharded:3"])
    def test_coreness_byte_identical(self, engine):
        def build():
            graph = with_uniform_integer_weights(barabasi_albert(60, 3, seed=17), 1, 6,
                                                 seed=18)
            return approximate_coreness(graph, rounds=4, engine=engine)

        first, second = build(), build()
        assert pickle.dumps(first) == pickle.dumps(second)
        assert first.values == second.values
        if first.surviving.trajectory is not None:
            assert first.surviving.trajectory.tobytes() == \
                second.surviving.trajectory.tobytes()

    @pytest.mark.parametrize("engine", ["faithful", "vectorized", "sharded:3"])
    def test_orientation_byte_identical(self, engine):
        def build():
            graph = with_uniform_integer_weights(barabasi_albert(50, 2, seed=23), 1, 5,
                                                 seed=24)
            return approximate_orientation(graph, rounds=3, engine=engine)

        first, second = build(), build()
        assert pickle.dumps(first) == pickle.dumps(second)
        assert first.orientation.assignment == second.orientation.assignment
        assert first.max_in_weight == second.max_in_weight

    def test_top_nodes_deterministic(self, seeded_graph):
        result = approximate_coreness(seeded_graph, rounds=3)
        assert result.top_nodes(10) == approximate_coreness(seeded_graph, rounds=3).top_nodes(10)


class TestTopNodesTieBreak:
    """Regression: ties used to be broken by repr(), ordering "10" before "9"."""

    @staticmethod
    def _result(values):
        from repro.core.api import CorenessResult

        return CorenessResult(values=values, rounds=1, guarantee=2.0, lam=0.0)

    def test_integer_ties_rank_numerically(self):
        result = self._result({10: 1.0, 9: 1.0, 2: 1.0, 100: 2.0})
        assert result.top_nodes(4) == (100, 2, 9, 10)

    def test_tied_integer_nodes_on_a_real_run(self):
        # Every node of a cycle gets the same surviving number: the full list
        # of top nodes must come back in numeric order, not 0,1,10,11,...
        from repro.graph.generators.structured import cycle_graph

        result = approximate_coreness(cycle_graph(12), rounds=3)
        assert result.top_nodes(12) == tuple(range(12))

    def test_string_ties_rank_lexicographically(self):
        result = self._result({"b": 1.0, "a": 1.0, "c": 3.0})
        assert result.top_nodes(3) == ("c", "a", "b")

    def test_unorderable_mixed_types_fall_back_to_repr(self):
        result = self._result({"x": 1.0, 2: 1.0, (1, 2): 1.0})
        # repr order: "'x'" < "(1, 2)" < "2"; deterministic, no TypeError.
        assert result.top_nodes(3) == ("x", (1, 2), 2)

    def test_negative_count_is_rejected(self):
        # A slice [:-1] used to drop the last node silently.
        result = self._result({"a": 1.0, "b": 2.0, "c": 3.0})
        with pytest.raises(AlgorithmError, match="k >= 0"):
            result.top_nodes(-1)
        assert result.top_nodes(0) == ()
        assert result.top_nodes(5) == ("c", "b", "a")


class TestNodeOrderStability:
    def test_node_order_is_insertion_order(self):
        g = Graph()
        for v in ("c", "a", "b"):
            g.add_node(v)
        g.add_edge("b", "a")
        assert graph_to_csr(g).node_order == ("c", "a", "b")

    def test_node_order_follows_edge_endpoint_first_seen(self):
        g = Graph(edges=[("x", "y"), ("y", "z"), ("w", "x")])
        # first-seen order: x (edge 1 endpoint), y, z, w
        assert graph_to_csr(g).node_order == ("x", "y", "z", "w")

    def test_relabelling_stable_under_edge_insertion_order(self):
        """Regression: two graphs with the same node-first-seen sequence get the
        same integer relabelling even if their edges arrive in different orders."""
        a = Graph(nodes=[0, 1, 2, 3])
        a.add_edge(0, 1)
        a.add_edge(2, 3)
        a.add_edge(1, 2)
        b = Graph(nodes=[0, 1, 2, 3])
        b.add_edge(1, 2)
        b.add_edge(0, 1)
        b.add_edge(2, 3)
        assert graph_to_csr(a).node_order == graph_to_csr(b).node_order == (0, 1, 2, 3)

    def test_inserting_a_node_appends_to_the_order(self):
        g = Graph(edges=[(0, 1)])
        before = graph_to_csr(g).node_order
        g.add_node(99)
        after = graph_to_csr(g).node_order
        assert after == before + (99,)
        # ... and the surviving numbers of the existing nodes are unaffected.
        result = approximate_coreness(g, rounds=2)
        assert result.values[0] == result.values[1] == 1.0
        assert result.values[99] == 0.0


class TestApiEdgeCases:
    @pytest.mark.parametrize("engine", ["faithful", "vectorized", "sharded:2"])
    def test_rounds_one_equals_weighted_degree(self, small_weighted, engine):
        result = approximate_coreness(small_weighted, rounds=1, engine=engine)
        for v in small_weighted.nodes():
            assert result.values[v] == small_weighted.degree(v)

    def test_huge_epsilon_resolves_to_one_round(self, k6):
        result = approximate_coreness(k6, epsilon=1e9)
        assert result.rounds == 1
        assert result.guarantee == pytest.approx(2.0 * 6.0)

    def test_huge_gamma_resolves_to_one_round(self, k6):
        result = approximate_coreness(k6, gamma=1e12)
        assert result.rounds == 1

    @pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
    def test_lam_grid_values_lie_on_grid(self, seeded_graph, lam):
        result = approximate_coreness(seeded_graph, rounds=4, lam=lam)
        grid = result.surviving.grid
        assert grid.lam == lam
        for value in result.values.values():
            # every surviving number is a fixed point of the grid rounding
            assert grid.round_down(value) == value

    def test_lam_zero_grid_is_exact(self, k6):
        result = approximate_coreness(k6, rounds=2, lam=0.0)
        assert result.surviving.grid.is_exact


class TestResolveRoundsErrorPaths:
    """Exact exception types and messages of the (ε | γ | T) resolver."""

    def test_zero_budgets_rejected(self):
        with pytest.raises(AlgorithmError) as excinfo:
            resolve_round_budget(10)
        assert str(excinfo.value) == "provide exactly one of epsilon, gamma or rounds"

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": 0.5, "gamma": 3.0},
        {"epsilon": 0.5, "rounds": 2},
        {"gamma": 3.0, "rounds": 2},
        {"epsilon": 0.5, "gamma": 3.0, "rounds": 2},
    ])
    def test_two_or_more_budgets_rejected(self, k6, kwargs):
        with pytest.raises(AlgorithmError) as excinfo:
            approximate_coreness(k6, **kwargs)
        assert str(excinfo.value) == "provide exactly one of epsilon, gamma or rounds"

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_non_positive_rounds_rejected(self, k6, rounds):
        with pytest.raises(AlgorithmError) as excinfo:
            approximate_coreness(k6, rounds=rounds)
        assert str(excinfo.value) == f"rounds must be >= 1, got {rounds}"

    def test_non_positive_epsilon_rejected(self, k6):
        with pytest.raises(AlgorithmError, match=r"epsilon must be positive, got 0"):
            approximate_coreness(k6, epsilon=0.0)

    def test_gamma_at_most_two_rejected(self, k6):
        with pytest.raises(AlgorithmError, match=r"gamma > 2"):
            approximate_coreness(k6, gamma=2.0)

    def test_empty_graph_rejected_with_message(self):
        with pytest.raises(AlgorithmError) as excinfo:
            approximate_coreness(Graph(), rounds=2)
        assert str(excinfo.value) == "approximate_coreness needs a non-empty graph"
        with pytest.raises(AlgorithmError) as excinfo:
            approximate_orientation(Graph(), rounds=2)
        assert str(excinfo.value) == "approximate_orientation needs a non-empty graph"

    def test_api_and_public_resolver_agree(self):
        # The session layer resolves budgets with the same public resolver.
        assert approximate_coreness(complete_graph(100), epsilon=0.5).rounds == \
            resolve_round_budget(100, epsilon=0.5)
        assert resolve_round_budget(100, rounds=7) == 7

    def test_resolver_validates_num_nodes(self):
        with pytest.raises(AlgorithmError, match="num_nodes must be >= 1"):
            resolve_round_budget(0, epsilon=0.5)
