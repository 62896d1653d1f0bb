"""Tests for the Graph data structure (repro.graph.graph)."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graph.graph import Graph


class TestNodeOperations:
    def test_add_node_is_idempotent(self):
        g = Graph()
        g.add_node("a")
        g.add_node("a")
        assert g.num_nodes == 1

    def test_nodes_preserve_insertion_order(self):
        g = Graph(nodes=[3, 1, 2])
        assert list(g.nodes()) == [3, 1, 2]

    def test_contains_and_len(self):
        g = Graph(nodes=[1, 2])
        assert 1 in g and 3 not in g
        assert len(g) == 2

    def test_remove_node_removes_incident_edges(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        g.remove_node(1)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(0, 2)

    def test_remove_node_with_self_loop(self):
        g = Graph(edges=[(0, 0, 2.0), (0, 1, 1.0)])
        g.remove_node(0)
        assert g.num_nodes == 1
        assert g.num_edges == 0
        assert g.total_weight == 0.0

    def test_remove_unknown_node_raises(self):
        with pytest.raises(GraphError):
            Graph().remove_node("missing")


class TestEdgeOperations:
    def test_unweighted_pairs_get_weight_one(self):
        g = Graph(edges=[(0, 1)])
        assert g.edge_weight(0, 1) == 1.0

    def test_weighted_triples(self):
        g = Graph(edges=[(0, 1, 2.5)])
        assert g.edge_weight(0, 1) == 2.5
        assert g.edge_weight(1, 0) == 2.5

    def test_repeated_edges_accumulate(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 2.0)
        assert g.num_edges == 1
        assert g.edge_weight(0, 1) == pytest.approx(3.0)

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_negative_weight_rejected(self, weight):
        with pytest.raises(GraphError):
            Graph(edges=[(0, 1, weight)])

    def test_bad_edge_tuple_rejected(self):
        with pytest.raises(GraphError):
            Graph(edges=[(0, 1, 2, 3)])

    def test_self_loop_counted_once_in_edges(self):
        g = Graph(edges=[(0, 0, 4.0)])
        assert g.num_edges == 1
        assert g.total_weight == 4.0
        assert g.self_loop_weight(0) == 4.0

    def test_self_loops_accumulate(self):
        g = Graph(edges=[(0, 0, 1.0), (0, 0, 2.0)])
        assert g.num_edges == 1
        assert g.self_loop_weight(0) == pytest.approx(3.0)

    def test_remove_edge(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.total_weight == pytest.approx(3.0)

    def test_remove_missing_edge_raises(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_edges_iteration_yields_each_edge_once(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 2, 5.0)])
        edges = list(g.edges())
        assert len(edges) == 4
        keys = {(min(u, v), max(u, v)) for u, v, _ in edges}
        assert keys == {(0, 1), (1, 2), (0, 2), (2, 2)}

    def test_edge_weight_missing_raises(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(GraphError):
            g.edge_weight(0, 1)
        with pytest.raises(GraphError):
            g.edge_weight(0, 0)


class TestDegreesAndDensity:
    def test_weighted_degree(self):
        g = Graph(edges=[(0, 1, 2.0), (0, 2, 3.0), (0, 0, 1.5)])
        assert g.degree(0) == pytest.approx(6.5)
        assert g.degree(1) == pytest.approx(2.0)

    def test_unweighted_degree_counts_loop_once(self):
        g = Graph(edges=[(0, 1), (0, 0)])
        assert g.unweighted_degree(0) == 2
        assert g.unweighted_degree(1) == 1

    def test_degree_of_unknown_node_raises(self):
        with pytest.raises(GraphError):
            Graph().degree("x")

    def test_graph_density(self, k6):
        assert k6.density() == pytest.approx(15 / 6)

    def test_density_of_empty_graph_raises(self):
        with pytest.raises(GraphError):
            Graph().density()

    def test_subset_weight_counts_internal_edges_and_loops(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.0), (0, 0, 1.0)])
        assert g.subset_weight([0, 1]) == pytest.approx(3.0)   # edge (0,1) + loop at 0
        assert g.subset_weight([0, 1, 2]) == pytest.approx(6.0)

    def test_subset_density(self, k6):
        assert k6.subset_density([0, 1, 2]) == pytest.approx(1.0)
        assert k6.subset_density(k6.nodes()) == pytest.approx(2.5)

    def test_subset_density_empty_raises(self, k6):
        with pytest.raises(GraphError):
            k6.subset_density([])

    def test_subset_with_unknown_node_raises(self, k6):
        with pytest.raises(GraphError):
            k6.subset_density([0, 99])


class TestCopyAndEquality:
    def test_copy_is_equal_but_independent(self, k6):
        clone = k6.copy()
        assert clone == k6
        clone.add_edge(0, 1, 1.0)  # accumulates weight
        assert clone != k6

    def test_copy_keeps_row_order_and_fingerprint(self):
        from repro.graph.csr import graph_fingerprint

        g = Graph(nodes=[0, 1, 2])
        g.add_edge(2, 1)
        g.add_edge(2, 0)
        g.add_edge(1, 1, 2.0)
        clone = g.copy()
        assert list(clone.neighbors(2)) == [1, 0]
        assert graph_fingerprint(clone) == graph_fingerprint(g)
        assert (clone.num_edges, clone.total_weight) == (g.num_edges, g.total_weight)
        clone.remove_edge(1, 1)
        assert g.has_edge(1, 1)

    def test_equality_checks_weights(self):
        a = Graph(edges=[(0, 1, 1.0)])
        b = Graph(edges=[(0, 1, 2.0)])
        assert a != b

    def test_equality_with_non_graph(self):
        assert Graph() != 42

    def test_relabel_to_integers(self):
        g = Graph(edges=[("x", "y", 2.0), ("y", "z", 3.0)])
        relabeled, mapping = g.relabeled_to_integers()
        assert set(mapping.keys()) == {"x", "y", "z"}
        assert relabeled.num_edges == 2
        assert relabeled.edge_weight(mapping["x"], mapping["y"]) == 2.0

    def test_is_unit_weighted(self):
        assert Graph(edges=[(0, 1), (1, 2)]).is_unit_weighted()
        assert not Graph(edges=[(0, 1, 2.0)]).is_unit_weighted()
