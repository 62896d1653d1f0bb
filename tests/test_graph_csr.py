"""Tests for the CSR view (repro.graph.csr)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import csr_subset_density, graph_fingerprint, graph_to_csr
from repro.graph.graph import Graph


def _int_labels() -> Graph:
    g = Graph(nodes=range(6))
    for u, v, w in ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (3, 4, 1.0),
                    (0, 4, 3.0), (5, 1, 1.0)):
        g.add_edge(u, v, w)
    return g


def _out_of_order_ints() -> Graph:
    g = Graph()
    g.add_edge(5, 2, 1.0)
    g.add_edge(2, 9, 0.0)      # zero-weight edge
    g.add_edge(9, 9, 2.5)      # self-loop
    g.add_edge(7, 5, 1.5)
    g.add_edge(2, 7, 1.0)
    g.add_node(3)
    return g


def _strings_edge_readded() -> Graph:
    g = Graph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "c", 1.0)
    g.add_edge("c", "d", 0.25)
    g.remove_edge("a", "b")
    g.add_edge("a", "b", 1.0)  # now after "c" in the rows of "a" and "b"
    return g


#: Small graphs with their content fingerprints, pinned so that a change to
#: the CSR row order, the label -> id mapping or the label hashing fails here
#: (the store addresses every artifact by these digests).
PINNED_GRAPHS = [
    pytest.param(_int_labels,
                 "a72fc99f28beee2af98d4ab1aa0948f2930dc165f4bde58a7d76c8a5131be34c",
                 id="int-labels"),
    pytest.param(_out_of_order_ints,
                 "a466ce23cc026d86b21f35957de6271318e4145d4dfd6f44d7ebf17491a585ac",
                 id="out-of-order-ints"),
    pytest.param(_strings_edge_readded,
                 "9f26df2d87eb8b8e0d65542fb4ad60ec61bb4cae069a187afed5734a967e5f35",
                 id="strings-edge-readded"),
]


class TestGraphToCSR:
    def test_roundtrip_preserves_graph(self, k6):
        csr = graph_to_csr(k6)
        assert csr.to_graph() == k6

    def test_roundtrip_with_weights_and_loops(self):
        g = Graph(edges=[(0, 1, 2.0), (1, 2, 3.5), (2, 2, 1.25)])
        csr = graph_to_csr(g)
        assert csr.to_graph() == g

    def test_num_nodes_and_entries(self, cycle8):
        csr = graph_to_csr(cycle8)
        assert csr.num_nodes == 8
        assert csr.num_directed_entries == 16  # each edge stored twice

    def test_degrees_match_graph(self, small_weighted):
        csr = graph_to_csr(small_weighted)
        degs = csr.degrees()
        for i, label in enumerate(csr.labels()):
            assert degs[i] == pytest.approx(small_weighted.degree(label))

    def test_degrees_include_self_loops(self):
        g = Graph(edges=[(0, 1, 1.0), (0, 0, 2.0)])
        csr = graph_to_csr(g)
        assert csr.degrees()[0] == pytest.approx(3.0)

    def test_neighbors_and_weights_alignment(self, small_weighted):
        csr = graph_to_csr(small_weighted)
        labels = csr.labels()
        idx0 = labels.index(0)
        nbr_labels = {labels[int(u)] for u in csr.neighbors(idx0)}
        assert nbr_labels == {1, 2, 3}
        assert csr.neighbor_weights(idx0).sum() == pytest.approx(7.0)

    def test_isolated_nodes_have_empty_rows(self):
        g = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        csr = graph_to_csr(g)
        assert len(csr.neighbors(2)) == 0

    def test_label_of(self):
        g = Graph(edges=[("a", "b")])
        csr = graph_to_csr(g)
        assert csr.label_of(0) == "a"
        assert csr.label_of(1) == "b"


class TestBulkExtraction:
    @pytest.mark.parametrize("build, digest", PINNED_GRAPHS)
    def test_fingerprint_is_pinned(self, build, digest):
        assert graph_fingerprint(build()) == digest

    @pytest.mark.parametrize("build, digest", PINNED_GRAPHS)
    def test_copy_keeps_the_fingerprint(self, build, digest):
        assert graph_fingerprint(build().copy()) == digest

    @pytest.mark.parametrize("build, digest", PINNED_GRAPHS)
    def test_arrays_follow_the_adjacency_rows(self, build, digest):
        graph = build()
        nodes = list(graph.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        csr = graph_to_csr(graph)
        assert csr.node_order == tuple(nodes)
        assert csr.indptr.dtype == csr.indices.dtype == np.int64
        assert csr.weights.dtype == csr.loops.dtype == np.float64
        assert csr.indptr.tolist() == np.cumsum(
            [0] + [len(graph.neighbor_weights(v)) for v in nodes]).tolist()
        assert csr.indices.tolist() == [index[u] for v in nodes
                                        for u in graph.neighbors(v)]
        assert csr.weights.tolist() == [w for v in nodes
                                        for w in graph.neighbor_weights(v).values()]
        assert csr.loops.tolist() == [graph.self_loop_weight(v) for v in nodes]

    def test_labels_equal_to_positions_but_of_other_types(self):
        g = Graph(nodes=[False, True, 2])
        g.add_edge(2, True, 1.0)
        g.add_edge(False, 2, 3.0)
        csr = graph_to_csr(g)
        assert csr.node_order == (False, True, 2)
        assert csr.indices.tolist() == [2, 2, 1, 0]
        assert csr.weights.tolist() == [3.0, 1.0, 1.0, 3.0]

    def test_mixed_label_types_go_through_the_index(self):
        g = Graph(edges=[(1, "1", 2.0), ("1", (0, 1), 1.0), ((0, 1), (0, 1), 4.0)])
        csr = graph_to_csr(g)
        assert csr.indices.tolist() == [1, 0, 2, 1]
        assert csr.loops.tolist() == [0.0, 0.0, 4.0]
        assert csr.to_graph() == g


class TestCSRSubsetDensity:
    def test_matches_graph_subset_density(self, k6):
        csr = graph_to_csr(k6)
        mask = np.zeros(6, dtype=bool)
        mask[:3] = True
        assert csr_subset_density(csr, mask) == pytest.approx(k6.subset_density([0, 1, 2]))

    def test_with_self_loops(self):
        g = Graph(edges=[(0, 1, 1.0), (1, 1, 4.0), (1, 2, 1.0)])
        csr = graph_to_csr(g)
        mask = np.array([True, True, False])
        assert csr_subset_density(csr, mask) == pytest.approx(g.subset_density([0, 1]))

    def test_rejects_wrong_mask_shape(self, k6):
        csr = graph_to_csr(k6)
        with pytest.raises(GraphError):
            csr_subset_density(csr, np.ones(3, dtype=bool))

    def test_rejects_empty_selection(self, k6):
        csr = graph_to_csr(k6)
        with pytest.raises(GraphError):
            csr_subset_density(csr, np.zeros(6, dtype=bool))
