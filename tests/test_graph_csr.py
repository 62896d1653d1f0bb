"""Tests for the CSR view (repro.graph.csr)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import bfs
from repro.core.bfs import comparable_identity, identity_ranks
from repro.core.orientation import _repr_ranks
from repro.errors import GraphError
from repro.graph import csr as csr_module
from repro.graph.csr import (
    csr_fingerprint,
    csr_subset_densities,
    csr_subset_density,
    graph_fingerprint,
    graph_to_csr,
)
from repro.graph.delta import GraphDelta, apply_delta, changed_labels
from repro.graph.generators.random_graphs import erdos_renyi_gnp
from repro.graph.graph import Graph
from repro.session import Session


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


def _isolated_and_loops() -> Graph:
    g = _out_of_order_ints()
    g.add_node(11)
    g.add_edge(11, 11, 1.0)   # an isolated node with only a loop
    g.add_edge(3, 3, 0.5)
    return g


class TestReverseEntries:
    @pytest.mark.parametrize("build", [
        _int_labels, _out_of_order_ints, _strings_edge_readded,
        _isolated_and_loops, lambda: Graph(nodes=range(3)), Graph,
        lambda: erdos_renyi_gnp(300, 0.05, seed=3)])
    def test_twin_is_the_reverse_entry(self, build):
        csr = graph_to_csr(build())
        twin = csr.twin()
        rows = np.repeat(np.arange(csr.num_nodes), np.diff(csr.indptr))
        entries = np.arange(csr.num_directed_entries)
        keys = (rows * csr.num_nodes + csr.indices)[csr.sorted_entries()]
        assert np.all(np.diff(keys) > 0)
        assert np.array_equal(np.sort(csr.sorted_entries()), entries)
        assert np.array_equal(twin[twin], entries)
        assert np.array_equal(rows[twin], csr.indices)
        assert np.array_equal(csr.indices[twin], rows)
        assert np.array_equal(csr.weights[twin], csr.weights)


class TestPerViewMemo:
    @pytest.mark.parametrize("read, module, name", [
        (lambda view: view.entry_rows(), csr_module, "_rows_of_entries"),
        (lambda view: view.sorted_entries(), csr_module, "_entries_by_key"),
        (lambda view: view.twin(), csr_module, "_reverse_entries"),
        (identity_ranks, bfs, "_identity_ranks")])
    def test_computed_once_per_view_and_read_only(self, monkeypatch, read,
                                                  module, name):
        compute = getattr(module, name)
        calls = []
        monkeypatch.setattr(module, name,
                            lambda view: calls.append(view) or compute(view))
        view = graph_to_csr(_strings_edge_readded())
        first = read(view)
        assert read(view) is first
        assert len(calls) == 1 and calls[0] is view
        with pytest.raises(ValueError):
            first[0] = first[-1]
        other = graph_to_csr(_strings_edge_readded())
        assert np.array_equal(read(other), first)
        assert len(calls) == 2 and calls[1] is other

    def test_fingerprint_encodes_the_labels_once_per_view(self, monkeypatch):
        encode = csr_module._label_block
        calls = []
        monkeypatch.setattr(csr_module, "_label_block",
                            lambda view: calls.append(view) or encode(view))
        view = graph_to_csr(_strings_edge_readded())
        first = csr_fingerprint(view)
        assert csr_fingerprint(view) == first
        assert len(calls) == 1 and calls[0] is view

    def test_fingerprint_is_hashed_once_per_view(self, monkeypatch):
        import hashlib
        import types

        hashes = []

        def counting_sha256(*args):
            hashes.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(csr_module, "hashlib",
                            types.SimpleNamespace(sha256=counting_sha256))
        view = graph_to_csr(_strings_edge_readded())
        first = csr_fingerprint(view)
        assert csr_fingerprint(view) is first
        assert len(hashes) == 1
        other = graph_to_csr(_strings_edge_readded())
        assert csr_fingerprint(other) == first
        assert len(hashes) == 2  # the memo lives on the view, not the content

    def test_a_spliced_view_never_inherits_its_parents_digest(self):
        # A child without new nodes takes the label-only memos as they are;
        # the digest also hashes the arrays, so it must be computed afresh.
        graph = _strings_edge_readded()
        view = graph_to_csr(graph)
        parent_digest = csr_fingerprint(view)
        delta = GraphDelta(add_edges=[("a", "d", 1.0)])
        child = apply_delta(graph, delta)
        spliced = graph_to_csr(child, parent=view,
                               touched=changed_labels(delta))
        assert "label_block" in spliced._memo
        assert "fingerprint" not in spliced._memo
        assert csr_fingerprint(spliced) == csr_fingerprint(graph_to_csr(child))
        assert csr_fingerprint(spliced) != parent_digest


class TestIntegerIdentityRanks:
    """Int labels are ranked by arithmetic on their values, in the string
    order of their spellings that :func:`comparable_identity` defines."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1),
                              st.integers(-1000, 1000),
                              st.sampled_from([-2**63, 2**63 - 1, 0, -1])),
                    min_size=1, max_size=60, unique=True))
    def test_ranks_follow_the_spelled_order(self, labels):
        view = graph_to_csr(Graph(nodes=labels))
        ranks = identity_ranks(view)
        by_rank = [view.labels()[i] for i in np.argsort(ranks)]
        assert by_rank == sorted(labels, key=comparable_identity)


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


class TestCSRSubsetDensities:
    @pytest.mark.parametrize("seed", range(6))
    def test_groups_match_graph_subset_density_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        g = Graph(nodes=range(30))
        for u in range(30):
            for v in range(u, 30):
                if rng.random() < 0.2:
                    g.add_edge(u, v, float(rng.integers(1, 9)) / 4.0)
        group = rng.integers(-1, 5, size=30)
        csr = graph_to_csr(g)
        densities = csr_subset_densities(csr, group, 7)
        for gid in range(7):
            members = [v for v in range(30) if group[v] == gid]
            if members:
                assert densities[gid] == g.subset_density(members)
            else:
                assert np.isnan(densities[gid])

    def test_rejects_wrong_group_shape(self, k6):
        with pytest.raises(GraphError):
            csr_subset_densities(graph_to_csr(k6), np.zeros(3, dtype=np.int64), 1)


#: Label families for the splice properties: ids, strings, tuples.
LABELINGS = {"int": lambda i: i, "str": lambda i: f"v{i}",
             "tuple": lambda i: (i % 3, f"n{i}")}

_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25])


@st.composite
def delta_chains(draw):
    """A random graph and three deltas applied one after another.

    The graph has labels of one family, in id order or shuffled, zero
    weights and zero-weight loops.  Each delta removes edges, sets weights
    on present and absent edges and loops, adds weight onto present and new
    edges, adds nodes, and may remove an edge and add it back in the same
    batch.
    """
    label = LABELINGS[draw(st.sampled_from(sorted(LABELINGS)))]
    n = draw(st.integers(min_value=1, max_value=10))
    order = draw(st.one_of(st.just(range(n)), st.permutations(range(n))))
    graph = Graph(nodes=[label(i) for i in order])
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        graph.add_edge(label(u), label(v), draw(_WEIGHTS))

    deltas, current, fresh = [], graph, n
    for _ in range(3):
        nodes = list(current.nodes())
        new = [label(fresh + i) for i in range(draw(st.integers(0, 2)))]
        fresh += len(new)
        ends = st.sampled_from(nodes + new)
        pairs = st.tuples(ends, ends)
        present = [(u, v) for u, v, _ in current.edges()]
        removed = draw(st.lists(st.sampled_from(present), max_size=3,
                                unique_by=frozenset)) if present else []
        readded = draw(st.lists(st.sampled_from(removed), max_size=2,
                                unique_by=frozenset)) if removed else []
        weighted = st.tuples(pairs, _WEIGHTS).map(lambda e: (*e[0], e[1]))
        set_weights = draw(st.lists(weighted, max_size=3,
                                    unique_by=lambda e: frozenset(e[:2])))
        added = {frozenset(e[:2]): e
                 for e in draw(st.lists(weighted, max_size=3))}
        for u, v in readded:
            added[frozenset((u, v))] = (u, v, draw(_WEIGHTS))
        extra = [label(fresh + i) for i in range(draw(st.integers(0, 2)))]
        fresh += len(extra)
        delta = GraphDelta(add_edges=list(added.values()), remove_edges=removed,
                           set_weights=set_weights, add_nodes=new + extra)
        deltas.append(delta)
        current = apply_delta(current, delta)
    return graph, deltas


def _assert_same_view(spliced, fresh):
    assert spliced.node_order == fresh.node_order
    for name in ("indptr", "indices", "weights", "loops"):
        got, want = getattr(spliced, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _seed_label_memos(view):
    """Compute every label-only memo of ``view``."""
    view.label_index()
    csr_fingerprint(view)
    identity_ranks(view)
    _repr_ranks(view)


def _assert_same_memos(spliced, fresh):
    """Every memo ``spliced`` holds equals ``fresh``'s, computed afresh."""
    _seed_label_memos(fresh)
    fresh.sorted_entries()
    fresh.twin()
    for name, got in spliced._memo.items():
        want = fresh._memo[name]
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


class TestSplicedView:
    """``graph_to_csr(child, parent=..., touched=...)`` equals a full build."""

    @given(delta_chains(), st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_a_fresh_build_along_a_chain(self, chain, fingerprinted):
        graph, deltas = chain
        view = graph_to_csr(graph)
        if fingerprinted:
            _seed_label_memos(view)     # the label block and both rank arrays
        for delta in deltas:
            child = apply_delta(graph, delta)
            spliced = graph_to_csr(child, parent=view,
                                   touched=changed_labels(delta))
            fresh = graph_to_csr(child)
            _assert_same_view(spliced, fresh)
            _assert_same_memos(spliced, fresh)
            if fingerprinted:
                block = spliced._memo["label_block"]
                assert not block.flags.writeable
                assert block.tobytes() == \
                    csr_module._label_block(fresh).tobytes()
                _seed_label_memos(spliced)
            assert csr_fingerprint(spliced) == csr_fingerprint(fresh)
            assert spliced.label_index() == fresh.label_index()
            graph, view = child, spliced

    def test_a_child_without_new_nodes_shares_its_parents_ranks(self):
        graph = _strings_edge_readded()
        view = graph_to_csr(graph)
        ranks, by_repr = identity_ranks(view), _repr_ranks(view)
        delta = GraphDelta(add_edges=[("a", "d", 1.0)])
        spliced = graph_to_csr(apply_delta(graph, delta), parent=view,
                               touched=changed_labels(delta))
        assert identity_ranks(spliced) is ranks
        assert _repr_ranks(spliced) is by_repr

        # "aa" sorts between "a" and "b", so it shifts the ranks after it.
        delta = GraphDelta(add_edges=[("a", "aa", 1.0)])
        grown = apply_delta(graph, delta)
        spliced = graph_to_csr(grown, parent=view, touched=changed_labels(delta))
        fresh = graph_to_csr(grown)
        assert identity_ranks(spliced).tobytes() == identity_ranks(fresh).tobytes()
        assert _repr_ranks(spliced).tobytes() == _repr_ranks(fresh).tobytes()
        assert identity_ranks(spliced).tolist() != ranks.tolist() + [4]

    def test_a_child_without_new_nodes_shares_its_parents_labels(self):
        # Every answer on a view keeps its labels tuple alive, so a chain of
        # versions must not hold one equal copy per version.
        graph = _strings_edge_readded()
        view = graph_to_csr(graph)
        delta = GraphDelta(add_edges=[("a", "d", 1.0)])
        spliced = graph_to_csr(apply_delta(graph, delta), parent=view,
                               touched=changed_labels(delta))
        assert spliced.node_order is view.node_order

        delta = GraphDelta(add_edges=[("a", "z", 1.0)])
        grown = graph_to_csr(apply_delta(graph, delta), parent=view,
                             touched=changed_labels(delta))
        assert grown.node_order is not view.node_order
        assert grown.node_order == view.node_order + ("z",)

    @given(delta_chains())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_session_chain_fingerprints_match_fresh_ones(self, chain):
        graph, deltas = chain
        session = Session(graph)
        assert session.fingerprint == graph_fingerprint(graph)
        for delta in deltas:
            child = session.apply_delta(delta)
            assert child.fingerprint == graph_fingerprint(child.graph)
            assert child.stats.csr_builds == 1
            assert session.stats.csr_builds == 1
            session = child

    def test_session_splices_from_a_parent_view(self, monkeypatch):
        splices = []
        splice = csr_module._splice
        monkeypatch.setattr(csr_module, "_splice",
                            lambda *args: splices.append(args) or splice(*args))
        # A root builds its view to mint the chain fingerprint of a child.
        parent = Session(_strings_edge_readded())
        child = parent.apply_delta(GraphDelta(add_edges=[("d", "e", 1.0)]))
        assert child.fingerprint == graph_fingerprint(child.graph)
        assert len(splices) == 1 and splices[0][2] is parent.csr

    def test_a_parent_without_a_view_is_not_made_to_build_one(self):
        # A root mints its chain fingerprint from its view; a delta-derived
        # parent mints its own without building one.
        root = Session(_strings_edge_readded())
        parent = root.apply_delta(GraphDelta(remove_edges=[("a", "b")]))
        child = parent.apply_delta(GraphDelta(add_nodes=["z"]))
        assert child.fingerprint == graph_fingerprint(child.graph)
        assert parent.stats.csr_builds == 0 and parent._csr is None

    def test_unrelated_node_order_builds_in_full(self):
        parent = graph_to_csr(_strings_edge_readded())
        other = _out_of_order_ints()
        view = graph_to_csr(other, parent=parent, touched=())
        _assert_same_view(view, graph_to_csr(other))
        assert csr_fingerprint(view) == graph_fingerprint(other)

    def test_zero_weight_loop_stores_positive_zero(self):
        graph = _int_labels()
        view = graph_to_csr(graph)
        delta = GraphDelta(set_weights=[(2, 2, 0.0), (6, 6, 0.0)])
        child = apply_delta(graph, delta)
        child.add_edge(1, 1, -0.0)     # -0.0 passes the weight check
        spliced = graph_to_csr(child, parent=view, touched={1, 2, 6})
        assert not np.signbit(spliced.loops).any()
        _assert_same_view(spliced, graph_to_csr(child))

    def test_a_touched_set_missing_a_changed_row_fails(self):
        graph = _int_labels()
        view = graph_to_csr(graph)
        child = apply_delta(graph, GraphDelta(remove_edges=[(0, 1)]))
        with pytest.raises(GraphError, match="miss a changed row"):
            graph_to_csr(child, parent=view, touched={0})

    def test_a_touched_label_outside_the_graph_fails(self):
        graph = _int_labels()
        view = graph_to_csr(graph)
        with pytest.raises(GraphError, match="not nodes of the graph"):
            graph_to_csr(graph.copy(), parent=view, touched={"0"})
