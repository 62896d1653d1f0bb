"""Unit contract of the graph-delta layer: canonicalisation, wire form,
chain fingerprints, application semantics, and store lineage records.

The cross-engine bit-identity of the incremental re-solve lives in
test_session_equivalence.py (TestDeltaEquivalence); this file pins the
building blocks it composes."""

from __future__ import annotations

import json

import pytest

from repro.errors import GraphError
from repro.graph import (Graph, GraphDelta, apply_delta, chain_fingerprint,
                         changed_labels)
from repro.store import ArtifactStore

ROOT_FP = "0" * 64


def small_graph() -> Graph:
    return Graph([(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0), (0, 3, 1.0)])


class TestCanonicalisation:
    def test_sections_sort_and_normalise_pairs(self):
        a = GraphDelta(add_edges=((5, 1, 2.0), (0, 2, 1.0)),
                       remove_edges=((3, 0),))
        b = GraphDelta(add_edges=((2, 0, 1.0), (1, 5, 2.0)),
                       remove_edges=((0, 3),))
        assert a == b
        assert a.add_edges == ((0, 2, 1.0), (1, 5, 2.0))
        assert a.remove_edges == ((0, 3),)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            GraphDelta(add_edges=((0, 1, 2.0), (1, 0, 3.0)))
        with pytest.raises(GraphError, match="duplicate"):
            GraphDelta(add_nodes=(7, 7))

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphError, match="non-negative"):
            GraphDelta(set_weights=((0, 1, -2.0),))

    def test_arity_enforced(self):
        with pytest.raises(GraphError, match="fields"):
            GraphDelta(add_edges=((0, 1),))
        with pytest.raises(GraphError, match="fields"):
            GraphDelta(remove_edges=((0, 1, 2.0),))

    def test_empty_and_counts(self):
        assert GraphDelta().is_empty
        d = GraphDelta(add_edges=((0, 1, 1.0),), add_nodes=(9,))
        assert not d.is_empty
        assert d.num_operations == 2
        assert d.describe() == "delta(+1e -0e ~0w +1n)"


class TestWireForm:
    def test_round_trip(self):
        d = GraphDelta(add_edges=(("a", "b", 2.0),),
                       remove_edges=(("b", "c"),),
                       set_weights=(("a", "c", 5.0),),
                       add_nodes=("z",))
        doc = json.loads(json.dumps(d.to_dict()))
        assert GraphDelta.from_dict(doc) == d

    def test_schema_and_fields_validated(self):
        with pytest.raises(GraphError, match="schema"):
            GraphDelta.from_dict({"schema": "bogus/9"})
        with pytest.raises(GraphError, match="unknown delta fields"):
            GraphDelta.from_dict({"bogus": []})
        with pytest.raises(GraphError, match="JSON scalars"):
            GraphDelta.from_dict({"add_edges": [[(1, 2), "x", 1.0]]})
        with pytest.raises(GraphError, match="object"):
            GraphDelta.from_dict([1, 2])


class TestApply:
    def test_semantics_add_remove_set(self):
        child = apply_delta(small_graph(), GraphDelta(
            add_edges=((0, 1, 3.0), (4, 5, 1.0)),
            remove_edges=((1, 2),),
            set_weights=((2, 3, 9.0),),
            add_nodes=(99,)))
        assert child.edge_weight(0, 1) == 5.0      # accumulated
        assert not child.has_edge(1, 2)            # removed
        assert child.edge_weight(2, 3) == 9.0      # absolute
        assert child.has_edge(4, 5)                # endpoints created
        assert child.has_node(99)                  # isolated node added
        parent = small_graph()
        assert parent.edge_weight(0, 1) == 2.0     # parent untouched

    def test_removing_absent_edge_raises(self):
        with pytest.raises(GraphError):
            apply_delta(small_graph(), GraphDelta(remove_edges=((0, 2),)))

    def test_parent_node_order_is_stable(self):
        parent = small_graph()
        child = apply_delta(parent, GraphDelta(add_edges=((1, 7, 1.0),)))
        parent_order = list(parent.nodes())
        assert list(child.nodes())[:len(parent_order)] == parent_order

    def test_empty_delta_child_fingerprints_like_its_parent(self):
        from repro.graph.csr import graph_fingerprint

        parent = Graph(nodes=[0, 1, 2])
        parent.add_edge(2, 1)
        parent.add_edge(2, 0)
        child = apply_delta(parent, GraphDelta())
        assert graph_fingerprint(child) == graph_fingerprint(parent)

    def test_changed_labels_cover_all_sections(self):
        d = GraphDelta(add_edges=((0, 1, 1.0),), remove_edges=((2, 3),),
                       set_weights=((4, 5, 2.0),), add_nodes=(9,))
        assert changed_labels(d) == {0, 1, 2, 3, 4, 5, 9}


class TestChainFingerprint:
    def test_deterministic_in_canonical_form(self):
        a = GraphDelta(add_edges=((1, 0, 2.0), (3, 2, 1.0)))
        b = GraphDelta(add_edges=((2, 3, 1.0), (0, 1, 2.0)))
        assert chain_fingerprint(ROOT_FP, a) == chain_fingerprint(ROOT_FP, b)

    def test_distinct_deltas_and_parents_diverge(self):
        d = GraphDelta(add_edges=((0, 1, 2.0),))
        other = GraphDelta(add_edges=((0, 1, 3.0),))
        assert chain_fingerprint(ROOT_FP, d) != chain_fingerprint(ROOT_FP, other)
        assert chain_fingerprint(ROOT_FP, d) != chain_fingerprint("f" * 64, d)

    def test_sections_cannot_collide(self):
        added = GraphDelta(add_edges=((0, 1, 2.0),))
        reweighted = GraphDelta(set_weights=((0, 1, 2.0),))
        assert chain_fingerprint(ROOT_FP, added) != \
            chain_fingerprint(ROOT_FP, reweighted)

    def test_parent_must_be_64_hex(self):
        with pytest.raises(GraphError, match="64 hex"):
            chain_fingerprint("nope", GraphDelta())
        out = chain_fingerprint(ROOT_FP, GraphDelta())
        assert len(out) == 64 and int(out, 16) >= 0


class TestStoreLineage:
    def test_record_load_and_chain(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        d1 = GraphDelta(add_edges=((0, 9, 1.0),))
        d2 = GraphDelta(remove_edges=((0, 9),))
        child = chain_fingerprint(ROOT_FP, d1)
        grandchild = chain_fingerprint(child, d2)
        store.record_lineage(child, ROOT_FP, d1, content_fingerprint="a" * 64)
        store.record_lineage(grandchild, child, d2)

        rec = store.load_lineage(child)
        assert rec["parent"] == ROOT_FP
        assert rec["content_fingerprint"] == "a" * 64
        assert GraphDelta.from_dict(rec["delta"]) == d1

        chain = store.lineage_chain(grandchild)
        assert [r["fingerprint"] for r in chain] == [grandchild, child]
        assert store.load_lineage("b" * 64) is None
        assert store.lineage_chain("b" * 64) == []

    def test_store_backed_delta_under_a_tracer(self, tmp_path):
        from repro.obs import trace as obs_trace
        from repro.session import Session

        tracer = obs_trace.enable()
        try:
            parent = Session(small_graph(), store=tmp_path / "store")
            child = parent.apply_delta(GraphDelta(add_edges=((0, 2, 1.0),)))
        finally:
            obs_trace.disable()
        spans = [r for r in tracer.spans() if r["name"] == "store.record_lineage"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["fingerprint"] == child.chain_fingerprint
        assert spans[0]["attrs"]["parent_fingerprint"] == parent.chain_fingerprint

    def test_lineage_survives_evict_but_not_purge(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        child = chain_fingerprint(ROOT_FP, GraphDelta(add_nodes=(1,)))
        store.record_lineage(child, ROOT_FP, GraphDelta(add_nodes=(1,)))
        store.evict(max_bytes=0)
        assert store.load_lineage(child) is not None
        store.purge()
        assert store.load_lineage(child) is None


class TestSessionApplyDeltaValidation:
    def test_requires_graphdelta_and_valid_fraction(self):
        from repro.errors import AlgorithmError
        from repro.session import Session
        session = Session(small_graph())
        with pytest.raises(AlgorithmError):
            session.apply_delta({"add_edges": []})
        with pytest.raises(AlgorithmError):
            session.apply_delta(GraphDelta(), max_frontier_fraction=1.5)

    def test_empty_delta_child_reuses_the_parent_artifacts(self, tmp_path):
        from repro.session import Session

        graph = Graph(nodes=[0, 1, 2, 3])
        for u, v in ((3, 1), (3, 0), (2, 1), (2, 0), (1, 0)):
            graph.add_edge(u, v)
        parent = Session(graph, store=tmp_path / "store")
        expected = parent.coreness(rounds=3).values
        child = parent.apply_delta(GraphDelta())
        assert child.fingerprint == parent.fingerprint
        fresh = Session(child.graph, store=tmp_path / "store")
        assert fresh.coreness(rounds=3).values == expected
        assert fresh.stats.disk_hits == 1 and fresh.stats.rounds_executed == 0

    def test_child_carries_lineage(self):
        from repro.session import Session
        parent = Session(small_graph())
        delta = GraphDelta(add_edges=((0, 2, 1.0),))
        child = parent.apply_delta(delta)
        assert child.parent is parent
        assert child.delta == delta
        assert child.chain_fingerprint == \
            chain_fingerprint(parent.fingerprint, delta)
        assert child.chain_fingerprint != child.fingerprint
        # Root sessions answer their content fingerprint as chain address.
        assert parent.chain_fingerprint == parent.fingerprint
