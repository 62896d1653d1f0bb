"""Copy-on-write copies of :class:`Graph` behave like independent deep copies.

:meth:`Graph.copy` shares every row dict with its source and copies a row on
its first write, in whichever graph writes it.  The property test runs a
random program of copies and writes on a growing family of graphs and the
same program on a twin family built with the eager
:func:`tests.oracles.deep_copy`; after every step each member must read
exactly like its twin, down to row order and the float sums.
"""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.csr import graph_fingerprint
from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.generators.random_graphs import barabasi_albert
from repro.graph.graph import Graph

from oracles import deep_copy

#: Int and str labels, including the int 0 and the str "0".
_LABELS = (0, 1, 2, 3, 4, "0", "a", "b")
#: Zero weights (-0.0 passes the weight check too) and a decimal, so the
#: running float sums depend on the order of the operations.
_WEIGHTS = (0.0, -0.0, 0.1, 0.5, 1.0, 2.0, 3.25)

_label = st.sampled_from(_LABELS)
_weight = st.sampled_from(_WEIGHTS)


@st.composite
def _graphs(draw) -> Graph:
    graph = Graph(nodes=draw(st.lists(_label, unique=True, max_size=4)))
    for u, v, w in draw(st.lists(st.tuples(_label, _label, _weight),
                                 max_size=14)):
        graph.add_edge(u, v, w)
    return graph


def _reading(graph: Graph) -> tuple:
    """Everything a reader sees of ``graph``, weights compared by repr."""
    nodes = list(graph.nodes())
    rows = [[(u, repr(w)) for u, w in graph.neighbor_weights(v).items()]
            for v in nodes]
    loops = [(v, repr(w)) for v, w in graph.self_loops().items()]
    return nodes, rows, loops, graph.num_edges, repr(graph.total_weight)


def _call(graph: Graph, method: str, args: tuple):
    """``graph.method(*args)``; the error it raised, as type and message."""
    try:
        getattr(graph, method)(*args)
    except GraphError as exc:
        return type(exc), str(exc)
    return None


def _step(data, graph: Graph) -> tuple:
    """A write on ``graph``: method name and arguments."""
    nodes = list(graph.nodes())
    present = [(u, v) for u, v, _ in graph.edges()]
    method = data.draw(st.sampled_from(
        ("add_edge", "add_edge", "remove_edge", "remove_node", "add_node")))
    if method == "add_edge":
        # A present edge accumulates; loops come up as u == v.
        pair = data.draw(st.sampled_from(present) if present and data.draw(
            st.booleans()) else st.tuples(_label, _label))
        return method, (*pair, data.draw(_weight))
    if method == "remove_edge":
        # Absent edges (and loops) are drawn too: they must raise.
        pair = data.draw(st.sampled_from(present) if present and data.draw(
            st.booleans()) else st.tuples(_label, _label))
        return method, pair
    if method == "remove_node":
        v = data.draw(st.sampled_from(nodes) if nodes and data.draw(
            st.booleans()) else _label)
        return method, (v,)
    return method, (data.draw(_label),)


class TestCopiesActLikeDeepCopies:
    @given(_graphs(), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_program_of_copies_and_writes(self, graph, data):
        family, twins = [graph], [deep_copy(graph)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
            i = data.draw(st.integers(min_value=0, max_value=len(family) - 1))
            if data.draw(st.integers(min_value=0, max_value=3)) == 0:
                family.append(family[i].copy())
                twins.append(deep_copy(twins[i]))
            else:
                method, args = _step(data, family[i])
                before = _reading(family[i])
                outcome = _call(family[i], method, args)
                assert outcome == _call(twins[i], method, args), (method, args)
                if outcome is not None:     # a failed write changes nothing
                    assert _reading(family[i]) == before
            for member, twin in zip(family, twins):
                assert _reading(member) == _reading(twin)
        for member, twin in zip(family, twins):
            assert graph_fingerprint(member) == graph_fingerprint(twin)

    def test_a_write_to_the_source_leaves_the_copy_alone(self):
        graph = Graph([(0, 1, 1.0), (1, 2, 2.0)])
        clone = graph.copy()
        graph.add_edge(0, 1, 0.5)
        graph.remove_edge(1, 2)
        assert dict(clone.neighbor_weights(1)) == {0: 1.0, 2: 2.0}
        assert clone.total_weight == 3.0 and clone.num_edges == 2

    def test_a_failed_write_copies_no_row(self):
        graph = Graph([(0, 1, 1.0), (2, 3, 1.0)])
        clone = graph.copy()
        with pytest.raises(GraphError, match="not in graph"):
            clone.remove_edge(0, 2)
        with pytest.raises(GraphError, match="finite and non-negative"):
            clone.add_edge(0, 1, -1.0)
        assert clone._owned == set()
        assert all(clone.neighbor_weights(v) is graph.neighbor_weights(v)
                   for v in graph.nodes())

    def test_untouched_rows_stay_shared_along_a_chain(self):
        graph = Graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        child = apply_delta(graph, GraphDelta(add_edges=[(0, 1, 1.0)]))
        grandchild = apply_delta(child, GraphDelta(remove_edges=[(3, 4)]))
        for v in (2, 3, 4):
            assert child.neighbor_weights(v) is graph.neighbor_weights(v)
        for v in (0, 1, 2):
            assert grandchild.neighbor_weights(v) is child.neighbor_weights(v)
        assert child.neighbor_weights(0) is not graph.neighbor_weights(0)
        assert grandchild.neighbor_weights(3) is not child.neighbor_weights(3)


class TestPickle:
    def test_a_pickled_copy_owns_its_rows(self):
        graph = Graph([(0, 1, 1.0), (1, 2, 2.0), ("a", "a", 0.5)])
        clone = graph.copy()
        restored = pickle.loads(pickle.dumps(clone))
        assert restored._owned is None
        assert _reading(restored) == _reading(clone)
        assert graph_fingerprint(restored) == graph_fingerprint(clone)
        restored.add_edge(0, 1, 1.0)
        restored.remove_node(2)
        assert _reading(clone) == _reading(graph) == _reading(deep_copy(clone))
        assert dict(clone.neighbor_weights(1)) == {0: 1.0, 2: 2.0}

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_module_copies_are_independent(self, clone):
        # Both go through __getstate__; copy.copy used to alias the source's
        # adjacency dicts.
        graph = Graph([(0, 1, 1.0)])
        for source in (graph, graph.copy()):
            expected = _reading(source)
            duplicate = clone(source)
            duplicate.add_edge(1, 2, 1.0)
            duplicate.add_edge(0, 1, 2.0)
            assert _reading(source) == expected

    def test_graphs_pickled_together_share_no_row(self):
        graph = Graph([(0, 1, 1.0), (1, 2, 2.0)])
        source, clone = pickle.loads(pickle.dumps([graph, graph.copy()]))
        expected = _reading(source)
        clone.add_edge(0, 1, 4.0)
        clone.remove_edge(1, 2)
        assert _reading(source) == expected


def _retained_bytes(make) -> int:
    """Bytes allocated by ``make()`` and still alive while its result is."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = make()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return retained


def test_a_small_delta_retains_a_fraction_of_a_deep_copy():
    graph = barabasi_albert(5000, 3, seed=5)
    edges = [(u, v) for u, v, _ in graph.edges()][::997][:8]
    delta = GraphDelta(remove_edges=edges[:4],
                       set_weights=[(u, v, 2.0) for u, v in edges[4:8]],
                       add_edges=[(0, 4999, 1.0), (17, 4321, 1.5)])
    assert delta.num_operations == 10
    child = _retained_bytes(lambda: apply_delta(graph, delta))
    eager = _retained_bytes(lambda: deep_copy(graph))
    assert child < eager / 4, (child, eager)


def test_threads_deriving_children_of_one_parent_stay_isolated():
    # copy() resets the parent's owned set from every thread; each thread
    # then writes only its own children, which must never show another
    # thread's writes or change the parent.
    parent = barabasi_albert(400, 3, seed=9)
    fingerprint = graph_fingerprint(parent)
    edges = [(u, v) for u, v, _ in parent.edges()]
    deltas = [GraphDelta(remove_edges=[edges[7 * i]],
                         add_edges=[(i, 399 - i, 1.5)]) for i in range(6)]
    expected = [graph_fingerprint(apply_delta(parent, d)) for d in deltas]
    failures = []

    def derive(i):
        for _ in range(15):
            child = apply_delta(parent, deltas[i])
            if graph_fingerprint(child) != expected[i]:
                failures.append(i)
            child.add_edge(0, 1, 1.0)       # rows shared with the parent
            child.remove_node(2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=derive, args=(i,))
                   for i in range(len(deltas))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert graph_fingerprint(parent) == fingerprint
