"""Tests for the min-max orientation machinery (repro.core.orientation, Theorem I.2)."""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.invariants import check_orientation_invariants
from repro.baselines.exact_orientation import exact_orientation_unweighted, lp_lower_bound
from repro.core.api import CorenessResult, approximate_orientation
from repro.core.orientation import (
    EdgeOwners,
    KeptSets,
    NodeValues,
    canonical_edge,
    check_feasible,
    kept_sets_from_trajectory,
    max_value_of,
    orientation_from_kept,
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
from repro.session import Session
from oracles import orientation_from_kept_reference
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
    rng = np.random.default_rng(11)
    g = Graph(nodes=range(30))
    for u, v, _ in erdos_renyi_gnp(30, 0.2, seed=12).edges():
        g.add_edge(u, v, float(rng.random()) + 0.1)
    g.add_edge(3, 3, 0.3)
    return g


#: Non-dyadic edge weights: sums of these depend on their order.
WEIGHTS = {
    "thirds": lambda rng: float(rng.integers(1, 10)) / 3.0,
    "tenth": lambda rng: 0.1,
    "uniform": lambda rng: float(rng.random()) + 0.05,
}


def _random_labelled(seed: int, weights: str, labels: str) -> Graph:
    """A seeded G(n, p) with shuffled int or string labels, inserted in a
    shuffled order, with non-dyadic weights and one self-loop."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 48))
    base = erdos_renyi_gnp(n, float(rng.uniform(0.08, 0.3)), seed=seed)
    names = rng.permutation(10 * n)[:n].tolist()
    if labels == "str":
        names = [f"v{name}" for name in names]
    g = Graph(nodes=[names[i] for i in rng.permutation(n)])
    for u, v, _ in base.edges():
        g.add_edge(names[u], names[v], WEIGHTS[weights](rng))
    loop = names[int(rng.integers(n))]
    g.add_edge(loop, loop, WEIGHTS[weights](rng))
    return g


class TestArrayOrientationMatchesReference:
    """``orientation_from_kept`` (array) against the per-edge reference loop."""

    @pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
    @pytest.mark.parametrize("labels", ["int", "str"])
    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed, weights, labels, tie_break):
        """Conflicts, loads and owners under order-sensitive float sums, via
        the KeptSets and via the plain-mapping boundary."""
        graph = _random_labelled(seed, weights, labels)
        rounds = 2 + seed % 3
        csr = graph_to_csr(graph)
        surv = get_engine("vectorized").run(graph, rounds, tie_break=tie_break,
                                            track_kept=True, csr=csr)
        assert isinstance(surv.kept, KeptSets)
        plain = dict(surv.kept)
        for values in (surv.values, None):
            expected = orientation_from_kept_reference(graph, plain, values=values)
            for kept in (surv.kept, plain):
                _assert_same_orientation(orientation_from_kept(
                    graph, kept, values=values, csr=csr), expected)

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


class TestKeptSets:
    """The id-level ``N_v``: arrays on the CSR view, tuples on demand."""

    @pytest.mark.parametrize("tie_break", ["history", "stable", "naive"])
    def test_arrays_index_the_view(self, ba_weighted, tie_break):
        csr = graph_to_csr(ba_weighted)
        trajectory = surviving_numbers_vectorized(csr, 4)
        kept = kept_sets_from_trajectory(csr, trajectory, tie_break=tie_break)
        assert kept.view is csr
        claimants = np.repeat(np.arange(csr.num_nodes), np.diff(kept.indptr))
        assert np.array_equal(csr.indices[kept.entries], kept.members)
        assert np.all((csr.indptr[claimants] <= kept.entries)
                      & (kept.entries < csr.indptr[claimants + 1]))
        for array in (kept.indptr, kept.members, kept.entries):
            with pytest.raises(ValueError):
                array[0] = 0
        orientation_from_kept(ba_weighted, kept, csr=csr)
        labels = csr.labels()
        assert list(kept) == list(labels) and len(kept) == len(labels)
        assert kept._dict is None   # built only when a tuple is read
        assert list(kept.items()) == [
            (label, tuple(labels[j] for j in
                          kept.members[kept.indptr[i]:kept.indptr[i + 1]]))
            for i, label in enumerate(labels)]

    def test_empty_and_from_mapping(self):
        empty = KeptSets.empty(("a", "b"))
        assert empty == {"a": (), "b": ()} and empty["b"] == ()
        by_id = KeptSets.from_mapping({"b": ("a", "ghost"), "nobody": ("a",),
                                       "a": ("b",)}, ("a", "b"))
        assert by_id.indptr.tolist() == [0, 1, 2]
        assert by_id.members.tolist() == [1, 0]
        assert by_id.entries is None
        assert dict(by_id) == {"a": ("b",), "b": ("a",)}

    def test_concurrent_first_reads_agree(self, ba_weighted):
        """Threads racing on a fresh view's memo and on the lazy tuple dict
        all get the same answer (no lock: a lost update is an equal value)."""
        import sys
        import threading

        csr = graph_to_csr(ba_weighted)
        surv = get_engine("vectorized").run(ba_weighted, 4, track_kept=True,
                                            csr=csr)
        expected = orientation_from_kept_reference(ba_weighted, dict(surv.kept))
        # An identical view with nothing memoised yet.
        view = graph_to_csr(ba_weighted)
        fresh = KeptSets(surv.kept.labels, surv.kept.indptr, surv.kept.members,
                         surv.kept.entries, view=view)
        start = threading.Barrier(8)
        results = []

        def read():
            start.wait(timeout=10)
            results.append((dict(fresh), orientation_from_kept(
                ba_weighted, fresh, csr=view)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        for tuples, orientation in results:
            assert tuples == dict(surv.kept)
            _assert_same_orientation(orientation, expected)

    def test_kept_sets_of_another_view_are_converted(self, ba_weighted):
        surv = get_engine("vectorized").run(ba_weighted, 4, track_kept=True)
        other = graph_to_csr(ba_weighted.copy())
        assert surv.kept.view is not other
        _assert_same_orientation(
            orientation_from_kept(ba_weighted, surv.kept, values=surv.values,
                                  csr=other),
            orientation_from_kept_reference(ba_weighted, surv.kept,
                                            values=surv.values))


#: Edge and loop weights for the lazy-answer properties: zeros, dyadic and
#: non-dyadic values.
ANSWER_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 0.1, 1.0 / 3.0, 7.25)


@st.composite
def labelled_graphs(draw):
    """Small graphs with int, str or tuple labels inserted in a shuffled
    order, with zero weights and self-loops (zero-weight loops included)."""
    kind = draw(st.sampled_from(["int", "str", "tuple"]))
    n = draw(st.integers(min_value=1, max_value=9))
    name = {"int": lambda i: 5 * i - 7, "str": lambda i: f"v{i}",
            "tuple": lambda i: (i % 3, f"t{i}")}[kind]
    labels = [name(i) for i in draw(st.permutations(range(n)))]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = st.sampled_from(ANSWER_WEIGHTS)
    edges = draw(st.lists(st.one_of(st.none(), weights),
                          min_size=len(pairs), max_size=len(pairs)))
    loops = draw(st.lists(st.one_of(st.none(), weights), min_size=n, max_size=n))
    graph = Graph(nodes=labels)
    for (i, j), w in zip(pairs, edges):
        if w is not None:
            graph.add_edge(labels[i], labels[j], w)
    for i, w in enumerate(loops):
        if w is not None:
            graph.add_edge(labels[i], labels[i], w)
    return graph


#: One random edit: (operation, key index, a float for value writes).
EDITS = st.lists(st.tuples(
    st.sampled_from(["set", "new", "del", "pop", "popitem", "setdefault"]),
    st.integers(min_value=0, max_value=100),
    st.sampled_from([-0.0, 0.0, 1.5, -3.0, 1e300, 0.1])), max_size=8)


def _assert_same_dict(mapping, expected):
    """``mapping`` reads as the dict ``expected``: key order, float bits
    (via ``repr``), ``==`` both ways, ``len``, ``in``, ``get``, views."""
    assert list(map(repr, mapping.items())) == list(map(repr, expected.items()))
    assert list(mapping) == list(expected)
    assert list(mapping.keys()) == list(expected.keys())
    assert list(map(repr, mapping.values())) == list(map(repr, expected.values()))
    assert mapping == expected and expected == mapping
    assert not (mapping != expected) and not (expected != mapping)
    assert len(mapping) == len(expected)
    for key, value in expected.items():
        assert key in mapping
        assert repr(mapping.get(key)) == repr(value)
        assert repr(mapping[key]) == repr(value)
    assert ("no such key",) not in mapping
    assert mapping.get(("no such key",), "default") == "default"


def _edit(edits, mapping, plain, new_value):
    """Apply the same ``edits`` to ``mapping`` and to the dict ``plain``."""
    for op, index, number in edits:
        keys = list(plain)
        key = keys[index % len(keys)] if keys else ("absent", index)
        value = new_value(number, index)
        if op == "set":
            mapping[key] = plain[key] = value
        elif op == "new":
            mapping[("new", index)] = plain[("new", index)] = value
        elif op == "del":
            if key in plain:
                del plain[key]
                del mapping[key]
            else:
                with pytest.raises(KeyError):
                    del mapping[key]
        elif op == "pop":
            assert repr(mapping.pop(key, None)) == repr(plain.pop(key, None))
        elif op == "popitem":
            if plain:
                assert repr(mapping.popitem()) == repr(plain.popitem())
        else:
            assert repr(mapping.setdefault(key, value)) == \
                repr(plain.setdefault(key, value))


class TestLazyAnswersEqualEagerDicts:
    """``NodeValues`` and ``EdgeOwners`` read exactly as the dicts they
    replace, before and after writes, through the result classes too."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(labelled_graphs(), st.integers(min_value=1, max_value=4),
           st.sampled_from(["history", "stable", "naive"]), EDITS, EDITS)
    def test_mappings_match_dicts(self, graph, rounds, tie_break, value_edits,
                                  edge_edits):
        session = Session(graph)
        core = session.coreness(rounds=rounds)
        result = session.orientation(rounds=rounds, tie_break=tie_break)
        orientation = result.orientation
        surv = result.surviving
        labels = session.csr.labels()
        assert isinstance(core.values, NodeValues)
        assert isinstance(result.values, NodeValues)
        assert isinstance(orientation.in_weight, NodeValues)
        assert isinstance(orientation.assignment, EdgeOwners)

        # Iteration, len and items() read the arrays and build nothing.
        for mapping in (core.values, orientation.in_weight,
                        orientation.assignment):
            list(mapping), len(mapping), list(mapping.items())
            list(mapping.values()), max_value_of(orientation.in_weight)
            assert mapping._dict is None

        values = dict(zip(labels, surv.trajectory[rounds].tolist()))
        _assert_same_dict(result.values, values)
        _assert_same_dict(core.values, dict(zip(
            labels, session.surviving(rounds=rounds).trajectory[rounds].tolist())))
        _assert_same_dict(orientation.in_weight, dict(zip(
            labels, orientation.in_weight.array.tolist())))
        reference = orientation_from_kept_reference(graph, dict(surv.kept),
                                                    values=values)
        _assert_same_dict(orientation.assignment, reference.assignment)
        _assert_same_dict(orientation.in_weight, reference.in_weight)
        for mapping in (core.values, orientation.in_weight,
                        orientation.assignment):
            clone = pickle.loads(pickle.dumps(mapping))
            _assert_same_dict(clone, dict(mapping.items()))

        # The same results built from plain dicts serialise byte for byte
        # alike, before and after the same random edits.
        plain_core = dataclasses.replace(core, values=dict(core.values))
        plain_result = dataclasses.replace(
            result, values=dict(result.values),
            orientation=dataclasses.replace(
                orientation, assignment=dict(orientation.assignment),
                in_weight=dict(orientation.in_weight)))
        for value_ops, edge_ops in (((), ()), (value_edits, edge_edits)):
            _edit(value_ops, core.values, plain_core.values,
                  lambda number, index: number)
            _edit(value_ops, orientation.in_weight,
                  plain_result.orientation.in_weight,
                  lambda number, index: number)
            _edit(edge_ops, orientation.assignment,
                  plain_result.orientation.assignment,
                  lambda number, index: labels[index % len(labels)])
            for mapping, plain in (
                    (core.values, plain_core.values),
                    (orientation.in_weight, plain_result.orientation.in_weight),
                    (orientation.assignment,
                     plain_result.orientation.assignment)):
                _assert_same_dict(mapping, plain)
                _assert_same_dict(pickle.loads(pickle.dumps(mapping)), plain)
                _assert_same_dict(mapping.copy(), plain)
            assert repr(core.max_value) == repr(plain_core.max_value)
            assert repr(result.max_in_weight) == repr(plain_result.max_in_weight)
            assert json.dumps(core.to_dict()) == json.dumps(plain_core.to_dict())
            assert json.dumps(result.to_dict()) == \
                json.dumps(plain_result.to_dict())

    @pytest.mark.parametrize("array, expected", [
        ([-0.0, 0.0, -1.0], "-0.0"),
        ([0.0, -0.0], "0.0"),
        ([1.0, 3.0, 3.0, 2.0], "3.0"),
        ([], "0.0"),
    ])
    def test_max_takes_the_first_maximal_value(self, array, expected):
        labels = [f"v{i}" for i in range(len(array))]
        values = NodeValues(labels, array)
        plain = dict(zip(labels, array))
        assert repr(max_value_of(values)) == expected
        assert repr(max_value_of(plain)) == expected
        assert values._dict is None
        assert repr(CorenessResult(values=values, rounds=1, guarantee=2.0,
                                   lam=0.0).max_value) == expected

    def test_racing_first_writes_are_all_kept(self):
        """Threads racing to build a fresh mapping's dict each write one
        key: the first dict stored is the one every thread writes into, so
        no write lands in a dict that is then replaced."""
        import sys
        import threading

        labels = list(range(20000))
        for _ in range(5):
            values = NodeValues(labels, np.zeros(len(labels)))
            start = threading.Barrier(8)

            def write(index):
                start.wait(timeout=10)
                values[index] = float(index + 1)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=write, args=(i,))
                           for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert [values[i] for i in range(8)] == [float(i + 1)
                                                     for i in range(8)]

    def test_copies_own_their_dicts(self):
        values = NodeValues(["a", "b"], [1.0, 2.0])
        copy = values.copy()
        assert copy.array is values.array and not copy.array.flags.writeable
        values["a"] = 5.0
        assert copy == {"a": 1.0, "b": 2.0} and copy._dict is None
        edited = values.copy()
        edited["b"] = 7.0
        assert values == {"a": 5.0, "b": 2.0}
        assert edited == {"a": 5.0, "b": 7.0}
        assert max_value_of(values) == 5.0 and max_value_of(edited) == 7.0


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
