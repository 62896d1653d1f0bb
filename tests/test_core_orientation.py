"""Tests for the min-max orientation machinery (repro.core.orientation, Theorem I.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.invariants import check_orientation_invariants
from repro.baselines.exact_orientation import exact_orientation_unweighted, lp_lower_bound
from repro.core.api import approximate_orientation
from repro.core.orientation import (
    KeptSets,
    canonical_edge,
    check_feasible,
    kept_sets_from_trajectory,
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
        assert kept._tuples is None   # built only when a tuple is read
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
