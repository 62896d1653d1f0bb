"""Tests for the analysis toolkit (ratios, invariants, convergence, tables)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.convergence import convergence_trace, values_at_round
from repro.analysis.invariants import (
    check_coreness_density_relation,
    check_monotone_non_increasing,
    check_orientation_invariants,
    check_sandwich,
    check_weak_densest_definition,
)
from repro.analysis.ratios import (
    fraction_within,
    max_ratio_trajectory,
    per_node_ratios,
    summarize_ratios,
)
from repro.analysis.tables import format_cell, format_records, format_table
from repro.baselines.exact_kcore import coreness
from repro.errors import AlgorithmError
from repro.graph.generators.structured import complete_graph
from repro.graph.graph import Graph


class TestRatios:
    def test_per_node_ratios_basic(self):
        ratios = per_node_ratios({"a": 4.0, "b": 3.0}, {"a": 2.0, "b": 3.0})
        assert ratios == {"a": 2.0, "b": 1.0}

    def test_zero_over_zero_convention(self):
        assert per_node_ratios({"a": 0.0}, {"a": 0.0})["a"] == 1.0

    def test_mismatched_node_sets_rejected(self):
        with pytest.raises(AlgorithmError):
            per_node_ratios({"a": 1.0}, {"b": 1.0})

    def test_per_node_ratios_takes_no_tolerance(self):
        # A ratio is exact; only summarize_ratios reads a tolerance.
        with pytest.raises(TypeError):
            per_node_ratios({"a": 1.0}, {"a": 1.0}, tol=1e-9)

    def test_summary_statistics(self):
        estimates = {i: float(i + 1) for i in range(10)}
        exact = {i: 1.0 for i in range(10)}
        summary = summarize_ratios(estimates, exact)
        assert summary.max == 10.0
        assert summary.min == 1.0
        assert summary.count == 10
        assert summary.mean == pytest.approx(5.5)
        assert summary.lower_bound_violations == 0
        assert summary.within(10.0)
        assert not summary.within(9.0)

    def test_lower_bound_violations_detected(self):
        summary = summarize_ratios({"a": 0.5}, {"a": 1.0})
        assert summary.lower_bound_violations == 1

    def test_fraction_within(self):
        estimates = {0: 1.0, 1: 2.0, 2: 4.0}
        exact = {0: 1.0, 1: 1.0, 2: 1.0}
        assert fraction_within(estimates, exact, 2.0) == pytest.approx(2 / 3)

    def test_max_ratio_trajectory(self):
        exact = {0: 1.0}
        trajectories = [{0: 3.0}, {0: 2.0}, {0: 1.0}]
        assert max_ratio_trajectory(trajectories, exact) == [3.0, 2.0, 1.0]

    def test_empty_maps_rejected(self):
        with pytest.raises(AlgorithmError):
            summarize_ratios({}, {})


class TestInvariantChecks:
    def test_orientation_invariants_pass_and_fail(self):
        g = Graph(edges=[(0, 1, 2.0)])
        ok = check_orientation_invariants(g, {0: 2.0, 1: 2.0}, {0: (1,), 1: ()})
        assert ok
        # Load exceeding b fails invariant 1.
        bad_load = check_orientation_invariants(g, {0: 1.0, 1: 1.0}, {0: (1,), 1: ()})
        assert not bad_load.holds
        # Edge claimed by neither fails invariant 2.
        uncovered = check_orientation_invariants(g, {0: 5.0, 1: 5.0}, {0: (), 1: ()})
        assert not uncovered.holds
        assert "claimed by neither" in uncovered.violations[0]

    def test_sandwich_check(self):
        values = {0: 3.0}
        ok = check_sandwich(values, {0: 2.0}, {0: 1.5}, guarantee=2.5)
        assert ok
        too_large = check_sandwich({0: 10.0}, {0: 2.0}, {0: 1.5}, guarantee=2.5)
        assert not too_large.holds
        too_small = check_sandwich({0: 0.5}, {0: 2.0}, {0: 1.5}, guarantee=10.0)
        assert not too_small.holds

    def test_coreness_density_relation(self):
        ok = check_coreness_density_relation({0: 2.0}, {0: 1.5})
        assert ok
        assert not check_coreness_density_relation({0: 4.0}, {0: 1.5}).holds
        assert not check_coreness_density_relation({0: 1.0}, {0: 1.5}).holds

    def test_weak_densest_definition_check(self, k6):
        good = check_weak_densest_definition(k6, {0: frozenset(range(6))}, 1.0)
        assert good
        overlapping = check_weak_densest_definition(
            k6, {0: frozenset({0, 1}), 1: frozenset({1, 2})}, 0.1)
        assert not overlapping.holds
        too_sparse = check_weak_densest_definition(k6, {0: frozenset({0, 1})}, 2.0)
        assert not too_sparse.holds
        nothing_reported = check_weak_densest_definition(k6, {}, 1.0)
        assert not nothing_reported.holds

    def test_monotone_check(self):
        good = np.array([[math.inf, math.inf], [3.0, 2.0], [3.0, 1.0]])
        assert check_monotone_non_increasing(good)
        bad = np.array([[3.0, 2.0], [4.0, 2.0]])
        assert not check_monotone_non_increasing(bad).holds

    def test_invariant_report_is_truthy(self):
        report = check_coreness_density_relation({0: 1.0}, {0: 1.0})
        assert bool(report) is True


class TestConvergence:
    def test_trace_reaches_exact_values_on_clique(self, k6):
        trace = convergence_trace(k6, coreness(k6), max_rounds=4)
        assert len(trace.rows) == 4
        assert trace.rows[-1].max_ratio == pytest.approx(1.0)
        assert trace.rounds_to_reach(1.0) is not None

    def test_ratios_never_increase_with_more_rounds(self, ba_graph):
        trace = convergence_trace(ba_graph, coreness(ba_graph), max_rounds=8)
        maxima = [row.max_ratio for row in trace.rows]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(maxima, maxima[1:]))

    def test_theoretical_guarantee_column(self, ba_graph):
        trace = convergence_trace(ba_graph, coreness(ba_graph), max_rounds=3)
        n = ba_graph.num_nodes
        assert trace.rows[0].theoretical_guarantee == pytest.approx(2 * n)
        assert trace.rows[2].theoretical_guarantee == pytest.approx(2 * n ** (1 / 3))

    def test_rounds_to_reach_none_when_unreachable(self, ba_graph):
        trace = convergence_trace(ba_graph, coreness(ba_graph), max_rounds=1)
        assert trace.rounds_to_reach(0.5) is None

    def test_values_at_round_matches_trace(self, k6):
        values = values_at_round(k6, 2)
        assert set(values.values()) == {5.0}

    def test_values_at_round_reuses_a_session(self, k6):
        from repro.session import Session

        session = Session(k6)
        assert values_at_round(k6, 2, session=session) == values_at_round(k6, 2)
        assert session.stats.rounds_executed == 2

    def test_session_without_trajectories_falls_back_to_vectorized(self, k6):
        # A faithful-engine session cannot serve trajectories; the helper must
        # fall back to the cold path without paying for (or caching) a
        # discarded simulation run.
        from repro.session import Session

        session = Session(k6, engine="faithful")
        assert values_at_round(k6, 2, session=session) == values_at_round(k6, 2)
        trace = convergence_trace(k6, coreness(k6), max_rounds=2, session=session)
        assert trace.rows[-1].max_ratio == pytest.approx(1.0)
        assert session.stats.rounds_executed == 0  # the simulator never ran

    def test_session_for_another_graph_rejected(self, k6, cycle8):
        from repro.session import Session

        with pytest.raises(AlgorithmError, match="different graph"):
            values_at_round(k6, 2, session=Session(cycle8))

    def test_round_zero_supported_with_and_without_session(self, k6):
        from repro.session import Session

        import math
        with_session = values_at_round(k6, 0, session=Session(k6))
        assert with_session == values_at_round(k6, 0)
        assert all(math.isinf(v) for v in with_session.values())

    def test_session_default_lambda_does_not_leak_into_values(self, ba_weighted):
        # The helpers report exact (λ=0) surviving numbers even on a session
        # whose default grid is non-trivial.
        from repro.session import Session

        session = Session(ba_weighted, lam=0.5)
        assert values_at_round(ba_weighted, 3, session=session) == \
            values_at_round(ba_weighted, 3)

    def test_invalid_rounds(self, k6):
        with pytest.raises(AlgorithmError):
            convergence_trace(k6, coreness(k6), max_rounds=0)


class TestTables:
    def test_format_cell_types(self):
        assert format_cell(True) == "yes"
        assert format_cell(1.23456789) == "1.235"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(float("inf")) == "inf"
        assert format_cell("text") == "text"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["bbb", 22.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", "+"}

    def test_format_records_union_of_keys(self):
        records = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
        text = format_records(records)
        assert "a" in text and "b" in text and "c" in text

    def test_format_records_empty(self):
        assert format_records([]) == "(no rows)"
