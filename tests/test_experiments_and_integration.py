"""Tests for the experiment runners and a handful of end-to-end integration checks."""

from __future__ import annotations

import math

import pytest

from repro.analysis.experiments import (
    SMALL_SUITE,
    ablation_a1_tiebreak,
    ablation_a2_update_variants,
    experiment_e2_bound_tightness,
    experiment_e5_message_size,
    experiment_e6_lower_bound,
    experiment_e8_scaling,
)
from repro.analysis.tables import format_records
from repro.baselines.exact_kcore import coreness
from repro.baselines.goldberg import maximum_density
from repro.core.api import approximate_coreness, approximate_densest_subsets, approximate_orientation
from repro.graph.datasets import load_dataset
from repro.graph.generators.lowerbound import lemma313_pair
from repro.graph.properties import hop_diameter


class TestExperimentRunners:
    """Each runner on the configuration its paper experiment uses (E2, E5,
    E6, A1, A2), or on a reduced one where only the timing grows with size
    (E8).  ``tests/test_paper_claims.py`` checks E1, E3, E4 and E7."""

    def test_e2_rows_respect_theorem(self):
        rows = experiment_e2_bound_tightness(SMALL_SUITE, epsilon=1.0,
                                             max_rounds=16)
        assert [row["dataset"] for row in rows] == list(SMALL_SUITE)
        for row in rows:
            assert row["bound_respected"] is True
            assert row["max_ratio_at_theory_rounds"] <= \
                row["guarantee_at_theory_rounds"] + 1e-9
            assert row["rounds_measured_to_target"] is None or \
                row["rounds_measured_to_target"] <= row["rounds_theory"]

    @pytest.mark.slow
    @pytest.mark.parametrize("dataset,lambdas,epsilon", [
        ("caveman", (0.0, 0.5), 1.0),
        ("collab-small", (0.0, 0.01, 0.05, 0.1, 0.25, 0.5), 0.5),
    ])
    def test_e5_message_size_decreases_with_lambda(self, dataset, lambdas,
                                                    epsilon):
        rows = experiment_e5_message_size(dataset, lambdas=lambdas,
                                          epsilon=epsilon)
        assert [row["lambda"] for row in rows] == list(lambdas)
        exact_row, rounded_rows = rows[0], rows[1:]
        assert exact_row["lambda"] == 0.0
        for rounded_row in rounded_rows:
            assert rounded_row["max_message_bits"] <= exact_row["max_message_bits"]
            # Accuracy can only degrade by at most the (1+lambda) slack on the
            # lower side.
            assert rounded_row["max_ratio_vs_coreness"] <= \
                exact_row["max_ratio_vs_coreness"] + 1e-9

    @pytest.mark.parametrize("cycle_nodes", (16, 64))
    def test_e6_lower_bound_rows(self, cycle_nodes):
        pairs = ((2, 3), (2, 4), (3, 3), (4, 3))
        rows = experiment_e6_lower_bound(cycle_nodes=cycle_nodes,
                                         gamma_depth_pairs=pairs)
        fig_rows = [r for r in rows if r["construction"].startswith("figure1")]
        # Far below n/2 rounds the three Figure I.1 gadgets are
        # indistinguishable from v.
        early = [r for r in fig_rows if r["rounds"] <= 2]
        assert [r["rounds"] for r in early] == [1, 2]
        assert all(not r["distinguishable"] for r in early)
        # The Lemma III.13 tree and tree+clique look identical to the root
        # before `depth` rounds, and differ from some later budget on.
        for gamma, depth in pairs:
            lemma_rows = [r for r in rows if r["construction"] ==
                          f"lemma313(gamma={gamma}, depth={depth})"]
            assert [r["rounds"] for r in lemma_rows] == list(range(1, depth + 2))
            assert all(not r["distinguishable"] for r in lemma_rows
                       if r["rounds"] < depth)
            assert any(r["distinguishable"] for r in lemma_rows
                       if r["rounds"] >= depth)

    def test_e8_scaling_runs(self):
        rows = experiment_e8_scaling(sizes=(100, 200), rounds=4, include_simulation=True)
        assert len(rows) == 2
        assert all(row["vectorized_seconds"] >= 0 for row in rows)
        assert all(row["sharded_seconds"] >= 0 for row in rows)
        assert "messages" in rows[0]

    def test_e8_scaling_custom_engine_specs(self):
        rows = experiment_e8_scaling(sizes=(100,), rounds=3, include_simulation=False,
                                     engines=("sharded:2",))
        assert "sharded:2_seconds" in rows[0]
        assert "vectorized_seconds" not in rows[0]

    @pytest.mark.slow
    @pytest.mark.parametrize("datasets,epsilon", [
        (("caveman",), 1.0),
        (("collab-small", "caveman"), 0.5),
    ])
    def test_a1_tiebreak_rows(self, datasets, epsilon):
        rows = ablation_a1_tiebreak(dataset_names=datasets, epsilon=epsilon)
        for name in datasets:
            mine = [r for r in rows if r["dataset"] == name]
            assert {r["tie_break"] for r in mine} == {"history", "stable", "naive"}
        for row in rows:
            # Lemma III.11 for the history rule and its stable twin; the
            # naive rule may leave edges claimed by neither endpoint.
            if row["tie_break"] in ("history", "stable"):
                assert row["invariants_hold"] is True
                assert row["uncovered_edges"] == 0
            assert row["max_in_degree"] >= row["rho_star"] - 1e-9

    def test_a2_update_variants_agree(self):
        sizes = (50, 100, 500, 1000, 10000, 50000)
        rows = ablation_a2_update_variants(sizes=sizes)
        assert [row["degree_d"] for row in rows] == list(sizes)
        assert all(row["agree"] for row in rows)

    def test_format_records_renders_experiment_output(self):
        rows = ablation_a2_update_variants(sizes=(20,))
        text = format_records(rows)
        assert "degree_d" in text


class TestEndToEndScenarios:
    def test_influencer_detection_scenario(self):
        """Coreness-based influencer detection on a core-periphery graph."""
        from repro.graph.generators.community import core_periphery

        graph = core_periphery(15, 60, attach_degree=2, seed=21)
        result = approximate_coreness(graph, epsilon=0.5)
        exact = coreness(graph)
        top = set(result.top_nodes(15))
        assert top == set(range(15))
        for v in top:
            assert result.values[v] >= exact[v]

    def test_load_balancing_scenario(self):
        """Orientation as makespan minimisation on a weighted dataset graph."""
        graph = load_dataset("caveman", weighted=True)
        result = approximate_orientation(graph, epsilon=0.5)
        rho_star = maximum_density(graph)
        assert result.max_in_weight <= result.guarantee * rho_star + 1e-6
        assert result.orientation.violations == 0

    @pytest.mark.slow
    def test_community_density_scenario(self):
        """Weak densest subsets find a community at least gamma-close to rho*."""
        graph = load_dataset("communities")
        result = approximate_densest_subsets(graph, epsilon=1.0)
        rho_star = maximum_density(graph)
        assert result.best_density >= rho_star / result.gamma - 1e-9
        assert result.subsets_are_disjoint()

    def test_diameter_independence_on_lower_bound_graph(self):
        """The round budget depends on log n even when the diameter is comparable."""
        pair = lemma313_pair(gamma=2, depth=6)
        graph = pair.tree   # diameter 12
        result = approximate_coreness(graph, epsilon=1.0)
        assert result.rounds <= math.ceil(math.log2(graph.num_nodes)) + 1
        assert result.rounds < hop_diameter(graph)
