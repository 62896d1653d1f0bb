"""The paper's guarantees against exact optima, through the public Session.

Each test checks one claim of Chan–Sozio–Sun against an exact baseline from
:mod:`repro.baselines`:

* E1 (Theorem I.1): after every round budget T <= 10, the worst node's ratio
  to its exact coreness lies in ``[1, 2·n^(1/T)]``;
* E3 (Theorem I.2): the weighted orientation's max in-weight is within its
  guarantee γ of the LP optimum ρ*;
* E4 (Theorem I.3, Definition IV.1): the reported subsets are disjoint and
  the best one has density >= ρ*/γ;
* E7: the T = O(log n) budget never exceeds the rounds Montresor et al.'s
  exact protocol needs to converge, and its answer stays within 2·n^(1/T);
* the claims test: Theorems I.1-I.3 at 5,000 nodes on a Barabási–Albert and
  an Erdős–Rényi graph, at T in {4, 10}, on the vectorized and sharded
  engines, against exact coreness, exact maximal densities and Goldberg's ρ*.

E1 and E7 run in tier-1; E3, E4 and the claims test are ``slow``
(``scripts/check.sh`` runs them).
"""

from __future__ import annotations

import pytest

from repro.analysis.convergence import convergence_trace
from repro.analysis.experiments import SMALL_SUITE
from repro.analysis.invariants import (
    check_orientation_invariants,
    check_sandwich,
    check_weak_densest_definition,
)
from repro.analysis.ratios import summarize_ratios
from repro.baselines.density_decomposition import maximal_densities
from repro.baselines.exact_kcore import coreness
from repro.baselines.exact_orientation import lp_lower_bound
from repro.baselines.goldberg import maximum_density
from repro.baselines.montresor import montresor_kcore
from repro.core.rounds import guarantee_after_rounds
from repro.graph.datasets import load_dataset
from repro.graph.generators.random_graphs import barabasi_albert, erdos_renyi_gnm
from repro.session import Session


@pytest.mark.parametrize("name", SMALL_SUITE)
def test_e1_worst_ratio_within_theorem_i1_after_every_round(name):
    graph = load_dataset(name)
    trace = convergence_trace(graph, coreness(graph), max_rounds=10,
                              session=Session(graph))
    assert [row.rounds for row in trace.rows] == list(range(1, 11))
    for row in trace.rows:
        assert row.theoretical_guarantee == \
            guarantee_after_rounds(graph.num_nodes, row.rounds)
        assert 1.0 - 1e-9 <= row.max_ratio <= row.theoretical_guarantee + 1e-9, \
            (row.rounds, row.max_ratio)


@pytest.mark.slow
@pytest.mark.parametrize("name", SMALL_SUITE)
def test_e3_weighted_orientation_within_gamma_of_the_lp_bound(name):
    graph = load_dataset(name, weighted=True)
    ours = Session(graph).orientation(epsilon=0.5)
    rho_star = lp_lower_bound(graph)
    assert rho_star > 0
    assert ours.max_in_weight <= ours.guarantee * rho_star + 1e-6
    assert ours.max_in_weight / rho_star <= ours.guarantee


@pytest.mark.slow
@pytest.mark.parametrize("name", ("collab-small", "communities", "caveman"))
def test_e4_weak_densest_subsets_meet_definition_iv1(name):
    graph = load_dataset(name)
    result = Session(graph).densest(epsilon=1.0)
    rho_star = maximum_density(graph)
    assert result.subsets_are_disjoint()
    assert result.best_density >= rho_star / result.gamma - 1e-9


@pytest.mark.parametrize("name", SMALL_SUITE)
def test_e7_budget_within_montresors_rounds_and_theorem_i1(name):
    graph = load_dataset(name)
    ours = Session(graph).coreness(epsilon=1.0)
    assert ours.rounds <= montresor_kcore(graph).rounds_to_convergence
    worst = summarize_ratios(ours.values, coreness(graph)).max
    assert 1.0 - 1e-9 <= worst <= \
        guarantee_after_rounds(graph.num_nodes, ours.rounds) + 1e-9


#: The claims test's graphs: 5,000 nodes and about 15,000 edges each.
_CLAIM_GRAPHS = {
    "ba-5k": lambda: barabasi_albert(5_000, 3, seed=51),
    "er-5k": lambda: erdos_renyi_gnm(5_000, 15_000, seed=52),
}


@pytest.fixture(scope="module", params=sorted(_CLAIM_GRAPHS))
def with_optima(request):
    """A claims graph with its exact coreness, maximal densities r(v) and ρ*
    (about 15 s per graph, so computed once for all its engines and T)."""
    graph = _CLAIM_GRAPHS[request.param]()
    return graph, coreness(graph), maximal_densities(graph), maximum_density(graph)


@pytest.mark.slow
@pytest.mark.parametrize("rounds", (4, 10))
@pytest.mark.parametrize("engine", ("vectorized", "sharded:3"))
def test_theorems_hold_at_5k_nodes(with_optima, engine, rounds):
    graph, exact_core, r_values, rho_star = with_optima
    # The densest layer of the decomposition is the densest subgraph.
    assert max(r_values.values()) == pytest.approx(rho_star, rel=1e-9)
    gamma = guarantee_after_rounds(graph.num_nodes, rounds)
    session = Session(graph, engine=engine)

    # Theorem I.1: c(v) <= b_v <= γ·r(v), with r(v) <= c(v).
    result = session.coreness(rounds=rounds)
    assert result.guarantee == gamma
    report = check_sandwich(result.values, exact_core, r_values, gamma)
    assert report.holds, report.violations[:5]

    # Theorem I.2: Definition III.7 holds and max in-weight <= γ·ρ*.
    oriented = session.orientation(rounds=rounds)
    assert oriented.guarantee == gamma
    surviving = oriented.surviving
    report = check_orientation_invariants(graph, surviving.values, surviving.kept)
    assert report.holds, report.violations[:5]
    assert oriented.orientation.violations == 0
    assert oriented.max_in_weight <= gamma * rho_star * (1 + 1e-9)

    # Theorem I.3: disjoint subsets, one of density >= ρ*/γ.
    densest = session.densest(rounds=rounds, engine="array")
    assert densest.gamma == gamma
    report = check_weak_densest_definition(graph, densest.subsets,
                                           rho_star / gamma)
    assert report.holds, report.violations[:5]
