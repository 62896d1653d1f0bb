"""Experiment runners behind ``tests/test_experiments_and_integration.py``.

Each ``experiment_*`` / ``ablation_*`` function runs one of the paper's
experiments (E2, E5, E6, E8) or ablations (A1, A2) and returns a list of dict
records, one per table row; :func:`repro.analysis.tables.format_records`
prints them.  The tests assert on the rows.  The claims that need no table
(E1, E3, E4 and E7) are asserted directly on :class:`~repro.session.Session`
and the exact baselines in ``tests/test_paper_claims.py``.

All runners are deterministic (fixed dataset seeds, no wall-clock dependence in the
reported numbers).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro import obs

from repro.analysis.convergence import convergence_trace, values_at_round
from repro.analysis.invariants import check_orientation_invariants
from repro.analysis.ratios import summarize_ratios
from repro.baselines.exact_kcore import coreness
from repro.baselines.exact_orientation import lp_lower_bound
from repro.core.orientation import orientation_from_kept
from repro.core.rounds import rounds_for_epsilon
from repro.core.surviving import run_compact_elimination
from repro.graph.datasets import load_dataset
from repro.session import Session
from repro.graph.generators.lowerbound import figure1_triple, lemma313_pair
from repro.graph.generators.random_graphs import barabasi_albert
from repro.graph.graph import Graph

#: The datasets of the E1, E2, E3 and E7 tables.
SMALL_SUITE = ("collab-small", "communities", "caveman", "road-grid")


def _dataset_graphs(names: Iterable[str], *, weighted: bool = False) -> Dict[str, Graph]:
    return {name: load_dataset(name, weighted=weighted) for name in names}


# --------------------------------------------------------------------------- E2
def experiment_e2_bound_tightness(dataset_names: Sequence[str] = SMALL_SUITE, *,
                                  epsilon: float = 1.0, max_rounds: int = 20) -> List[dict]:
    """E2 — measured worst-case ratio vs the theoretical bound, and rounds-to-target."""
    rows: List[dict] = []
    target = 2.0 * (1.0 + epsilon)
    for name, graph in _dataset_graphs(dataset_names).items():
        exact_core = coreness(graph)
        trace = convergence_trace(graph, exact_core, max_rounds=max_rounds)
        theory_rounds = rounds_for_epsilon(graph.num_nodes, epsilon)
        at_theory = trace.rows[min(theory_rounds, max_rounds) - 1]
        rows.append({
            "dataset": name,
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "epsilon": epsilon,
            "target_ratio": target,
            "rounds_theory": theory_rounds,
            "rounds_measured_to_target": trace.rounds_to_reach(target),
            "max_ratio_at_theory_rounds": at_theory.max_ratio,
            "guarantee_at_theory_rounds": at_theory.theoretical_guarantee,
            "bound_respected": at_theory.max_ratio <= at_theory.theoretical_guarantee + 1e-9,
        })
    return rows


# --------------------------------------------------------------------------- E5
def experiment_e5_message_size(dataset_name: str = "collab-small", *,
                               lambdas: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.25, 0.5),
                               epsilon: float = 0.5) -> List[dict]:
    """E5 — Λ-rounding: message size (bits) vs accuracy degradation."""
    graph = load_dataset(dataset_name, weighted=True)
    exact_core = coreness(graph)
    T = rounds_for_epsilon(graph.num_nodes, epsilon)
    rows: List[dict] = []
    for lam in lambdas:
        result, run = run_compact_elimination(graph, T, lam=lam, track_kept=False)
        summary = summarize_ratios(result.values, exact_core)
        rows.append({
            "dataset": dataset_name,
            "lambda": lam,
            "rounds": T,
            "grid_size": result.grid.grid_size() if result.grid.grid_size() else "unbounded",
            "max_message_bits": run.stats.max_message_bits,
            "total_megabits": run.stats.total_bits / 1e6,
            "max_ratio_vs_coreness": summary.max,
            "mean_ratio_vs_coreness": summary.mean,
            "lower_bound_violations": summary.lower_bound_violations,
        })
    return rows


# --------------------------------------------------------------------------- E6
def experiment_e6_lower_bound(*, cycle_nodes: int = 64,
                              gamma_depth_pairs: Sequence[tuple] = ((2, 4), (3, 3), (4, 3)),
                              ) -> List[dict]:
    """E6 — the lower-bound constructions of Figure I.1 and Lemma III.13.

    For Figure I.1: the surviving number of the special node ``v`` stays at 2 for
    every round budget below ~n/2 on all three gadgets, although its true coreness
    differs — i.e. no algorithm can be better than 2-approximate in o(n) rounds.
    For Lemma III.13: the root of the γ-ary tree cannot distinguish G from G' until
    the round budget reaches the tree depth.
    """
    rows: List[dict] = []
    gadget_a, gadget_b, gadget_c = figure1_triple(cycle_nodes)
    sessions = {label: Session(g) for label, g in
                (("cycle(a)", gadget_a), ("broken(b)", gadget_b), ("broken(c)", gadget_c))}
    for rounds in (1, 2, cycle_nodes // 4, cycle_nodes // 2, cycle_nodes):
        vals = {}
        for label, session in sessions.items():
            vals[label] = values_at_round(session.graph, rounds, session=session)[0]
        rows.append({
            "construction": f"figure1(n={cycle_nodes})",
            "rounds": rounds,
            "beta_v_on_(a)": vals["cycle(a)"],
            "beta_v_on_(b)": vals["broken(b)"],
            "beta_v_on_(c)": vals["broken(c)"],
            "coreness_v_(a)/(b)/(c)": "2 / 1 / 1",
            "distinguishable": not (vals["cycle(a)"] == vals["broken(b)"] == vals["broken(c)"]),
        })
    for gamma, depth in gamma_depth_pairs:
        pair = lemma313_pair(gamma, depth)
        tree_session = Session(pair.tree)
        clique_session = Session(pair.tree_with_clique)
        for rounds in range(1, depth + 2):
            tree_value = values_at_round(pair.tree, rounds, session=tree_session)[pair.root]
            clique_value = values_at_round(pair.tree_with_clique, rounds,
                                           session=clique_session)[pair.root]
            rows.append({
                "construction": f"lemma313(gamma={gamma}, depth={depth})",
                "rounds": rounds,
                "beta_root_tree": tree_value,
                "beta_root_tree_plus_clique": clique_value,
                "coreness_root_tree": 1.0,
                "coreness_root_clique": float(gamma),
                "distinguishable": abs(tree_value - clique_value) > 1e-12,
            })
    return rows


# --------------------------------------------------------------------------- E8
def experiment_e8_scaling(sizes: Sequence[int] = (200, 500, 1000, 2000), *,
                          average_degree: int = 6, rounds: int = 10,
                          include_simulation: bool = True,
                          engines: Sequence[str] = ("vectorized", "sharded"),
                          ) -> List[dict]:
    """E8 — engine scaling: wall-clock and message counts vs graph size.

    Every entry of ``engines`` is an engine spec resolved through the registry
    (:func:`repro.engine.get_engine`) and timed on the same graphs; the faithful
    simulator is timed separately (``include_simulation``) because it also
    yields the message-traffic columns a real deployment would pay.
    """
    from repro.engine import get_engine

    rows: List[dict] = []
    resolved = [(spec, get_engine(spec)) for spec in engines]
    for n in sizes:
        graph = barabasi_albert(n, max(1, average_degree // 2), seed=1000 + n)
        record = {
            "n": n,
            "m": graph.num_edges,
            "rounds": rounds,
        }
        for spec, eng in resolved:
            with obs.timed("experiment.engine_run", engine=spec, n=n) as timing:
                eng.run(graph, rounds, track_kept=False)
            record[f"{spec}_seconds"] = timing.seconds
        if include_simulation and n <= 1000:
            with obs.timed("experiment.simulation", n=n) as timing:
                _, run = run_compact_elimination(graph, rounds,
                                                 track_kept=False)
            record["simulation_seconds"] = timing.seconds
            record["messages"] = run.stats.total_messages
            record["total_megabits"] = run.stats.total_bits / 1e6
        rows.append(record)
    return rows


# --------------------------------------------------------------------------- A1
def ablation_a1_tiebreak(dataset_names: Sequence[str] = ("collab-small", "caveman"), *,
                         epsilon: float = 0.5, weighted: bool = True) -> List[dict]:
    """A1 — tie-breaking rule of Algorithm 3 vs the orientation invariants."""
    rows: List[dict] = []
    for name, graph in _dataset_graphs(dataset_names, weighted=weighted).items():
        rho_star = lp_lower_bound(graph)
        T = rounds_for_epsilon(graph.num_nodes, epsilon)
        session = Session(graph)  # the three rules replay one shared trajectory
        for rule in ("history", "stable", "naive"):
            surv = session.surviving(rounds=T, tie_break=rule, track_kept=True)
            report = check_orientation_invariants(graph, surv.values, surv.kept)
            orientation = orientation_from_kept(graph, surv.kept, values=surv.values)
            rows.append({
                "dataset": name,
                "tie_break": rule,
                "invariants_hold": report.holds,
                "violations": len(report.violations),
                "uncovered_edges": orientation.violations,
                "max_in_degree": orientation.max_in_weight,
                "rho_star": rho_star,
                "ratio_vs_LP": orientation.max_in_weight / rho_star if rho_star else math.inf,
            })
    return rows


# --------------------------------------------------------------------------- A2
def ablation_a2_update_variants(*, sizes: Sequence[int] = (100, 1000, 10000),
                                seed: int = 3) -> List[dict]:
    """A2 — O(d log d) sorting Update vs the O(d) counting Update (Remark III.8)."""
    import numpy as np

    from repro.core.update import update_counting, update_sorted

    rng = np.random.default_rng(seed)
    rows: List[dict] = []
    for d in sizes:
        values = rng.integers(0, d, size=d).astype(float).tolist()
        entries = [(i, values[i], 1.0) for i in range(d)]
        with obs.timed("experiment.update_sorted", degree=d) as timing:
            sorted_result = update_sorted(entries)
        sorted_seconds = timing.seconds
        with obs.timed("experiment.update_counting", degree=d) as timing:
            counting_result = update_counting(values)
        counting_seconds = timing.seconds
        rows.append({
            "degree_d": d,
            "sorted_value": sorted_result.value,
            "counting_value": counting_result,
            "agree": abs(sorted_result.value - counting_result) < 1e-9,
            "sorted_seconds": sorted_seconds,
            "counting_seconds": counting_seconds,
            "speedup": sorted_seconds / counting_seconds if counting_seconds > 0 else math.inf,
        })
    return rows
