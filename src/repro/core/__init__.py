"""The paper's distributed algorithms (Algorithms 1-6) and the high-level API."""

from repro.core.aggregation import AggregationOutput, AggregationProtocol, run_aggregation
from repro.core.api import (
    CorenessResult,
    OrientationResult,
    approximate_coreness,
    approximate_densest_subsets,
    approximate_orientation,
)
from repro.core.bfs import (
    BFSConstructionProtocol,
    BFSOutput,
    comparable_identity,
    run_bfs_construction,
)
from repro.core.densest import WeakDensestResult, expected_total_rounds, weak_densest_subsets
from repro.core.elimination import (
    EliminationResult,
    SingleThresholdProtocol,
    b_core,
    eliminate_on_graph,
    eliminate_vectorized,
    run_single_threshold,
)
from repro.core.local_elimination import (
    LocalEliminationOutput,
    LocalEliminationProtocol,
    run_local_elimination,
)
from repro.core.orientation import (
    Orientation,
    canonical_edge,
    check_feasible,
    kept_sets_from_trajectory,
    orientation_from_kept,
    orientation_from_values_greedy,
)
from repro.core.rounding import LambdaGrid, grid_for_graph
from repro.core.rounds import (
    epsilon_for_rounds,
    guarantee_after_rounds,
    lower_bound_rounds,
    rounds_for_epsilon,
    rounds_for_gamma,
)
from repro.core.surviving import (
    CompactEliminationProtocol,
    SurvivingNumbers,
    SurvivingOutput,
    compact_elimination,
    run_compact_elimination,
    surviving_numbers_vectorized,
)
from repro.core.update import (
    UpdateResult,
    update_counting,
    update_naive,
    update_sorted,
    update_stable,
    update_value_only,
)

__all__ = [
    "AggregationOutput",
    "AggregationProtocol",
    "run_aggregation",
    "CorenessResult",
    "OrientationResult",
    "approximate_coreness",
    "approximate_densest_subsets",
    "approximate_orientation",
    "BFSConstructionProtocol",
    "BFSOutput",
    "comparable_identity",
    "run_bfs_construction",
    "WeakDensestResult",
    "expected_total_rounds",
    "weak_densest_subsets",
    "EliminationResult",
    "SingleThresholdProtocol",
    "b_core",
    "eliminate_on_graph",
    "eliminate_vectorized",
    "run_single_threshold",
    "LocalEliminationOutput",
    "LocalEliminationProtocol",
    "run_local_elimination",
    "Orientation",
    "canonical_edge",
    "check_feasible",
    "kept_sets_from_trajectory",
    "orientation_from_kept",
    "orientation_from_values_greedy",
    "LambdaGrid",
    "grid_for_graph",
    "epsilon_for_rounds",
    "guarantee_after_rounds",
    "lower_bound_rounds",
    "rounds_for_epsilon",
    "rounds_for_gamma",
    "CompactEliminationProtocol",
    "SurvivingNumbers",
    "SurvivingOutput",
    "compact_elimination",
    "run_compact_elimination",
    "surviving_numbers_vectorized",
    "UpdateResult",
    "update_counting",
    "update_naive",
    "update_sorted",
    "update_stable",
    "update_value_only",
]
