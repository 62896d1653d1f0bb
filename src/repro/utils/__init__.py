"""Small shared utilities: numeric grids, orderings and RNG handling."""

from repro.utils.numeric import (
    POS_INFINITY,
    canonical_lam,
    geometric_grid,
    is_close,
    next_power_below,
    round_down_to_grid,
)
from repro.utils.ordering import lexicographic_history_key, total_order_key
from repro.utils.rng import ensure_rng

__all__ = [
    "POS_INFINITY",
    "canonical_lam",
    "geometric_grid",
    "is_close",
    "next_power_below",
    "round_down_to_grid",
    "lexicographic_history_key",
    "total_order_key",
    "ensure_rng",
]
