"""Tests for repro.utils.ordering and repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.ordering import argmax_total_order, lexicographic_history_key, total_order_key
from repro.utils.rng import ensure_rng, spawn_rng


class TestOrderingKeys:
    def test_history_key_prioritises_most_recent_round(self):
        # Node A dropped later than node B, so A's most recent value is larger.
        key_a = lexicographic_history_key([5.0, 5.0, 3.0], "a")
        key_b = lexicographic_history_key([5.0, 2.0, 3.0], "b")
        assert key_a == ((3.0, 5.0, 5.0), "a")
        assert key_b == ((3.0, 2.0, 5.0), "b")
        assert key_a > key_b

    def test_identity_breaks_full_history_ties(self):
        key_a = lexicographic_history_key([1.0], "a")
        key_b = lexicographic_history_key([1.0], "b")
        assert key_b > key_a

    def test_total_order_key_prefers_larger_value(self):
        assert total_order_key(3.0, 1) > total_order_key(2.0, 99)

    def test_total_order_key_breaks_ties_by_identity(self):
        assert total_order_key(3.0, 7) > total_order_key(3.0, 2)

    def test_argmax_total_order_picks_maximum(self):
        pairs = [(1, 2.0), (2, 5.0), (3, 5.0)]
        assert argmax_total_order(pairs) == (3, 5.0)

    def test_argmax_total_order_rejects_empty(self):
        with pytest.raises(ValueError):
            argmax_total_order([])


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        a = ensure_rng(123).integers(0, 1000, size=5)
        b = ensure_rng(123).integers(0, 1000, size=5)
        assert list(a) == list(b)

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_spawn_rng_differs_from_parent_stream(self):
        parent = ensure_rng(5)
        child = spawn_rng(parent)
        assert child is not parent
        assert list(child.integers(0, 100, 5)) != list(ensure_rng(5).integers(0, 100, 5))

