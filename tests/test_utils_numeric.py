"""Tests for repro.utils.numeric."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import AlgorithmError, InvalidLambdaError, ReproError
from repro.utils.numeric import (
    POS_INFINITY,
    canonical_lam,
    geometric_grid,
    harmonic_mean,
    is_close,
    next_power_below,
    round_down_to_grid,
    safe_ratio,
)


class TestNextPowerBelow:
    def test_exact_power_is_fixed_point(self):
        assert next_power_below(8.0, 2.0) == pytest.approx(8.0)

    def test_rounds_down_between_powers(self):
        assert next_power_below(9.0, 2.0) == pytest.approx(8.0)

    def test_value_below_one(self):
        assert next_power_below(0.3, 2.0) == pytest.approx(0.25)

    def test_zero_is_fixed_point(self):
        assert next_power_below(0.0, 1.5) == 0.0

    def test_infinity_is_fixed_point(self):
        assert math.isinf(next_power_below(POS_INFINITY, 1.5))

    def test_rejects_negative_value(self):
        with pytest.raises(AlgorithmError):
            next_power_below(-1.0, 2.0)

    def test_rejects_base_not_greater_than_one(self):
        with pytest.raises(AlgorithmError):
            next_power_below(4.0, 1.0)

    @given(st.floats(min_value=1e-6, max_value=1e9),
           st.floats(min_value=1.01, max_value=3.0))
    def test_result_is_at_most_value_and_within_factor(self, value, base):
        result = next_power_below(value, base)
        assert result <= value * (1 + 1e-9)
        assert result * base > value * (1 - 1e-9)


class TestRoundDownToGrid:
    def test_lambda_zero_is_identity(self):
        assert round_down_to_grid(math.pi, 0.0) == math.pi

    def test_lambda_positive_rounds_down(self):
        value = round_down_to_grid(10.0, 0.5)
        assert value <= 10.0
        assert value * 1.5 > 10.0

    def test_rejects_negative_lambda(self):
        with pytest.raises(AlgorithmError):
            round_down_to_grid(1.0, -0.1)


class TestGeometricGrid:
    def test_grid_contains_expected_powers_of_two(self):
        grid = geometric_grid(1.0, 16.0, 2.0)
        assert grid == pytest.approx([1.0, 2.0, 4.0, 8.0, 16.0])

    def test_empty_when_hi_below_lo(self):
        assert geometric_grid(4.0, 2.0, 2.0) == []

    def test_rejects_nonpositive_lower_bound(self):
        with pytest.raises(AlgorithmError):
            geometric_grid(0.0, 4.0, 2.0)

    def test_rejects_bad_base(self):
        with pytest.raises(AlgorithmError):
            geometric_grid(1.0, 4.0, 0.5)


class TestSafeRatio:
    def test_zero_over_zero_is_one(self):
        assert safe_ratio(0.0, 0.0) == 1.0

    def test_positive_over_zero_is_inf(self):
        assert math.isinf(safe_ratio(3.0, 0.0))

    def test_normal_division(self):
        assert safe_ratio(6.0, 3.0) == pytest.approx(2.0)


class TestHarmonicMeanAndIsClose:
    def test_harmonic_mean_of_equal_values(self):
        assert harmonic_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_harmonic_mean_rejects_empty(self):
        with pytest.raises(AlgorithmError):
            harmonic_mean([])

    def test_harmonic_mean_rejects_nonpositive(self):
        with pytest.raises(AlgorithmError):
            harmonic_mean([1.0, 0.0])

    def test_is_close_on_nearby_values(self):
        assert is_close(1.0, 1.0 + 1e-12)
        assert not is_close(1.0, 1.1)


class TestCanonicalLam:
    def test_invalid_lambda_error_is_both_families(self):
        with pytest.raises(InvalidLambdaError):
            canonical_lam(float("nan"))
        assert issubclass(InvalidLambdaError, ValueError)
        assert issubclass(InvalidLambdaError, ReproError)
