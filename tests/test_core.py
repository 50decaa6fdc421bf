"""Validation, configuration defaults, and error taxonomy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seasonlen.core import (
    DetectionConfig,
    DetectionError,
    DetectionResult,
    NonFiniteError,
    NonPositiveDeltaError,
    TimeSeries,
    TooShortError,
    validate_series,
)


class TestValidateSeries:
    def test_well_formed_input(self):
        series = validate_series([0, 2, 1, 2, 0, 2, 1, 2], 1.0)
        assert len(series) == 8
        assert series.delta == 1.0
        assert series.values.dtype == np.float64

    def test_too_short(self):
        with pytest.raises(TooShortError):
            validate_series([1, 2, 3], 1.0)

    def test_two_dimensional_input_names_its_shape(self):
        with pytest.raises(DetectionError, match=r"shape \(3, 3\)") as err:
            validate_series(np.ones((3, 3)))
        assert not isinstance(err.value, TooShortError)

    def test_non_finite_reports_first_index(self):
        with pytest.raises(NonFiniteError) as err:
            validate_series([1, float("nan"), 3, 4], 1.0)
        assert err.value.index == 1

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteError) as err:
            validate_series([1, 2, float("inf"), 4], 1.0)
        assert err.value.index == 2

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan")])
    def test_bad_delta(self, delta):
        with pytest.raises(NonPositiveDeltaError):
            validate_series([1, 2, 3, 4], delta)

    def test_idempotent(self):
        first = validate_series([3.5, 1.25, -2, 8], 0.5)
        second = validate_series(first.values, first.delta)
        assert np.array_equal(first.values, second.values)
        assert first.delta == second.delta

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=40,
        )
    )
    def test_idempotent_property(self, values):
        first = validate_series(values)
        second = validate_series(first.values, first.delta)
        assert np.array_equal(first.values, second.values)

    def test_values_are_read_only(self):
        series = validate_series([1, 2, 3, 4])
        with pytest.raises(ValueError):
            series.values[0] = 99.0

    def test_input_not_aliased(self):
        raw = np.array([1.0, 2.0, 3.0, 4.0])
        series = validate_series(raw)
        raw[0] = 100.0
        assert series.values[0] == 1.0


class TestDetectionConfig:
    def test_defaults_are_the_calibration_constants(self):
        config = DetectionConfig()
        assert config.filter_order == 2
        assert config.filter_cutoff == 0.001 * math.pi
        assert config.trend_log_threshold == math.e**2
        assert config.interp_factor == 4
        assert 0 < config.quotient_threshold < 1
        assert config.zero_tolerance_rel >= 0
        assert config.min_zero_count == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interp_factor": 0},
            {"filter_order": 0},
            {"filter_cutoff": 0.0},
            {"filter_cutoff": math.pi},
            {"quotient_threshold": 0.0},
            {"quotient_threshold": 1.0},
            {"zero_tolerance_rel": -1e-9},
            {"min_zero_count": 0},
            {"interp_factor": 2.5},
            {"filter_order": 2.5},
        ],
    )
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError):
            DetectionConfig(**kwargs)


class TestDetectionResult:
    def test_no_season_outcome(self):
        result = DetectionResult(season_length=None, unscaled_length=None, trend_degree=1)
        assert not result.is_seasonal

    def test_short_series_allowed_for_intermediate_types(self):
        # A two-point series is a legal value object; only detection
        # itself requires four observations.
        assert len(TimeSeries(np.array([0.0, 3.0]))) == 2
