"""Validation, configuration defaults, error taxonomy, and exports."""

import importlib
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import seasonlen
from seasonlen.core import (
    DetectionConfig,
    DetectionDiagnostics,
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

    def test_non_finite_error_survives_pickling(self):
        # eval --jobs sends a worker's error back to the parent pickled.
        error = pickle.loads(pickle.dumps(NonFiniteError(3)))
        assert type(error) is NonFiniteError
        assert (str(error), error.index) == ("non-finite value at index 3", 3)

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
            # From half the range the band can hold every lag and adds a zero.
            {"zero_tolerance_rel": 0.5},
            {"zero_tolerance_rel": 1.0},
            {"zero_tolerance_rel": math.inf},
            {"min_zero_count": 0},
            {"interp_factor": 2.5},
            {"filter_order": 2.5},
            # No steady state: a pole rounds onto z = 1 (below about 1.57e-16
            # at order 2, 1.11e-16 at 1, 5.69e-16 at 8 and 2.83e-15 at 40).
            {"filter_order": 2, "filter_cutoff": 1.5e-16},
            {"filter_order": 1, "filter_cutoff": 1e-21},
            {"filter_order": 8, "filter_cutoff": 5.6e-16},
            {"filter_order": 40, "filter_cutoff": 2.8e-15},
            # Values that used to build and then silently changed meaning.
            {"zero_tolerance_rel": math.nan},
            {"trend_log_threshold": math.nan},
            {"interp_factor": True},
            {"min_zero_count": True},
            {"min_zero_count": 2.5},
            # Cutoffs so near pi that a pole rounds onto z = -1 at these orders.
            {"filter_order": 20, "filter_cutoff": 3.1415926535897927},
            {"filter_order": 40, "filter_cutoff": math.pi * (1 - 1e-15)},
            # An order whose poles cannot be allocated.
            {"filter_order": 10**400},
            # Factors that upsample even 4 values past what numpy can index.
            {"interp_factor": (2**60 - 2) // 3 + 1},
            {"interp_factor": 2**62},
            {"interp_factor": 10**400},
        ],
    )
    def test_invariant_violations(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DetectionConfig(**kwargs)

    def test_counts_past_float_range_are_judged_as_integers(self):
        # float(10**400) overflows; an int needs no conversion to be whole.
        assert DetectionConfig(min_zero_count=10**400).min_zero_count == 10**400

    def test_largest_interp_factor_that_can_upsample_4_values_builds(self):
        # 4 values upsample to 3 * factor + 1 = 2**60 - 3, within the 2**60 - 1
        # float64 values numpy can index; factor + 1 is past them.
        factor = (2**60 - 2) // 3
        assert DetectionConfig(interp_factor=factor).interp_factor == factor


class TestDetectionResult:
    def test_no_season_outcome(self):
        result = DetectionResult(season_length=None, unscaled_length=None, trend_degree=1)
        assert not result.is_seasonal

    def test_records_that_differ_only_in_their_arrays_are_equal(self):
        one = DetectionDiagnostics(5, (1, 3), 2, False, np.array([4.0, 6.0]), np.array([6.0]))
        other = DetectionDiagnostics(5, (1, 3), 2, False, np.array([9.0]), None, np.array([1]))
        for a, b in ((one, other), (DetectionResult(3.0, 3.0, 1, one),
                                    DetectionResult(3.0, 3.0, 1, other))):
            assert a == b
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)

    @pytest.mark.parametrize("values", [[], [1.0]], ids=["empty", "one"])
    def test_time_series_needs_two_values(self, values):
        with pytest.raises(TooShortError, match=f"at least 2 observations, got {len(values)}"):
            TimeSeries(np.array(values))

    def test_short_series_allowed_for_intermediate_types(self):
        # A two-point series is a legal value object; only detection
        # itself requires four observations.
        assert len(TimeSeries(np.array([0.0, 3.0]))) == 2


@pytest.mark.parametrize(
    "module",
    ["seasonlen"] + [f"seasonlen.{info.name}" for info in pkgutil.iter_modules(seasonlen.__path__)],
)
def test_every_exported_name_resolves(module):
    # A name left in __all__ after its definition is gone breaks
    # `from module import *` and misleads readers of the API.
    namespace = importlib.import_module(module)
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_no_module_imports_scipy():
    # The package runs on numpy alone: importing scipy took most of the
    # start-up time and memory of every process that imports the CLI.
    modules = ["seasonlen.cli"] + [
        f"seasonlen.{info.name}" for info in pkgutil.iter_modules(seasonlen.__path__)
    ]
    code = (f"import sys\nfor m in {modules!r}: __import__(m)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(seasonlen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout == "[]\n"
