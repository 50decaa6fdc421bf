"""Normalized autocorrelation and its secondary detrending."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seasonlen.autocorr import autocorrelation, detrend_acf
from seasonlen.core import TimeSeries, ZeroVarianceError, validate_series


def direct_acf(values):
    """Independent oracle: the plain lagged-product sum at every lag."""
    centered = values - values.mean()
    energy = centered @ centered
    n = centered.size
    return np.array(
        [np.dot(centered[: n - lag], centered[lag:]) for lag in range(n)]
    ) / energy


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self):
        rng = np.random.default_rng(0)
        acf = autocorrelation(validate_series(rng.normal(0, 1, 50)))
        assert acf.values[0] == 1.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        acf = autocorrelation(validate_series(rng.normal(0, 3, 300)))
        assert np.abs(acf.values).max() <= 1.0 + 1e-9

    def test_length_matches_input(self):
        acf = autocorrelation(validate_series(np.arange(33.0)))
        assert len(acf) == 33

    def test_cosine_values(self):
        t = np.arange(400)
        acf = autocorrelation(validate_series(np.cos(2 * np.pi * t / 20)))
        assert acf.values[10] <= -0.9
        assert acf.values[20] >= 0.9

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 64)
        ours = autocorrelation(validate_series(x)).values
        assert np.abs(ours - direct_acf(x)).max() < 1e-9

    def test_matches_direct_sum_many_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 257))
            x = rng.normal(0, 2, n)
            ours = autocorrelation(validate_series(x)).values
            assert np.abs(ours - direct_acf(x)).max() < 1e-9

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceError):
            autocorrelation(validate_series([4.0] * 20))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 80)
        plain = autocorrelation(validate_series(x)).values
        scaled = autocorrelation(validate_series(scale * x)).values
        assert np.abs(plain - scaled).max() < 1e-9

    @given(
        values=st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=4, max_size=200),
        exponent=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scaling_is_bit_identical(self, values, exponent):
        # Values in [1, 2] stay normal under any 2**k with |k| <= 1000, so
        # every float operation is the same as at scale 1, shifted in
        # exponent only.
        x = np.array(values)
        assume(np.ptp(x) > 0.0)
        plain = autocorrelation(validate_series(x)).values
        scaled = autocorrelation(validate_series(np.ldexp(x, exponent))).values
        assert np.array_equal(plain, scaled)

    @given(offset=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, offset):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 80)
        plain = autocorrelation(validate_series(x)).values
        shifted = autocorrelation(validate_series(x + offset)).values
        assert np.abs(plain - shifted).max() < 1e-9


class TestDetrendAcf:
    def test_long_sinusoid_barely_changes(self):
        t = np.arange(4000)
        acf = autocorrelation(validate_series(np.sin(2 * np.pi * t / 400)))
        detrended = detrend_acf(acf)
        assert np.abs(detrended.values - acf.values).max() < 0.05

    def test_pure_line_removed_exactly(self):
        lags = np.arange(200, dtype=float)
        line = 0.5 - lags / (2 * 199)
        detrended = detrend_acf(TimeSeries(line))
        assert np.abs(detrended.values).max() < 1e-9

    def test_sinusoid_zero_near_quarter_period(self):
        period = 40
        t = np.arange(10 * period)
        detrended = detrend_acf(
            autocorrelation(validate_series(np.sin(2 * np.pi * t / period)))
        )
        v = detrended.values
        for target in (period / 4, 3 * period / 4):
            window = v[int(target) - 2 : int(target) + 3]
            assert window.min() <= 0 <= window.max() or np.abs(window).min() < 1e-3
