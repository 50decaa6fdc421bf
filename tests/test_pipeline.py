"""End-to-end detection, the exact oracle, and the baseline detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seasonlen.autocorr import autocorrelation, detrend_acf
from seasonlen.core import DetectionConfig, DetectionDiagnostics, TooShortError, validate_series
from seasonlen.detrend import fit_polynomial, remove_trend, select_trend_degree
from seasonlen.pipeline import (
    MIN_SEASON,
    baseline_periodogram,
    detect_season_length,
    exact_season_oracle,
    is_repetition_of_shorter,
    repeats_with_period,
)
from seasonlen.preprocess import apply_filter, design_butterworth_lowpass, interpolate_linear
from seasonlen.zerocross import estimate_from_zeros, find_zeros

PATTERN = [0, 2, 1, 2]


def sine_series(period, n, noise=0.0, seed=0, trend=None, amplitude=1.0):
    t = np.arange(n, dtype=float)
    values = amplitude * np.sin(2 * np.pi * t / period)
    if trend is not None:
        values = values + trend(t)
    if noise:
        values = values + np.random.default_rng(seed).normal(0, noise, n)
    return validate_series(values)


def admitting_config(period, **overrides):
    return DetectionConfig(filter_cutoff=0.2 * 2 * math.pi / period, **overrides)


def chained_stages(series, config):
    """(unscaled_length, trend_degree, zero_count) from the exported stages, called in turn."""
    upsampled = interpolate_linear(series, config.interp_factor)
    spec = design_butterworth_lowpass(config.filter_order, config.filter_cutoff)
    filtered = apply_filter(upsampled, spec)
    degree = select_trend_degree(filtered, config.trend_log_threshold)
    detrended = remove_trend(filtered, fit_polynomial(filtered, degree))
    zeros = find_zeros(detrend_acf(autocorrelation(detrended)), config.zero_tolerance_rel)
    if zeros.size < config.min_zero_count:
        return None, degree, int(zeros.size)
    season, _ = estimate_from_zeros(zeros, config.quotient_threshold, config.interp_factor)
    if season is None or season < MIN_SEASON:
        season = None
    return season, degree, int(zeros.size)


class TestDetectSeasonLength:
    def test_clean_sinusoid(self):
        result = detect_season_length(
            sine_series(20, 800), DetectionConfig(filter_cutoff=0.05 * math.pi)
        )
        assert result.is_seasonal
        assert 19 <= result.unscaled_length <= 21

    def test_quadratic_has_no_season(self):
        t = np.arange(500, dtype=float)
        rng = np.random.default_rng(0)
        result = detect_season_length(validate_series(t * t + rng.normal(0, 0.05, 500)))
        assert not result.is_seasonal
        assert result.trend_degree == 2

    def test_tiled_pattern(self):
        series = validate_series(np.tile(PATTERN, 40))
        result = detect_season_length(series, admitting_config(4))
        assert result.is_seasonal
        assert 3.2 <= result.unscaled_length <= 4.8

    def test_delta_scales_only_the_report(self):
        series = validate_series(np.tile(PATTERN, 40), delta=0.25)
        result = detect_season_length(series, admitting_config(4))
        assert result.season_length == pytest.approx(result.unscaled_length * 0.25)

    def test_constant_series_is_no_season(self):
        result = detect_season_length(validate_series([3.0] * 100))
        assert not result.is_seasonal
        assert result.trend_degree == 1
        assert result.diagnostics == DetectionDiagnostics()

    def test_white_noise_is_no_season(self):
        noise = np.random.default_rng(12).normal(0, 1, 600)
        result = detect_season_length(validate_series(noise))
        assert not result.is_seasonal

    def test_too_short_propagates(self):
        with pytest.raises(TooShortError):
            detect_season_length(validate_series([1.0, 2.0, 3.0, 4.0][:3]))

    def test_min_zero_count_gate(self):
        config = DetectionConfig(
            filter_cutoff=0.05 * math.pi, min_zero_count=10_000
        )
        result = detect_season_length(sine_series(20, 800), config)
        assert not result.is_seasonal
        assert result.diagnostics.zero_count > 0
        assert result.diagnostics.interval is None
        assert result.diagnostics.member_count == 0

    def test_quadratic_false_positive_mechanism(self):
        # Dense zeros one lag apart: every distance fails the "longer than
        # one lag" rule, so nothing survives to the averaging step. This is
        # the guard that keeps a perfectly detrended polynomial series from
        # reporting a two-sample season.
        dense = np.arange(1.0, 400.0)
        season, analysis = estimate_from_zeros(dense, 0.5, 1)
        assert season is None
        assert analysis.raw_distances.mean() == 1.0
        assert analysis.distances.size == 0

        # Full pipeline on the noiseless quadratic: zeros are found but no
        # usable interval remains.
        t = np.arange(500, dtype=float)
        result = detect_season_length(validate_series(t * t))
        assert not result.is_seasonal
        assert result.trend_degree == 2
        assert result.diagnostics.zero_count > 0
        assert result.diagnostics.interval is None

    @pytest.mark.parametrize(
        "series, config, degree, seasonal",
        [
            (sine_series(250, 3000, noise=0.3, seed=1, trend=lambda t: 2e-3 * t),
             DetectionConfig(), 1, True),
            (sine_series(250, 3000, noise=0.3, seed=2, trend=lambda t: 4e-6 * t * t),
             DetectionConfig(), 2, True),
            (validate_series(np.random.default_rng(12).normal(0, 1, 600)),
             DetectionConfig(), 1, False),
        ] + [
            # Orders 4 to 8 at the default cutoff, where a single
            # transfer-function polynomial pair is ill-conditioned.
            (sine_series(1000, 8000, noise=0.3, seed=order, trend=lambda t: 2e-4 * t),
             DetectionConfig(filter_order=order), 1, True)
            for order in range(4, 9)
        ],
        ids=["linear-trend", "quadratic-trend", "no-season"]
        + [f"order-{order}" for order in range(4, 9)],
    )
    def test_equals_chained_stages(self, series, config, degree, seasonal):
        # A stage-by-stage replay reproduces detect_season_length exactly
        # only while it calls the same exported stages in the same order.
        result = detect_season_length(series, config)
        expected = (result.unscaled_length, result.trend_degree, result.diagnostics.zero_count)
        assert chained_stages(series, config) == expected
        assert result.trend_degree == degree
        assert result.is_seasonal == seasonal

    @pytest.mark.parametrize(
        "amplitude, offset, period, n",
        [(1e-300, 0.0, 250, 5000), (1e200, 0.0, 250, 5000), (1e300, 0.0, 250, 5000),
         (1.0, 1e11, 250, 5000), (1.0, 1e14, 252, 2520), (1.0, 1e14, 252, 3000)],
        ids=["scale-1e-300", "scale-1e200", "scale-1e300", "offset-1e11",
             "offset-1e14-n2520", "offset-1e14-n3000"],
    )
    def test_extreme_scale_and_offset_detect(self, amplitude, offset, period, n):
        # Unscaled, the squared spectrum of values near 1e200 overflows and
        # that of values near 1e-300 underflows; filtered in absolute terms,
        # an offset of 1e11 drowns the season in the recursion's rounding;
        # summed uncentred, an offset of 1e14 cancels the quadratic-trend
        # gap into a spurious quadratic trend.
        series = validate_series(sine_series(period, n, amplitude=amplitude).values + offset)
        result = detect_season_length(series)
        assert result.is_seasonal
        assert result.unscaled_length == pytest.approx(period, rel=0.02)

    @given(offset=st.floats(min_value=-1e12, max_value=1e12))
    @settings(max_examples=40, deadline=None)
    def test_offset_invariance_up_to_1e12_times_the_range(self, offset):
        series = sine_series(250, 2000, noise=0.1, seed=3)
        shifted = validate_series(series.values + offset * np.ptp(series.values))
        a = detect_season_length(series)
        b = detect_season_length(shifted)
        assert b.unscaled_length == pytest.approx(a.unscaled_length, rel=1e-2)

    def test_determinism_bit_for_bit(self):
        series = sine_series(250, 2500, noise=0.2, seed=3)
        a = detect_season_length(series)
        b = detect_season_length(series)
        assert a.unscaled_length == b.unscaled_length
        assert a.season_length == b.season_length
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("power", [-2, 1, 6])
    def test_amplitude_invariance_exact_for_binary_scales(self, power):
        series = sine_series(250, 2500, noise=0.2, seed=5)
        scaled = validate_series(series.values * 2.0**power)
        a = detect_season_length(series)
        b = detect_season_length(scaled)
        assert a.unscaled_length == b.unscaled_length

    def test_amplitude_invariance_general(self):
        series = sine_series(250, 2500, noise=0.1, seed=6)
        scaled = validate_series(series.values * 3.7)
        a = detect_season_length(series)
        b = detect_season_length(scaled)
        assert b.unscaled_length == pytest.approx(a.unscaled_length, rel=1e-6)

    def test_offset_invariance(self):
        series = sine_series(250, 2500, noise=0.1, seed=7)
        shifted = validate_series(series.values + 1000.0)
        a = detect_season_length(series)
        b = detect_season_length(shifted)
        assert b.unscaled_length == pytest.approx(a.unscaled_length, rel=1e-6)

    def test_time_reversal(self):
        series = sine_series(240, 2400)
        reversed_series = validate_series(series.values[::-1])
        a = detect_season_length(series)
        b = detect_season_length(reversed_series)
        assert a.is_seasonal and b.is_seasonal
        assert abs(a.unscaled_length - b.unscaled_length) <= 1.0

    @pytest.mark.parametrize("period", [4, 7, 12, 25, 50])
    def test_oracle_consistency_on_tiled_patterns(self, period):
        rng = np.random.default_rng(period)
        block = np.round(rng.normal(0, 1, period), 3)
        tiled = np.tile(block, 4)
        if exact_season_oracle(tiled) != period:
            pytest.skip("degenerate random block")
        n = 20 * period
        series = validate_series(np.tile(block, n // period + 1)[:n])
        oracle = exact_season_oracle(series.values)
        assert oracle == period
        result = detect_season_length(series, admitting_config(period))
        assert result.is_seasonal
        assert abs(result.unscaled_length - oracle) / oracle <= 0.2


class TestExactSeasonOracle:
    def test_reference_pattern(self):
        assert exact_season_oracle(np.tile(PATTERN, 4)) == 4

    def test_longer_candidate_rejected_as_divisible(self):
        y = np.tile(PATTERN, 4)
        assert repeats_with_period(y, 8)
        assert is_repetition_of_shorter(y[:8])
        assert exact_season_oracle(y) == 4

    def test_wrong_length_candidate(self):
        y = np.tile(PATTERN, 4)
        assert not repeats_with_period(y, 5)

    def test_constant_sequence(self):
        assert exact_season_oracle([1, 1, 1, 1]) is None

    def test_no_repetition(self):
        assert exact_season_oracle([1, 2, 3, 4, 5, 6]) is None

    def test_period_beyond_half_length(self):
        assert exact_season_oracle([0, 1, 2, 0, 1]) is None


class TestBaselinePeriodogram:
    def test_pure_tone(self):
        period = baseline_periodogram(
            validate_series(np.sin(2 * np.pi * np.arange(1000) / 25))
        )
        assert abs(period - 25) <= 1

    def test_white_noise_returns_value_or_none(self):
        noise = np.random.default_rng(0).normal(0, 1, 1000)
        period = baseline_periodogram(validate_series(noise))
        assert period is None or period > 0

    def test_constant_returns_none(self):
        assert baseline_periodogram(validate_series([2.0] * 100)) is None

    def test_too_short(self):
        with pytest.raises(TooShortError):
            baseline_periodogram(validate_series([1.0, 2.0, 3.0, 4.0]))

    def test_detrends_before_transform(self):
        t = np.arange(1000, dtype=float)
        series = validate_series(np.sin(2 * np.pi * t / 25) + 0.05 * t)
        assert abs(baseline_periodogram(series) - 25) <= 1
