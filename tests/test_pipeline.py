"""End-to-end detection, the exact oracle, and the baseline detector."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seasonlen.autocorr import _acf_size, _autocorrelation_in_place, autocorrelation, detrend_acf
from seasonlen.core import (
    DetectionConfig,
    DetectionDiagnostics,
    DetectionResult,
    TimeSeries,
    TooShortError,
    ZeroVarianceError,
    validate_series,
)
from seasonlen.detrend import fit_polynomial, remove_trend, select_trend_degree
from seasonlen.pipeline import (
    MIN_SEASON,
    baseline_periodogram,
    detect_season_length,
    exact_season_oracle,
    is_repetition_of_shorter,
    repeats_with_period,
)
from seasonlen.preprocess import (
    _smooth,
    apply_filter,
    design_butterworth_lowpass,
    interpolate_linear,
)
from seasonlen.synthgen import FAMILY_NAMES, gen_family
from seasonlen.zerocross import estimate_from_zeros, find_zeros, season_from_interval

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
    """The DetectionResult of the exported stages, called in turn on TimeSeries."""
    upsampled = interpolate_linear(series, config.interp_factor)
    spec = design_butterworth_lowpass(config.filter_order, config.filter_cutoff)
    filtered = apply_filter(upsampled, spec)
    if np.ptp(filtered.values) == 0.0:
        return DetectionResult(None, None, 1)
    degree = select_trend_degree(filtered, config.trend_log_threshold)
    detrended = remove_trend(filtered, fit_polynomial(filtered, degree))
    acf = autocorrelation(detrended)
    zeros = find_zeros(detrend_acf(acf), config.zero_tolerance_rel)
    if zeros.size < config.min_zero_count:
        return DetectionResult(None, None, degree, DetectionDiagnostics(zero_count=zeros.size))
    season, diagnostics = estimate_from_zeros(
        zeros, config.quotient_threshold, config.interp_factor
    )
    if season is None or season < MIN_SEASON:
        return DetectionResult(None, None, degree, diagnostics)
    return DetectionResult(season * series.delta, season, degree, diagnostics)


SEED7_CASES = [case for name in FAMILY_NAMES for case in gen_family(name, 7)]


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

    def test_an_estimate_below_min_season_is_no_season(self):
        # Nine alternating values, upsampled by 2 and barely filtered: the
        # zeros sit about 2 upsampled lags apart, so the window of 4
        # distances estimates 1.963 raw samples, under MIN_SEASON.
        config = DetectionConfig(interp_factor=2, filter_order=1, filter_cutoff=0.9 * math.pi)
        result = detect_season_length(validate_series(np.tile([1.0, -1.0], 5)[:9]), config)
        diagnostics = result.diagnostics
        assert not result.is_seasonal
        assert diagnostics == DetectionDiagnostics(zero_count=7, interval=(1, 5), member_count=4)
        estimate = season_from_interval(diagnostics.distances, *diagnostics.interval, 2)
        assert estimate == pytest.approx(1.963, abs=5e-4)
        assert estimate < MIN_SEASON

    def test_white_noise_is_no_season(self):
        noise = np.random.default_rng(12).normal(0, 1, 600)
        result = detect_season_length(validate_series(noise))
        assert not result.is_seasonal

    def test_too_short_propagates(self):
        with pytest.raises(TooShortError):
            detect_season_length(validate_series([1.0, 2.0, 3.0, 4.0][:3]))

    def test_three_value_time_series_is_too_short(self):
        # A TimeSeries may hold 2 or 3 values; detection itself needs 4.
        with pytest.raises(TooShortError, match="at least 4 observations, got 3"):
            detect_season_length(TimeSeries(np.array([1.0, 2.0, 3.0])))

    def test_unindexable_interp_factor_is_rejected_before_allocating(self):
        # The config builds, since 4 values upsample to 3 * 2**58 + 1; 5 need 2**60 + 1.
        config = DetectionConfig(interp_factor=2**58)
        with pytest.raises(ValueError, match="interp_factor .* more than numpy can index"):
            detect_season_length(validate_series([1.0, 2.0, 0.0, 1.0, 2.0]), config)

    def test_unallocatable_interp_factor_is_a_value_error(self):
        # 1,999 * 10**14 + 1 values can be indexed, but 1.4 EiB lies past any address space.
        config = DetectionConfig(interp_factor=10**14)
        with pytest.raises(ValueError, match="to 199900000000000001, more than can be allocated"):
            detect_season_length(sine_series(24, 2000), config)

    def test_whole_float_interp_factor_detects_as_the_integer(self):
        # 4.0 passes validation as a whole number; the upsampled length
        # is computed as an int, so it no longer ends in a TypeError.
        series = sine_series(250, 3000)
        config = DetectionConfig(interp_factor=4.0)
        assert detect_season_length(series, config) == detect_season_length(series)

    def test_min_zero_count_gate(self):
        config = DetectionConfig(
            filter_cutoff=0.05 * math.pi, min_zero_count=10_000
        )
        result = detect_season_length(sine_series(20, 800), config)
        assert not result.is_seasonal
        assert result.diagnostics.zero_count > 0
        assert result.diagnostics.interval is None
        assert result.diagnostics.member_count == 0

    def test_exit_before_segmentation_leaves_no_arrays(self):
        config = DetectionConfig(filter_cutoff=0.05 * math.pi, min_zero_count=10_000)
        for diagnostics in (
            detect_season_length(sine_series(20, 800), config).diagnostics,
            detect_season_length(validate_series([3.0] * 100)).diagnostics,
        ):
            assert diagnostics.raw_distances is None
            assert diagnostics.distances is None
            assert diagnostics.change_points is None

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
            # 159,997 upsampled values: the four-step autocorrelation and
            # ten blocks of every trend sum.
            (sine_series(1000, 40_000, noise=0.3, seed=3, trend=lambda t: 2.5e-8 * t * t),
             DetectionConfig(), 2, True),
        ] + [
            # Orders 4 to 8 at the default cutoff, where a single
            # transfer-function polynomial pair is ill-conditioned.
            (sine_series(1000, 8000, noise=0.3, seed=order, trend=lambda t: 2e-4 * t),
             DetectionConfig(filter_order=order), 1, True)
            for order in range(4, 9)
        ],
        ids=["linear-trend", "quadratic-trend", "no-season", "split-quadratic-trend"]
        + [f"order-{order}" for order in range(4, 9)],
    )
    def test_equals_chained_stages(self, series, config, degree, seasonal):
        # A stage-by-stage replay reproduces detect_season_length exactly
        # only while it calls the same exported stages in the same order.
        result = detect_season_length(series, config)
        assert chained_stages(series, config) == result
        assert result.trend_degree == degree
        assert result.is_seasonal == seasonal

    @pytest.mark.parametrize(
        "config",
        [DetectionConfig(), DetectionConfig(filter_cutoff=0.05 * math.pi),
         DetectionConfig(filter_order=5), DetectionConfig(interp_factor=1)],
        ids=["default", "cutoff-0.05pi", "order-5", "factor-1"],
    )
    def test_seed7_suite_equals_chained_stages_bit_for_bit(self, config):
        # detect_season_length overwrites one buffer in place; the exported
        # stages copy before each kernel. Both must give the same floats,
        # and the caller's array must come back untouched.
        for series, _, label in SEED7_CASES:
            before = series.values.copy()
            result = detect_season_length(series, config)
            chained = chained_stages(series, config)
            assert result == chained, label
            for name in ("raw_distances", "distances", "change_points"):
                # Both None before the segmentation; array_equal holds for two Nones.
                got, want = getattr(result.diagnostics, name), getattr(chained.diagnostics, name)
                assert np.array_equal(got, want), (label, name)
            assert series.values.tobytes() == before.tobytes(), label

    @staticmethod
    def assert_detects_as_its_scaled_copy(values):
        # Detection scales the raw values by a power of two where they
        # enter, so finite input overflows no stage and detects as its copy
        # times 2**-1000 does, once the trend threshold, which bounds a
        # squared gap, is lowered by 1000 * ln 4. The suite turns numpy's
        # RuntimeWarnings into errors, so an overflow on the way fails too.
        config = DetectionConfig()
        lowered = DetectionConfig(
            trend_log_threshold=config.trend_log_threshold - 1000 * math.log(4.0)
        )
        result = detect_season_length(validate_series(values), config)
        assert result == detect_season_length(validate_series(np.ldexp(values, -1000)), lowered)

    @pytest.mark.parametrize(
        "values",
        [np.tile([1e308, -1e308], 200),
         1.5e308 * np.sin(2 * np.pi * np.arange(2000) / 100)],
        ids=["alternating-1e308", "sine-1.5e308"],
    )
    def test_huge_input_detects_as_its_scaled_copy(self, values):
        # Unscaled, upsampling the first overflows the differences between
        # neighbours, and the second's range and sum overflow.
        self.assert_detects_as_its_scaled_copy(values)

    def test_huge_mean_detects_as_its_scaled_copy(self):
        # A range that fits in float64, but unscaled, the sum behind the
        # mean overflows.
        self.assert_detects_as_its_scaled_copy(
            1e308 + 1e306 * np.sin(2 * np.pi * np.arange(2000) / 100)
        )

    @staticmethod
    def traced_peak_in_upsampled_arrays(n, stage=detect_season_length):
        """Peak traced memory of stage(series) on n raw samples, in upsampled arrays.

        The series is a noisy sine; the second of two calls is traced.
        """
        series = sine_series(1000, n, noise=0.5, seed=0)
        stage(series)
        tracemalloc.start()
        try:
            stage(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * (4 * (n - 1) + 1))

    def test_peak_traced_memory_stays_under_seven_upsampled_arrays(self):
        # One buffer runs from upsampling to the zero search. The peak is
        # reached in the 4e5-point autocorrelation: the buffer, one
        # half-spectrum of two arrays' worth and a few column blocks, which
        # at this length are large next to the series. Re-wrapping every
        # stage output took it to 9.
        assert self.traced_peak_in_upsampled_arrays(100_000) <= 7

    def test_peak_traced_memory_stays_under_five_upsampled_arrays(self):
        # About 4.0 arrays here; the monolithic transform's zero-padded
        # input and spectrum took it to 6.
        assert self.traced_peak_in_upsampled_arrays(100_000) <= 5

    def test_peak_traced_memory_at_a_million_samples(self):
        # About 2.36 arrays: the buffer, which also holds the real half of
        # the half-spectrum, its imaginary half and column blocks of
        # 128 x 2560 values. The half-spectrum as one complex array beside
        # the buffer took it to 3.34, and a whole-length time index, kept
        # from the trend fit to the autocorrelation's line fit, to 4.1.
        assert self.traced_peak_in_upsampled_arrays(1_000_000) <= 2.6

    def test_peak_traced_memory_of_each_stage_at_a_million_samples(self):
        # Upsampling and both filter passes stream through the one output
        # array: about 1.02 arrays, where a whole forward output and its
        # reversed copy took it to 3.0. The autocorrelation, with the
        # buffer it works in, takes about 2.36.
        spec = design_butterworth_lowpass(2, 0.001 * math.pi)
        assert self.traced_peak_in_upsampled_arrays(
            1_000_000, lambda series: _smooth(series.values, 4, spec)
        ) <= 1.2
        n = 4 * (1_000_000 - 1) + 1

        def autocorrelate(series):
            _autocorrelation_in_place(_smooth(series.values, 4, None, _acf_size(n)), n)

        assert self.traced_peak_in_upsampled_arrays(1_000_000, autocorrelate) <= 2.6

    @pytest.mark.parametrize(
        "amplitude, offset, period, n, near_period",
        [(1e-300, 0.0, 250, 5000, True), (1e200, 0.0, 250, 5000, True),
         (1e300, 0.0, 250, 5000, True), (1.0, 1e11, 250, 5000, True),
         (1.0, 1e14, 252, 2520, False), (1.0, 1e14, 252, 3000, True)],
        ids=["scale-1e-300", "scale-1e200", "scale-1e300", "offset-1e11",
             "offset-1e14-n2520", "offset-1e14-n3000"],
    )
    def test_extreme_scale_and_offset_detect(self, amplitude, offset, period, n, near_period):
        # Unscaled, the squared spectrum of values near 1e200 overflows and
        # that of values near 1e-300 underflows; filtered in absolute terms,
        # an offset of 1e11 drowns the season in the recursion's rounding;
        # summed uncentred, an offset of 1e14 cancels the trend sums into a
        # spurious trend. An offset must leave the unshifted detection
        # within 1%. Every case but one is within 2% of the period; at
        # n = 2520 the unshifted input itself detects 259.713, 3.06% off.
        series = sine_series(period, n, amplitude=amplitude)
        result = detect_season_length(validate_series(series.values + offset))
        assert result.is_seasonal
        if near_period:
            assert result.unscaled_length == pytest.approx(period, rel=0.02)
        if offset:
            unshifted = detect_season_length(series).unscaled_length
            assert result.unscaled_length == pytest.approx(unshifted, rel=0.01)

    @pytest.mark.parametrize("amplitude, degree, length", [(17.0, 1, 251.434), (18.0, 2, 253.818)])
    def test_trend_degree_crossover_depends_on_scale(self, amplitude, degree, length):
        # A known limit of the paper's rule: e**2 bounds the log of an
        # absolute squared-error gap, which grows with the square of the
        # scale, so a clean sine turns quadratic between amplitudes 17 and 18.
        result = detect_season_length(sine_series(252, 5000, amplitude=amplitude))
        assert result.trend_degree == degree
        assert result.unscaled_length == pytest.approx(length, abs=5e-4)

    @given(offset=st.floats(min_value=-1e12, max_value=1e12))
    @settings(max_examples=40, deadline=None)
    def test_offset_invariance_up_to_1e12_times_the_range(self, offset):
        series = sine_series(250, 2000, noise=0.1, seed=3)
        shifted = validate_series(series.values + offset * np.ptp(series.values))
        a = detect_season_length(series)
        b = detect_season_length(shifted)
        assert b.unscaled_length == pytest.approx(a.unscaled_length, rel=1e-2)

    def test_smoothing_does_not_requantise_at_the_offset(self):
        # A far offset rounds the input to its ulp (2**-11 here, for a range
        # of 2.49). Detecting those rounded values with the offset taken off
        # first gives 262.284. Summed over the uncentred series, the linear
        # trend term cancels at this offset and the shifted input detects
        # 258.206; centred, it detects 262.285. _smooth still rounds the
        # filtered series at the offset's ulp a second time, which moves
        # the result by less than 1e-5 here.
        series = sine_series(250, 2000, noise=0.1, seed=3)
        offset = 965566808026.1875 * np.ptp(series.values)
        shifted = series.values + offset
        unshifted = detect_season_length(validate_series(shifted - offset))
        result = detect_season_length(validate_series(shifted))
        assert result.unscaled_length == pytest.approx(unshifted.unscaled_length, rel=1e-4)

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

    def test_suite_cases_whose_outcome_flips_under_time_reversal(self):
        # The filter's start states are not symmetric under reversal: the
        # forward pass starts at rest relative to x[0], the backward pass
        # from the steady state of the forward pass's last output. On
        # Diverse-04 (seed 7) the reversed copy leaves 2 autocorrelation
        # zeros instead of 18. This pins which suite cases flip between a
        # season and none, so that a change to the filter's edges shows up.
        flips = set()
        for seed in (7, 11):
            for name in FAMILY_NAMES:
                for series, _, label in gen_family(name, seed):
                    reversed_series = validate_series(series.values[::-1], series.delta)
                    if (detect_season_length(series).is_seasonal
                            != detect_season_length(reversed_series).is_seasonal):
                        flips.add((seed, label))
        assert flips == {(7, "Diverse-04"), (7, "NoSeason-03"), (7, "NoSeason-04"),
                         (11, "Diverse-04")}

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


def with_searched_shapes(test):
    """test with an @example per searched shape under two configs.

    A ramp, t*t, a two-level step, t % 2 and 2**-t (with random small
    integers, at n = 4 to 29, under four configs) never left a constant
    detrended residual, which detection would pass to the ACF kernel, and
    divide 0 by 0 at lag 0 there. The configs are the default and the
    widest filter, interp_factor=1 at 0.9 pi, which admits short series
    from n = 13 on.
    """
    t = np.arange(16.0)
    default = dataclasses.asdict(DetectionConfig())
    widest = {**default, "interp_factor": 1, "filter_cutoff": 0.9 * math.pi}
    for values in (t, t * t, (t >= 8) * 1.0, t % 2, 2.0**-t):
        for fields in (default, widest):
            test = example(values=values.tolist(), **fields)(test)
    return test


class TestDetectionProperties:
    @given(
        # Upsampled by 4, up to 4,096 raw samples fit one trend block;
        # longer series run the trend passes over several blocks.
        n=st.one_of(st.integers(min_value=4, max_value=4_096),
                    st.integers(min_value=4_097, max_value=6_000)),
        period=st.floats(min_value=4.0, max_value=2_000.0),
        slope=st.floats(min_value=-100.0, max_value=100.0),
        curve=st.floats(min_value=-100.0, max_value=100.0),
        noise=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        threshold=st.floats(min_value=-50.0, max_value=100.0),
        k=st.integers(min_value=-1100, max_value=1100),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_binary_scale_only_shifts_the_trend_threshold(
        self, n, period, slope, curve, noise, seed, threshold, k
    ):
        # Where every nonzero value stays normal and finite, scaling by
        # c = 2**k is exact, and detection scales its input to the same
        # values in [0.5, 1) whatever c is. The trend rule's squared-error
        # gap scales by c**2 = 4**k. So the degree is non-decreasing in |c|
        # at a fixed threshold, and shifting the threshold by k * ln 4
        # gives back the same result (unless the log gap lies within
        # rounding, about 1e-13, of the threshold).
        t = np.linspace(0.0, 1.0, n)
        x = (np.sin(2 * np.pi * np.arange(n) / period) + slope * t + curve * t**2
             + np.random.default_rng(seed).normal(0.0, noise, n))
        exponents = np.frexp(x[x != 0.0])[1]  # 2**(e-1) <= |v| < 2**e
        assume(exponents.min() + k - 1 >= -1022 and exponents.max() + k <= 1024)
        plain = detect_season_length(
            validate_series(x), DetectionConfig(trend_log_threshold=threshold)
        )
        scaled = detect_season_length(
            validate_series(np.ldexp(x, k)),
            DetectionConfig(trend_log_threshold=threshold + k * math.log(4.0)),
        )
        assert scaled == plain

    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4,
                        max_size=200),
        interp_factor=st.integers(min_value=1, max_value=16),
        filter_order=st.integers(min_value=1, max_value=40),
        filter_cutoff=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True,
                                exclude_max=True),
        trend_log_threshold=st.floats(allow_nan=False),
        zero_tolerance_rel=st.floats(min_value=0.0, max_value=0.5, exclude_max=True),
        quotient_threshold=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                     exclude_max=True),
        min_zero_count=st.integers(min_value=1, max_value=50),
    )
    # The filtered series is nearly flat, and its residual, about 3e-173,
    # has squares that underflow unless it is scaled before the ACF.
    @example(values=[0.0] * 6 + [1.0], interp_factor=14, filter_order=14,
             filter_cutoff=3.26700334850722e-12, trend_log_threshold=0.0,
             zero_tolerance_rel=0.0, quotient_threshold=0.5, min_zero_count=1)
    @with_searched_shapes
    @settings(max_examples=60, deadline=None)
    def test_a_config_that_builds_detects_or_raises_a_detection_error(self, values, **fields):
        # A config is rejected when it is built or it works: on finite
        # input of any scale, detection returns a result or finds the
        # series too short for its filter, and nothing overflows or
        # divides 0 by 0 (the suite turns numpy's RuntimeWarnings into
        # errors). The baseline and the autocorrelation take the same values.
        try:
            config = DetectionConfig(**fields)
        except ValueError:
            assume(False)
        series = validate_series(values)
        try:
            result = detect_season_length(series, config)
        except TooShortError:
            pass
        else:
            assert isinstance(result, DetectionResult)
        if len(series) >= 16:
            baseline = baseline_periodogram(series)
            assert baseline is None or math.isfinite(baseline)
            if series.values.min() == series.values.max():
                with pytest.raises(ZeroVarianceError):
                    autocorrelation(series)
            else:
                assert np.all(np.isfinite(autocorrelation(series).values))


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
