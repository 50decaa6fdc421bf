"""Interpolation and zero-phase Butterworth filtering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seasonlen.core import TimeSeries, TooShortError, validate_series
from seasonlen.preprocess import (
    apply_filter,
    design_butterworth_lowpass,
    interpolate_linear,
    magnitude_response,
)

sane_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=60,
)


def crossing_positions(values):
    idx = np.flatnonzero(values[:-1] * values[1:] < 0)
    return idx + values[idx] / (values[idx] - values[idx + 1])


class TestInterpolateLinear:
    def test_midpoint_example(self):
        out = interpolate_linear(TimeSeries(np.array([0.0, 2.0, 1.0, 2.0])), 2)
        assert np.array_equal(out.values, [0, 1, 2, 1.5, 1, 1.5, 2])

    def test_constant_invariance(self):
        out = interpolate_linear(TimeSeries(np.array([5.0, 5.0, 5.0])), 3)
        assert np.array_equal(out.values, [5.0] * 7)

    def test_two_points(self):
        out = interpolate_linear(TimeSeries(np.array([0.0, 3.0])), 3)
        assert np.allclose(out.values, [0, 1, 2, 3], atol=1e-12)

    def test_factor_one_is_identity(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0]))
        assert interpolate_linear(series, 1) is series

    def test_length_and_anchors(self):
        series = validate_series(np.arange(10.0) ** 2)
        out = interpolate_linear(series, 4)
        assert len(out) == 4 * 9 + 1
        assert np.array_equal(out.values[::4], series.values)

    def test_delta_scales(self):
        series = TimeSeries(np.array([1.0, 2.0, 3.0]), delta=2.0)
        assert interpolate_linear(series, 4).delta == 0.5

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            interpolate_linear(TimeSeries(np.array([1.0, 2.0])), 0)

    @given(values=sane_values, factor=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_decimation_round_trip(self, values, factor):
        series = TimeSeries(np.asarray(values))
        out = interpolate_linear(series, factor)
        assert np.array_equal(out.values[::factor], series.values)

    @given(values=sane_values, factor=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_extremes_preserved(self, values, factor):
        series = TimeSeries(np.asarray(values))
        out = interpolate_linear(series, factor)
        assert out.values.min() == series.values.min()
        assert out.values.max() == series.values.max()


class TestButterworthDesign:
    def test_calibration_constants(self):
        spec = design_butterworth_lowpass(2, 0.001 * math.pi)
        assert abs(magnitude_response(spec, [1e-9])[0] - 1.0) < 1e-6
        dc = np.prod(spec.sos[:, :3].sum(axis=1) / spec.sos[:, 3:].sum(axis=1))
        assert abs(dc - 1.0) < 1e-6
        gain = magnitude_response(spec, [spec.cutoff])[0]
        assert abs(gain - 1 / math.sqrt(2)) < 1e-3

    def test_stability(self):
        for cutoff in (0.001 * math.pi, 0.1 * math.pi, 0.9 * math.pi):
            spec = design_butterworth_lowpass(2, cutoff)
            for section in spec.sos:
                assert np.all(np.abs(np.roots(section[3:])) < 1.0)

    def test_monotone_roll_off(self):
        spec = design_butterworth_lowpass(2, 0.5 * math.pi)
        low, high = magnitude_response(spec, [0.25 * math.pi, 0.75 * math.pi])
        assert low > high

    def test_warped_closed_form(self):
        # Independent oracle: the bilinear transform maps the analog
        # Butterworth magnitude onto tan(omega/2).
        order, cutoff = 2, 0.1 * math.pi
        spec = design_butterworth_lowpass(order, cutoff)
        omegas = np.linspace(0.01, 3.0, 50)
        got = magnitude_response(spec, omegas) ** 2
        want = 1.0 / (1.0 + (np.tan(omegas / 2) / np.tan(cutoff / 2)) ** (2 * order))
        assert np.abs(got - want).max() < 1e-6

    def test_design_is_memoised_and_filtering_leaves_it_intact(self):
        cutoff = 0.05 * math.pi
        spec = design_butterworth_lowpass(2, cutoff)
        assert design_butterworth_lowpass(2, cutoff) is spec
        sos = spec.sos.copy()
        apply_filter(validate_series(np.sin(np.arange(500.0))), spec)
        assert np.array_equal(spec.sos, sos)

    @pytest.mark.parametrize("cutoff", [0.0, -0.1, math.pi, 4.0])
    def test_cutoff_out_of_range(self, cutoff):
        with pytest.raises(ValueError):
            design_butterworth_lowpass(2, cutoff)

    @given(
        order=st.integers(min_value=1, max_value=8),
        cutoff=st.floats(min_value=1e-3 * math.pi, max_value=0.9 * math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_unit_dc_gain_half_power_and_stable_at_any_order(self, order, cutoff):
        spec = design_butterworth_lowpass(order, cutoff)
        dc, half_power = magnitude_response(spec, [0.0, cutoff])
        assert abs(dc - 1.0) < 1e-9
        assert abs(half_power - 1 / math.sqrt(2)) < 1e-3
        for section in spec.sos:
            assert np.all(np.abs(np.roots(section[3:])) < 1.0)


class TestApplyFilter:
    def test_constant_passthrough(self):
        spec = design_butterworth_lowpass(2, 0.05 * math.pi)
        series = validate_series(np.full(100, 7.3))
        out = apply_filter(series, spec)
        assert np.abs(out.values - 7.3).max() < 1e-6

    def test_too_short(self):
        spec = design_butterworth_lowpass(2, 0.05 * math.pi)
        with pytest.raises(TooShortError, match="more than 12 samples"):
            apply_filter(validate_series(np.ones(12)), spec)

    def test_high_frequency_attenuated(self):
        t = np.arange(3000, dtype=float)
        fast = np.sin(2 * np.pi * t / 10)
        slow = np.sin(2 * np.pi * t / 1000)
        spec = design_butterworth_lowpass(2, 0.01 * math.pi)
        out = apply_filter(validate_series(fast + slow), spec).values
        basis = np.column_stack(
            [
                np.sin(2 * np.pi * t / 10),
                np.cos(2 * np.pi * t / 10),
                np.sin(2 * np.pi * t / 1000),
                np.cos(2 * np.pi * t / 1000),
            ]
        )
        coef, *_ = np.linalg.lstsq(basis, out, rcond=None)
        fast_amp = math.hypot(coef[0], coef[1])
        slow_amp = math.hypot(coef[2], coef[3])
        assert slow_amp / max(fast_amp, 1e-300) >= 20.0

    def test_noise_variance_crushed(self):
        spec = design_butterworth_lowpass(2, 0.001 * math.pi)
        for seed in range(10):
            noise = np.random.default_rng(seed).normal(0, 1, 4000)
            out = apply_filter(validate_series(noise), spec)
            assert out.values.var() < 0.05 * noise.var()

    def test_linearity(self):
        spec = design_butterworth_lowpass(2, 0.05 * math.pi)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 300)
        y = rng.normal(0, 1, 300)
        combined = apply_filter(validate_series(2.5 * x - 1.25 * y), spec).values
        separate = (
            2.5 * apply_filter(validate_series(x), spec).values
            - 1.25 * apply_filter(validate_series(y), spec).values
        )
        scale = np.abs(combined).max()
        assert np.abs(combined - separate).max() < 1e-9 * max(scale, 1.0)

    def test_zero_phase_keeps_crossings(self):
        t = np.arange(2000, dtype=float)
        x = np.sin(2 * np.pi * t / 100)
        spec = design_butterworth_lowpass(2, 0.05 * math.pi)
        out = apply_filter(validate_series(x), spec).values
        before = crossing_positions(x)
        after = crossing_positions(out)
        interior = before[(before > 200) & (before < 1800)]
        for c in interior:
            assert np.min(np.abs(after - c)) < 0.5

    def test_output_is_scaled_same_period_sinusoid(self):
        t = np.arange(4000, dtype=float)
        x = np.sin(2 * np.pi * t / 200)
        spec = design_butterworth_lowpass(2, 0.02 * math.pi)
        out = apply_filter(validate_series(x), spec).values
        basis = np.column_stack([np.sin(2 * np.pi * t / 200), np.cos(2 * np.pi * t / 200)])
        coef, *_ = np.linalg.lstsq(basis, out, rcond=None)
        fitted = basis @ coef
        assert np.abs(out[300:-300] - fitted[300:-300]).max() < 0.02
