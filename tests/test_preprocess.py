"""Interpolation and zero-phase Butterworth filtering."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import signal

from seasonlen import preprocess
from seasonlen.core import TimeSeries, TooShortError, _exponent, validate_series
from seasonlen.preprocess import (
    _BLOCK,
    _lowpass,
    _scan,
    _upsample,
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
        for factor in (0, math.inf, True):
            with pytest.raises(ValueError, match="factor must be a positive integer"):
                interpolate_linear(TimeSeries(np.array([1.0, 2.0])), factor)

    def test_unindexable_length_is_rejected_before_allocating(self):
        # 3 * 2**62 + 1 values: numpy cannot index the output.
        with pytest.raises(ValueError, match="interp_factor 4611686018427387904 upsamples 4"):
            interpolate_linear(TimeSeries(np.arange(4.0)), 2**62)

    def test_values_near_the_float_maximum_interpolate_as_their_halves(self):
        # Unscaled, the differences between neighbours overflow.
        x = np.tile([1.5e308, -1.5e308], 20)
        out = interpolate_linear(TimeSeries(x), 4).values
        assert out.tobytes() == (2 * interpolate_linear(TimeSeries(x / 2), 4).values).tobytes()

    def test_halving_keeps_a_subnormal_observation(self):
        # Halved, 5e-324 rounds to 0; the observations are copied as given.
        x = np.tile([1.5e308, 5e-324, -1.5e308], 20)
        out = interpolate_linear(TimeSeries(x), 3).values
        assert np.all(np.isfinite(out))
        assert np.array_equal(out[::3], x)

    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_halving_keeps_every_inserted_point_between_its_neighbours(self, factor):
        # Halved, 5e-324 rounds to 0, which would be inserted below both neighbours.
        x = np.array([1.5e308, 5e-324, 5e-324, 1.0])
        rows = interpolate_linear(TimeSeries(x), factor).values[:-1].reshape(-1, factor)
        assert np.all(rows >= np.minimum(x[:-1], x[1:])[:, None])
        assert np.all(rows <= np.maximum(x[:-1], x[1:])[:, None])
        assert np.array_equal(rows[1], [5e-324] * factor)

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

    @pytest.mark.parametrize("order", [0, 1.5, math.inf, True])
    def test_order_must_be_a_positive_integer(self, order):
        with pytest.raises(ValueError, match="order must be a positive integer"):
            design_butterworth_lowpass(order, 0.05 * math.pi)

    @pytest.mark.parametrize("cutoff", [0.0, -0.1, math.pi, 4.0])
    def test_cutoff_out_of_range(self, cutoff):
        with pytest.raises(ValueError):
            design_butterworth_lowpass(2, cutoff)

    # Below about 1.11e-16, 1.57e-16 and 2.90e-16 at orders 1, 2 and 4 a
    # pole rounds onto z = 1.
    @pytest.mark.parametrize("order, cutoff", [(2, 1.5e-16), (4, 2.8e-16), (1, 1e-21)])
    def test_cutoff_without_a_steady_state(self, order, cutoff):
        with pytest.raises(ValueError, match=f"order {order} at cutoff {cutoff} has no steady"):
            design_butterworth_lowpass(order, cutoff)

    @pytest.mark.parametrize(
        "order, cutoff",
        # The lowest cutoffs that build, then designs that scipy's sos
        # arithmetic could not serve: no steady state, or a DC gain off 1.
        [(1, 1.2e-16), (2, 1.6e-16), (4, 3e-16), (2, 1e-08), (4, 1e-09), (2, 3e-08), (4, 1e-08)],
    )
    def test_low_cutoffs_that_build(self, order, cutoff):
        spec = design_butterworth_lowpass(order, cutoff)
        assert all(abs(mode.pole) < 1 for mode in spec.modes)
        assert abs(math.prod(mode.direct + mode.steady.real for mode in spec.modes) - 1.0) < 1e-12

    def test_near_pi_a_high_order_pole_rounds_onto_z_minus_1(self):
        # The last float below pi builds at order 8, not at order 20.
        assert design_butterworth_lowpass(8, 3.1415926535897927).order == 8
        with pytest.raises(ValueError, match="order 20 at cutoff 3.1415926535897927 has no"):
            design_butterworth_lowpass(20, 3.1415926535897927)

    def test_order_too_large_to_allocate_is_printed_short(self):
        message = r"^order 100000000000\.\.\. \(401 characters\) is too large"
        with pytest.raises(ValueError, match=message):
            design_butterworth_lowpass(10**400, 0.05 * math.pi)

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 40])
    def test_response_matches_scipy_butter(self, order):
        omegas = np.linspace(0.0, math.pi, 200)
        for cutoff in (0.001 * math.pi, 0.05 * math.pi, 0.5 * math.pi, 0.99 * math.pi):
            spec = design_butterworth_lowpass(order, cutoff)
            _, want = signal.sosfreqz(signal.butter(order, cutoff / math.pi, output="sos"), omegas)
            assert np.abs(magnitude_response(spec, omegas) - np.abs(want)).max() < 1e-9

    def test_start_state_is_the_steady_state(self):
        spec = design_butterworth_lowpass(4, 0.05 * math.pi)
        for mode in spec.modes:
            # From rest, a unit step's state settles on steady = c / (1 - p) ...
            settled = _scan(np.ones(5_000), 0.0, mode)
            assert abs(settled - mode.steady) < 1e-12 * abs(mode.steady)
            # ... and a step started from it stays at 1: no start-up transient.
            out = np.ones(200)
            _scan(out, mode.steady, mode)
            assert np.abs(out - 1.0).max() < 1e-12

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


def upsampled(x, factor):
    """The linear upsampling as one whole-array pass."""
    out = np.empty(factor * (x.size - 1) + 1)
    out[::factor] = x
    for offset in range(1, factor):
        out[offset::factor] = (x[1:] - x[:-1]) * (offset / factor) + x[:-1]
    return out


def smoothed(x, e, factor, spec):
    """x * 2**-e as detect_season_length filters it: _upsample, then _lowpass."""
    values = _upsample(x, e, factor)
    _lowpass(values, spec)
    return values


def modal_recurrence(u, carry, p, c, d):
    """The section as a plain loop: y_n = d*u_n + Re(q_{n-1}), q_n = p*q_{n-1} + c*u_n."""
    out = np.empty(u.size)
    for n, value in enumerate(u):
        out[n] = d * value + carry.real
        carry = p * carry + c * value
    return out, carry


def whole_array_run(values, spec):
    """The filter as one call of the modal kernel per section and pass."""
    y = values - values[0]
    for mode in spec.modes:
        _scan(y, 0.0, mode)
    last = y[-1]
    for mode in spec.modes:
        _scan(y[::-1], mode.steady * last, mode)
    return y + values[0]


class TestApplyFilter:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8])
    def test_agrees_with_sosfiltfilt(self, order):
        # scipy's recursion over sos coefficients rounds differently from
        # the modal scan; at 0.001 pi its own error is about 1e-11 of the
        # range against a 40-digit reference, the scan's about 1e-14.
        # 13, 25 and 49 are the shortest lengths at orders 2, 4 and 8; the
        # last three end one interval before, on and after a block's edge.
        for factor in (1, 4):
            edges = (_BLOCK // factor, _BLOCK // factor + 1, _BLOCK // factor + 2)
            for n in (13, 25, 49, 1_000, 40_000, 40_003, *edges):
                if factor * (n - 1) + 1 <= 6 * order:
                    continue
                x = 1e3 + np.random.default_rng(n + order).normal(0, 1, n).cumsum()
                whole = upsampled(x, factor)
                assert _upsample(x, 0, factor).tobytes() == whole.tobytes(), (n, factor)
                for cutoff in (0.001 * math.pi, 0.05 * math.pi, 0.5 * math.pi):
                    sos = signal.butter(order, cutoff / math.pi, output="sos")
                    want = signal.sosfiltfilt(sos, whole - x[0], padtype=None) + x[0]
                    spec = design_butterworth_lowpass(order, cutoff)
                    got = (
                        apply_filter(validate_series(x), spec).values
                        if factor == 1 else smoothed(x, 0, factor, spec)
                    )
                    assert np.abs(got - want).max() <= 1e-10 * np.ptp(whole), (n, factor, cutoff)

    @pytest.mark.parametrize("order", [1, 2, 3, 8])
    def test_streamed_passes_equal_one_whole_array_run(self, order):
        # Upsampling, the forward pass that follows it and the backward
        # pass that walks from the end must not change a single bit.
        for factor in (1, 3, 4):
            for n in (13, 1_000, 40_003, _BLOCK // factor + 1, 2 * _BLOCK // factor + 2):
                if factor * (n - 1) + 1 <= 6 * order:
                    continue
                x = 1e3 + np.random.default_rng(n + order).normal(0, 1, n).cumsum()
                for cutoff in (0.001 * math.pi, 0.5 * math.pi):
                    spec = design_butterworth_lowpass(order, cutoff)
                    want = whole_array_run(upsampled(x, factor), spec)
                    assert smoothed(x, 0, factor, spec).tobytes() == want.tobytes(), (n, factor)

    @pytest.mark.parametrize("order, cutoff", [(1, 0.5 * math.pi), (2, 0.001 * math.pi),
                                               (8, 0.5 * math.pi), (40, 0.99 * math.pi)])
    def test_scan_matches_the_recurrence(self, order, cutoff):
        # Rows of every length these modes use, from one value to 5,621, a
        # partial last row and a second chunk.
        u = np.random.default_rng(order).normal(0, 1, _BLOCK + 3_000)
        spec = design_butterworth_lowpass(order, cutoff)
        for mode in spec.modes:
            carry = mode.steady * 0.5
            want, after = modal_recurrence(u, carry, mode.pole, mode.residue, mode.direct)
            got = u.copy()
            state = _scan(got, carry, mode)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() < 1e-12 * scale, mode.row
            assert abs(state - after) < 1e-12 * max(abs(after), scale), mode.row

    @pytest.mark.parametrize("k", [-1000, -30, 30, 990])
    def test_a_binary_scale_scales_every_value_exactly(self, k):
        # Each step multiplies by constants or adds, so 2**k passes through
        # bit for bit, from near the bottom of the normal range to 1e298,
        # whether the input is scaled or _upsample scales it block by block.
        x = np.random.default_rng(4).normal(0, 1, 5_000).cumsum()
        spec = design_butterworth_lowpass(2, 0.001 * math.pi)
        scaled = smoothed(x, 0, 4, spec) * 2.0**k
        assert np.array_equal(smoothed(x * 2.0**k, 0, 4, spec), scaled)
        assert np.array_equal(smoothed(x, -k, 4, spec), scaled)

    @pytest.mark.parametrize("intervals", [7, _BLOCK // 4 - 1, _BLOCK // 4, _BLOCK // 4 + 1])
    def test_one_whole_buffer_call_per_section_and_pass(self, monkeypatch, intervals):
        # Below, at and past one _BLOCK of upsampled values: each section
        # runs once forward over the whole buffer, then once backward.
        scan, calls = preprocess._scan, []

        def counted(u, carry, mode):
            calls.append((id(mode), u.size, u.strides[0]))
            return scan(u, carry, mode)

        monkeypatch.setattr(preprocess, "_scan", counted)
        length = 4 * intervals + 1
        for order in (1, 2, 4):
            spec, calls[:] = design_butterworth_lowpass(order, 0.05 * math.pi), []
            smoothed(np.arange(intervals + 1.0), 0, 4, spec)
            sections = [id(mode) for mode in spec.modes]
            want = [(k, length, 8) for k in sections] + [(k, length, -8) for k in sections]
            assert calls == want, order

    def test_constant_passthrough(self):
        spec = design_butterworth_lowpass(2, 0.05 * math.pi)
        series = validate_series(np.full(100, 7.3))
        out = apply_filter(series, spec)
        assert np.abs(out.values - 7.3).max() < 1e-12

    def test_values_near_the_float_maximum_filter_as_their_scaled_copy(self):
        # Unscaled, the values centred on the first one overflow.
        x = np.tile([1.5e308, -1.5e308], 20)
        spec = design_butterworth_lowpass(2, 0.05 * math.pi)
        out = apply_filter(TimeSeries(x), spec).values
        scaled = apply_filter(TimeSeries(np.ldexp(x, -1024)), spec).values
        assert out.tobytes() == np.ldexp(scaled, 1024).tobytes()

    @given(
        n=st.integers(min_value=8, max_value=3_000),
        scale=st.floats(min_value=1e-50, max_value=1e50),
        offset=st.floats(min_value=-1e6, max_value=1e6),
        factor=st.integers(min_value=1, max_value=8),
        order=st.integers(min_value=1, max_value=4),
        cutoff=st.floats(min_value=1e-3 * math.pi, max_value=0.5 * math.pi),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_detect_filters_exactly_as_the_public_stages(
        self, n, scale, offset, factor, order, cutoff, seed
    ):
        # The benchmark's stage replay compares the detector with these
        # stages by ==, so the two must agree to the bit.
        assume(factor * (n - 1) + 1 > 6 * order)
        series = TimeSeries(scale * (offset + np.random.default_rng(seed).normal(0, 1, n).cumsum()))
        spec = design_butterworth_lowpass(order, cutoff)
        x = series.values
        e = _exponent(x.max(), x.min())
        got = np.ldexp(smoothed(x, e, factor, spec), e)
        want = apply_filter(interpolate_linear(series, factor), spec).values
        assert got.tobytes() == want.tobytes()

    def test_an_overshoot_past_the_float_maximum_is_an_overflow(self):
        # The step is finite; the filter's overshoot of it is not, which
        # is no fault of the input. Half the step fits.
        x = np.repeat([-1.7e308, 1.7e308], 50)
        spec = design_butterworth_lowpass(4, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"order 4 at cutoff 0\.1 .* 1\.797"):
                apply_filter(validate_series(x), spec)
            assert np.isfinite(apply_filter(validate_series(x / 2), spec).values).all()

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
