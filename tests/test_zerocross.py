"""Zero detection and the distance segmentation machinery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seasonlen.autocorr import autocorrelation, detrend_acf
from seasonlen.core import TimeSeries, validate_series
from seasonlen.zerocross import (
    change_points,
    estimate_from_zeros,
    find_zeros,
    quotients,
    season_from_interval,
    select_interval,
    zero_distances,
)

# The reference distance vector used throughout: two stable runs around
# 703 and 1411 plus assorted stragglers.
REFERENCE_DISTANCES = np.array(
    [281.0, 546.0, 697.0, 703.0, 704.0, 705.0, 706.0, 706.0, 1411.0, 1411.0, 2823.0]
)


def detrended(values):
    return TimeSeries(np.asarray(values, dtype=float))


class TestFindZeros:
    def test_single_sign_change(self):
        zeros = find_zeros(detrended([1.0, 0.5, -0.5, -1.0]), 1e-4)
        assert zeros.size == 1
        assert zeros[0] == pytest.approx(1.5)

    def test_no_crossings_when_all_positive(self):
        zeros = find_zeros(detrended([0.3, 0.4, 0.5, 0.2, 0.9]), 1e-4)
        assert zeros.size == 0

    def test_lag_zero_neighborhood_excluded(self):
        zeros = find_zeros(detrended([1.0, -1.0, -0.5, -0.2]), 1e-4)
        assert zeros.size == 0  # crossing at 0.5 is inside the excluded zone

    def test_tolerance_band_run_center(self):
        values = np.array([1.0, 0.8, 0.0, 0.0, 0.0, 0.8, 1.0])
        zeros = find_zeros(detrended(values), 1e-6)
        assert zeros.size == 1
        assert zeros[0] == pytest.approx(3.0)

    def test_close_candidates_merge(self):
        # A crossing and a band hit within half a lag collapse into one zero.
        values = np.array([1.0, 0.5, 1e-9, -0.5, -1.0])
        zeros = find_zeros(detrended(values), 1e-3)
        assert zeros.size == 1

    def test_negative_epsilon(self):
        with pytest.raises(ValueError, match="epsilon_rel must be >= 0"):
            find_zeros(detrended([1.0, 0.5, -0.5, -1.0]), -1e-4)

    def test_sinusoid_zero_grid(self):
        period = 40
        acf = detrend_acf(
            autocorrelation(validate_series(np.sin(2 * np.pi * np.arange(2000) / period)))
        )
        zeros = find_zeros(acf, 1e-4)
        grid = np.arange(10, 1990, 20.0)
        # Away from the tapered tail every zero sits on the quarter-period
        # grid, and every grid point below 1600 is hit.
        body = zeros[zeros < 1900]
        for z in body:
            assert np.abs(grid - z).min() < 1.0
        for g in grid[grid < 1600]:
            assert np.abs(zeros - g).min() < 1.0


def zeros_lag_by_lag(v, epsilon_rel):
    """find_zeros as a plain loop over the lags: the reference for the vectorised pass."""
    v = [float(x) for x in v]
    tolerance = epsilon_rel * (max(v) - min(v))
    candidates = [i + v[i] / (v[i] - v[i + 1]) for i in range(len(v) - 1) if v[i] * v[i + 1] < 0]
    start = None
    for i, x in enumerate(v + [math.inf]):  # the sentinel ends a run at the last lag
        if abs(x) <= tolerance and start is None:
            start = i
        elif abs(x) > tolerance and start is not None:
            candidates.append((start + i - 1) / 2)
            start = None
    zeros, group = [], []
    for c in sorted(c for c in candidates if c >= 1.0):
        if group and c - group[-1] > 0.5:
            zeros.append(sum(group) / len(group))
            group = []
        group.append(c)
    return zeros + [sum(group) / len(group)] if group else zeros


class TestFindZerosAcrossBlocks:
    """Long inputs with sign changes and band runs around multiples of WIDTH lags."""

    WIDTH = 1 << 14

    @pytest.mark.parametrize("flip", [WIDTH - 1, WIDTH, WIDTH + 1, 2 * WIDTH])
    def test_sign_change_at_a_block_edge(self, flip):
        values = np.ones(3 * self.WIDTH + 5)
        values[flip:] = -1.0
        assert find_zeros(detrended(values), 1e-4).tolist() == [flip - 0.5]

    @pytest.mark.parametrize("first", [WIDTH - 3, WIDTH - 1, WIDTH, WIDTH + 1])
    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_band_run_at_a_block_edge(self, first, length):
        values = np.ones(2 * self.WIDTH + 7)
        values[first:first + length] = 0.0
        zeros = find_zeros(detrended(values), 1e-4)
        assert zeros.tolist() == [first + (length - 1) / 2]

    def test_band_runs_at_both_ends(self):
        values = np.ones(self.WIDTH + 9)
        values[:3] = 0.0
        values[-2:] = 0.0
        # The run at lag 0 centres on 1.0; the one at the end on the middle
        # of its last two lags.
        assert find_zeros(detrended(values), 1e-4).tolist() == [1.0, values.size - 1.5]


lag_values = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-7, -1e-7]),
    st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False),
)


@given(
    values=st.lists(lag_values, min_size=2, max_size=40),
    epsilon_rel=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
)
@example(values=[0.0, 0.0, 1.0, -1.0, 0.5, 0.0, 0.0], epsilon_rel=0.0)
@example(values=[1e-7, 0.0, -1.0, 1.0, -1e-7, 1e-7], epsilon_rel=1e-4)
@example(values=[0.0, 0.0, 0.0], epsilon_rel=1e-4)
@settings(max_examples=300, deadline=None)
def test_find_zeros_matches_a_lag_by_lag_loop(values, epsilon_rel):
    # Exact zeros and tolerance-band runs at either end take the same path
    # as those inside.
    got = find_zeros(detrended(values), epsilon_rel)
    assert got.tolist() == pytest.approx(zeros_lag_by_lag(values, epsilon_rel), rel=1e-12)


class TestZeroDistances:
    def test_plain_differences(self):
        raw, cleaned = zero_distances(np.array([10.0, 20.5, 31.0]))
        assert np.allclose(raw, [10.5, 10.5])
        assert np.allclose(cleaned, [10.5, 10.5])

    def test_short_gap_discarded(self):
        raw, cleaned = zero_distances(np.array([5.0, 5.8, 16.0]))
        assert np.allclose(raw, [0.8, 10.2])
        assert np.allclose(cleaned, [10.2])

    def test_sorted_ascending(self):
        zeros = np.cumsum([0.0, 703.0, 704.0, 281.0, 1411.0])
        _, cleaned = zero_distances(zeros)
        assert np.allclose(cleaned, [281.0, 703.0, 704.0, 1411.0])

    @pytest.mark.parametrize(
        "alpha", [[3.0, 2.0, 5.0], [1.0, 4.0, 4.0]], ids=["descending", "repeated"]
    )
    def test_zeros_must_ascend(self, alpha):
        with pytest.raises(ValueError, match="strictly ascending"):
            zero_distances(np.array(alpha))

    def test_exactly_one_lag_discarded(self):
        _, cleaned = zero_distances(np.array([1.0, 2.0, 3.0, 10.0]))
        assert np.allclose(cleaned, [7.0])


class TestQuotients:
    def test_direct_evaluation(self):
        assert np.allclose(quotients(np.array([4.0, 4.0, 8.0])), [1.0, 2.0])

    def test_constant_distances(self):
        assert np.allclose(quotients(np.array([7.0, 7.0, 7.0, 7.0])), [1.0, 1.0, 1.0])

    def test_reference_vector(self):
        expected = [1.943, 1.277, 1.009, 1.001, 1.001, 1.001, 1.000, 1.999, 1.000, 2.001]
        assert np.allclose(quotients(REFERENCE_DISTANCES), expected, atol=5e-4)

    def test_too_few(self):
        with pytest.raises(ValueError):
            quotients(np.array([5.0]))


class TestChangePoints:
    def test_reference_vector(self):
        gamma = quotients(REFERENCE_DISTANCES)
        assert change_points(gamma, 0.5).tolist() == [2, 8, 9, 10]

    def test_flat_quotients(self):
        assert change_points(np.array([1.0, 1.0, 1.0]), 0.5).tolist() == [1, 3]

    def test_minimal_pair_collapses(self):
        assert change_points(np.array([1.0, 5.0]), 0.5).tolist() == [2]

    def test_too_few(self):
        with pytest.raises(ValueError):
            change_points(np.array([1.0]), 0.5)


class TestSelectInterval:
    def test_reference_vector(self):
        a, b = select_interval(np.array([2, 8, 9, 10]), REFERENCE_DISTANCES)
        assert (a, b) == (2, 8)
        assert REFERENCE_DISTANCES[a:b].tolist() == [697, 703, 704, 705, 706, 706]

    def test_two_points(self):
        assert select_interval(np.array([1, 3]), np.array([7.0, 7.0, 7.0, 7.0])) == (1, 3)

    def test_tie_free_argmax(self):
        distances = np.linspace(2, 10, 5)
        assert select_interval(np.array([1, 4, 5]), distances) == (1, 4)

    def test_tie_breaks_toward_smaller(self):
        distances = np.linspace(2, 10, 6)
        assert select_interval(np.array([1, 3, 5]), distances) == (1, 3)

    @pytest.mark.parametrize("points", [[2, 20], [0, 3]], ids=["past-the-end", "before-the-start"])
    def test_bounds_outside_the_distances(self, points):
        with pytest.raises(ValueError, match="does not fit 11 distances"):
            select_interval(np.array(points), REFERENCE_DISTANCES)

    def test_no_interval(self):
        with pytest.raises(ValueError):
            select_interval(np.array([2]), REFERENCE_DISTANCES)


class TestSeasonFromInterval:
    def test_reference_vector_exact(self):
        assert season_from_interval(REFERENCE_DISTANCES, 2, 8, 1) == 1407.0

    def test_uniform_distances(self):
        assert season_from_interval(np.array([10.0, 10.0, 10.0, 10.0]), 1, 4, 1) == 20.0

    def test_interp_factor_conversion(self):
        assert season_from_interval(np.array([40.0, 40.0]), 1, 2, 4) == 20.0


class TestEstimateFromZeros:
    def test_reference_chain(self):
        zeros = np.concatenate(([100.0], 100.0 + np.cumsum(REFERENCE_DISTANCES)))
        season, analysis = estimate_from_zeros(zeros, 0.5, 1)
        assert season == 1407.0
        assert analysis.zero_count == zeros.size
        assert analysis.interval == (2, 8)
        assert analysis.member_count == 6
        assert analysis.change_points.tolist() == [2, 8, 9, 10]

    def test_recorded_arrays_are_read_only(self):
        zeros = np.concatenate(([100.0], 100.0 + np.cumsum(REFERENCE_DISTANCES)))
        _, diagnostics = estimate_from_zeros(zeros, 0.5, 1)
        for array in (diagnostics.raw_distances, diagnostics.distances,
                      diagnostics.change_points):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_no_surviving_distance(self):
        season, analysis = estimate_from_zeros(np.array([2.0, 3.0, 4.0]), 0.5, 1)
        assert season is None
        assert analysis.distances.size == 0

    def test_single_distance_low_confidence(self):
        season, analysis = estimate_from_zeros(np.array([10.0, 20.0]), 0.5, 1)
        assert season == 20.0
        assert analysis.low_confidence
        assert analysis.member_count == 1

    def test_two_close_distances_averaged(self):
        season, analysis = estimate_from_zeros(np.array([0.0, 10.0, 21.0]), 0.5, 1)
        assert season == pytest.approx(21.0)
        assert analysis.member_count == 2

    def test_two_distant_distances_take_smaller(self):
        season, analysis = estimate_from_zeros(np.array([0.0, 10.0, 40.0]), 0.5, 1)
        assert season == 20.0
        assert analysis.member_count == 1

    def test_collapsed_change_points_mean_no_season(self):
        # Distances [10, 10, 50]: the jump collapses the marks to one point.
        season, analysis = estimate_from_zeros(np.array([0.0, 10.0, 20.0, 70.0]), 0.5, 1)
        assert season is None
        assert analysis.change_points.tolist() == [2]

    @pytest.mark.parametrize("period", [8.0, 10.0, 12.0, 50.0])
    def test_synthetic_zero_grid_returns_exact_period(self, period):
        zeros = period / 4 + np.arange(20) * (period / 2)
        season, analysis = estimate_from_zeros(zeros, 0.5, 1)
        assert season == period
        assert analysis.interval is not None

    def test_upsampled_zero_grid(self):
        period, factor = 20.0, 4
        zeros = factor * (period / 4 + np.arange(20) * (period / 2))
        season, _ = estimate_from_zeros(zeros, 0.5, factor)
        assert season == period

    @given(power=st.integers(min_value=-8, max_value=8))
    @settings(max_examples=17)
    def test_scaling_distances_scales_season(self, power):
        # Powers of two keep the arithmetic exact, so the segmentation and
        # the estimate both scale perfectly.
        scale = 2.0**power
        zeros = np.concatenate(([100.0], 100.0 + np.cumsum(REFERENCE_DISTANCES)))
        base, _ = estimate_from_zeros(zeros, 0.5, 1)
        scaled, _ = estimate_from_zeros(zeros * scale, 0.5, 1)
        assert scaled == base * scale

    @given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    @settings(max_examples=40)
    def test_scaling_distances_general(self, scale):
        zeros = np.concatenate(([100.0], 100.0 + np.cumsum(REFERENCE_DISTANCES)))
        base, _ = estimate_from_zeros(zeros, 0.5, 1)
        scaled, _ = estimate_from_zeros(zeros * scale, 0.5, 1)
        assert scaled == pytest.approx(base * scale, rel=1e-9)

    def test_selected_interval_has_lowest_spread(self):
        def spread(values):
            return (values.max() - values.min()) / values.mean()

        season, analysis = estimate_from_zeros(
            np.concatenate(([0.0], np.cumsum(REFERENCE_DISTANCES))), 0.5, 1
        )
        assert season is not None
        a, b = analysis.interval
        chosen = analysis.distances[a:b]
        points = analysis.change_points
        for i in range(points.size - 1):
            lo, hi = points[i], points[i + 1]
            if hi - lo >= b - a and (lo, hi) != (a, b):
                assert spread(chosen) <= spread(analysis.distances[lo:hi])


def zeros_by_frame_and_diff(v, epsilon_rel):
    """find_zeros as it once located band runs: rising and falling edges of a framed mask."""
    tolerance = epsilon_rel * (v.max() - v.min())
    cross_idx = np.flatnonzero(v[:-1] * v[1:] < 0.0)
    crossings = cross_idx + v[cross_idx] / (v[cross_idx] - v[cross_idx + 1])
    inside = np.zeros(v.size + 2, dtype=np.int8)
    inside[1:-1] = (v >= -tolerance) & (v <= tolerance)
    edges = np.diff(inside)
    run_centers = (np.flatnonzero(edges == 1) + np.flatnonzero(edges == -1) - 1) / 2.0
    candidates = np.sort(np.concatenate((crossings, run_centers)))
    candidates = candidates[candidates >= 1.0]
    if candidates.size == 0:
        return candidates
    boundaries = np.concatenate(([0], np.flatnonzero(np.diff(candidates) > 0.5) + 1))
    sums = np.add.reduceat(candidates, boundaries)
    counts = np.diff(np.concatenate((boundaries, [candidates.size])))
    return sums / counts


@given(
    values=st.lists(lag_values, min_size=2, max_size=60),
    epsilon_rel=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.5, 1.0]),
)
@example(values=[0.0, 0.0, 1.0, -1.0, 0.5, 0.0, 0.0], epsilon_rel=0.0)  # runs at both ends
@example(values=[0.0, 1e-7, -0.5, 1.0, 0.2, -1e-7], epsilon_rel=1e-4)
@example(values=[0.3, 0.4, 0.5, 0.2, 0.9], epsilon_rel=1e-4)  # no lag in band
@example(values=[0.0, 0.0, 0.0], epsilon_rel=0.0)  # every lag in band
@example(values=[0.3, -0.4, 0.5, 0.2, 0.9], epsilon_rel=1.0)  # every lag in band
@settings(max_examples=300, deadline=None)
def test_band_runs_from_the_in_band_indices_match_the_framed_edges_bit_for_bit(
    values, epsilon_rel
):
    v = np.asarray(values)
    got = find_zeros(detrended(v), epsilon_rel)
    assert got.tobytes() == zeros_by_frame_and_diff(v, epsilon_rel).tobytes()
