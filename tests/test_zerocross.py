"""Zero detection and the distance segmentation machinery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seasonlen.autocorr import autocorrelation, detrend_acf
from seasonlen.core import DetectionDiagnostics, TimeSeries, validate_series
from seasonlen.zerocross import _BLOCK, _change_points, estimate_from_zeros, find_zeros

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

    def test_nan_epsilon(self):
        # NaN fails every comparison: a check for < 0 would pass it and run with no band.
        with pytest.raises(ValueError, match="epsilon_rel must be >= 0"):
            find_zeros(detrended([1.0, 0.5, -0.5, -1.0]), math.nan)

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


class TestSignChangesAcrossBlocks:
    """Sign changes around the edges of the sign-change pass's _BLOCK lags."""

    @pytest.mark.parametrize("flip", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_sign_change_at_a_block_edge(self, flip):
        values = np.ones(2 * _BLOCK + 5)
        values[flip:] = -1.0
        assert find_zeros(detrended(values), 1e-4).tolist() == [flip - 0.5]

    @pytest.mark.parametrize("size", [_BLOCK + 1, 2 * _BLOCK + 1, 2 * _BLOCK + 2])
    def test_sign_change_at_the_last_lag(self, size):
        # The lag pairs fill whole blocks, or leave one pair for the last.
        values = np.ones(size)
        values[-1] = -1.0
        assert find_zeros(detrended(values), 1e-4).tolist() == [size - 1.5]


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


def zeros_with_distances(*distances):
    """Zeros from 100 on whose adjacent distances are the given ones."""
    return np.cumsum([100.0, *distances])


def distances_of(zeros):
    _, diagnostics = estimate_from_zeros(np.array(zeros), 0.5, 1)
    return diagnostics.raw_distances.tolist(), diagnostics.distances.tolist()


class TestZeroDistances:
    def test_plain_differences(self):
        assert distances_of([10.0, 20.5, 31.0]) == ([10.5, 10.5], [10.5, 10.5])

    def test_short_gap_discarded(self):
        raw, cleaned = distances_of([5.0, 5.8, 16.0])
        assert np.allclose(raw, [0.8, 10.2])
        assert np.allclose(cleaned, [10.2])

    def test_sorted_ascending(self):
        zeros = np.cumsum([0.0, 703.0, 704.0, 281.0, 1411.0])
        assert distances_of(zeros)[1] == [281.0, 703.0, 704.0, 1411.0]

    @pytest.mark.parametrize(
        "zeros", [[3.0, 2.0, 5.0], [1.0, 4.0, 4.0]], ids=["descending", "repeated"]
    )
    def test_zeros_must_ascend(self, zeros):
        with pytest.raises(ValueError, match="strictly ascending"):
            estimate_from_zeros(np.array(zeros), 0.5, 1)

    def test_exactly_one_lag_discarded(self):
        assert distances_of([1.0, 2.0, 3.0, 10.0])[1] == [7.0]


class TestQuotients:
    """The quotients d[i] / d[i-1] of the sorted distances, seen through their change points."""

    def test_direct_evaluation(self):
        # Quotients [1, 2] jump by 1, so the marks collapse to one point.
        season, analysis = estimate_from_zeros(zeros_with_distances(4.0, 4.0, 8.0), 0.5, 1)
        assert season is None
        assert analysis.change_points.tolist() == [2]

    def test_constant_distances(self):
        # Quotients [1, 1, 1] never jump: one run from the first to the last mark.
        season, analysis = estimate_from_zeros(zeros_with_distances(*[7.0] * 4), 0.5, 1)
        assert analysis.change_points.tolist() == [1, 3]
        assert season == 14.0

    def test_reference_vector(self):
        # Quotients 1.943, 1.277, 1.009, 1.001, 1.001, 1.001, 1.000, 1.999,
        # 1.000, 2.001: their neighbours differ by 0.666, 0.268, <= 0.008,
        # 0.999, 0.999 and 1.001, so each threshold adds or drops marks.
        zeros = zeros_with_distances(*REFERENCE_DISTANCES)
        expected = {0.2: [2, 3, 8, 9, 10], 0.5: [2, 8, 9, 10], 0.7: [1, 8, 9, 10], 1.01: [1, 10]}
        for threshold, points in expected.items():
            _, analysis = estimate_from_zeros(zeros, threshold, 1)
            assert analysis.change_points.tolist() == points, threshold

    def test_too_few(self):
        # One distance has no quotient: the estimate is that distance,
        # doubled and flagged, with no segmentation.
        season, analysis = estimate_from_zeros(zeros_with_distances(5.0), 0.5, 1)
        assert season == 10.0
        assert analysis.low_confidence
        assert analysis.change_points is None
        assert analysis.interval is None
        assert analysis.member_count == 1


class TestChangePoints:
    def test_reference_vector(self):
        gamma = REFERENCE_DISTANCES[1:] / REFERENCE_DISTANCES[:-1]
        assert _change_points(gamma, 0.5).tolist() == [2, 8, 9, 10]

    def test_flat_quotients(self):
        assert _change_points(np.array([1.0, 1.0, 1.0]), 0.5).tolist() == [1, 3]

    def test_minimal_pair_collapses(self):
        assert _change_points(np.array([1.0, 5.0]), 0.5).tolist() == [2]

    def test_too_few(self):
        # Two distances give one quotient, too few to mark: their ratio
        # decides between averaging both and keeping the smaller.
        for distances, season, members in [((5.0, 6.0), 11.0, 2), ((5.0, 20.0), 10.0, 1)]:
            got, analysis = estimate_from_zeros(zeros_with_distances(*distances), 0.5, 1)
            assert got == season
            assert analysis.change_points is None
            assert analysis.interval is None
            assert analysis.member_count == members
            assert not analysis.low_confidence


class TestSelectInterval:
    def test_reference_vector(self):
        season, analysis = estimate_from_zeros(zeros_with_distances(*REFERENCE_DISTANCES), 0.5, 1)
        a, b = analysis.interval
        assert (a, b) == (2, 8)
        assert analysis.distances[a:b].tolist() == [697, 703, 704, 705, 706, 706]
        assert season == 1407.0

    def test_two_points(self):
        _, analysis = estimate_from_zeros(zeros_with_distances(*[7.0] * 4), 0.5, 1)
        assert analysis.interval == (1, 3)

    def test_tie_free_argmax(self):
        # Quotients [1, 1, 1, 2, 1] mark [1, 4, 5]: the gap of 3 wins.
        distances = [10.0, 10.0, 10.0, 10.0, 20.0, 20.0]
        season, analysis = estimate_from_zeros(zeros_with_distances(*distances), 0.5, 1)
        assert analysis.change_points.tolist() == [1, 4, 5]
        assert analysis.interval == (1, 4)
        assert season == 20.0

    def test_tie_breaks_toward_smaller(self):
        # Quotients [1, 1, 2, 2, 1] mark [1, 3, 5]: two gaps of 2, and the
        # earlier one holds the smaller distances.
        distances = [5.0, 5.0, 5.0, 10.0, 20.0, 20.0]
        season, analysis = estimate_from_zeros(zeros_with_distances(*distances), 0.5, 1)
        assert analysis.change_points.tolist() == [1, 3, 5]
        assert analysis.interval == (1, 3)
        assert season == 10.0

    @pytest.mark.parametrize(
        "distances, interval",
        [
            ((3.0, 10.0, 10.0, 10.0, 10.0, 10.0), (2, 5)),
            ((10.0, 10.0, 10.0, 10.0, 10.0, 30.0), (1, 5)),
        ],
        ids=["past-the-end", "before-the-start"],
    )
    def test_bounds_outside_the_distances(self, distances, interval):
        # A stable run that reaches the last or the first distance is cut
        # at the change points, which lie in 1..len - 1: the interval never
        # leaves the distances.
        season, analysis = estimate_from_zeros(zeros_with_distances(*distances), 0.5, 1)
        assert analysis.interval == interval
        a, b = interval
        assert 1 <= a < b <= analysis.distances.size - 1
        assert analysis.member_count == b - a
        assert season == 20.0

    def test_no_interval(self):
        # Distances [10, 10, 25]: quotients [1, 2.5] jump, so the marks
        # collapse to one change point and no interval is left.
        season, analysis = estimate_from_zeros(zeros_with_distances(10.0, 10.0, 25.0), 0.5, 1)
        assert analysis.change_points.tolist() == [2]
        assert analysis.interval is None
        assert analysis.member_count == 0
        assert season is None


class TestSeasonFromInterval:
    def test_reference_vector_exact(self):
        season, _ = estimate_from_zeros(zeros_with_distances(*REFERENCE_DISTANCES), 0.5, 1)
        assert season == 1407.0

    def test_uniform_distances(self):
        season, analysis = estimate_from_zeros(zeros_with_distances(*[10.0] * 5), 0.5, 1)
        assert analysis.interval == (1, 4)
        assert season == 20.0

    def test_interp_factor_conversion(self):
        season, analysis = estimate_from_zeros(zeros_with_distances(40.0, 40.0), 0.5, 4)
        assert analysis.member_count == 2
        assert season == 20.0


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

    @pytest.mark.parametrize("factor", [0, -4, 2.5, True])
    def test_interp_factor_must_be_a_count(self, factor):
        # Without the check, 0 divides by zero, -4 gives a season of -1.0 and 2.5 one of 1.6.
        with pytest.raises(ValueError, match="interp_factor must be a positive integer"):
            estimate_from_zeros(np.array([1.0, 3.0, 5.0, 7.0, 9.0]), 0.5, factor)

    @pytest.mark.parametrize("threshold", [math.nan, -0.5])
    def test_quotient_threshold_must_not_be_negative_or_nan(self, threshold):
        # A NaN threshold fails every jump test; without the check it still gives a season.
        with pytest.raises(ValueError, match="quotient_threshold must be >= 0"):
            estimate_from_zeros(zeros_with_distances(*REFERENCE_DISTANCES), threshold, 1)

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


# The zero analysis as five step functions, the form it had before they
# were folded into estimate_from_zeros; code verbatim, docstrings cut short.


def zero_distances(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances between adjacent zeros, raw and cleaned."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size > 1 and not np.all(np.diff(alpha) > 0):
        raise ValueError("zero positions must be strictly ascending")
    raw = np.diff(alpha)
    cleaned = np.sort(raw[raw > 1.0])
    return raw, cleaned


def quotients(distances: np.ndarray) -> np.ndarray:
    """Ratios between consecutive sorted distances."""
    distances = np.asarray(distances, dtype=np.float64)
    if distances.size < 2:
        raise ValueError(f"need at least 2 distances, got {distances.size}")
    return distances[1:] / distances[:-1]


def change_points(gamma: np.ndarray, k_quot: float) -> np.ndarray:
    """Indices where the quotient sequence changes regime."""
    gamma = np.asarray(gamma, dtype=np.float64)
    m = gamma.size
    if m < 2:
        raise ValueError(f"need at least 2 quotients, got {m}")
    marks = np.zeros(m, dtype=np.int64)
    jump = np.abs(np.diff(gamma)) > k_quot
    positions = np.arange(2, m + 1)
    marks[:-1][jump] = positions[jump]
    if not jump[0]:
        marks[0] = 1
    marks[-1] = m
    nonzero = marks[marks != 0]
    keep = np.concatenate(([True], nonzero[1:] != nonzero[:-1]))
    return nonzero[keep]


def select_interval(points: np.ndarray, distances: np.ndarray) -> tuple[int, int]:
    """Bounds of the longest run of stable distances."""
    points = np.asarray(points, dtype=np.int64)
    if points.size < 2:
        raise ValueError(f"need at least 2 change points, got {points.size}")
    gaps = np.diff(points)
    best = int(np.argmax(gaps))
    a = int(points[best])
    b = int(points[best + 1])
    if not 1 <= a < b <= np.asarray(distances).size:
        raise ValueError(f"interval ({a}, {b}] does not fit {len(distances)} distances")
    return a, b


def season_from_interval(
    distances: np.ndarray, a: int, b: int, interp_factor: int
) -> float:
    """Season length from the selected distances."""
    distances = np.asarray(distances, dtype=np.float64)
    window = distances[a:b]
    return 2.0 * float(window.sum()) / (b - a) / interp_factor


def estimate_by_steps(
    zeros: np.ndarray, quotient_threshold: float, interp_factor: int
) -> tuple[float | None, DetectionDiagnostics]:
    """estimate_from_zeros as a chain of the five step functions."""
    raw, cleaned = zero_distances(zeros)
    raw.flags.writeable = cleaned.flags.writeable = False
    points = None
    window = None
    if cleaned.size >= 3:
        points = change_points(quotients(cleaned), quotient_threshold)
        points.flags.writeable = False
        if points.size >= 2:
            window = select_interval(points, cleaned)
    elif cleaned.size == 2 and quotients(cleaned)[0] - 1.0 <= quotient_threshold:
        window = (0, 2)
    elif cleaned.size > 0:
        window = (0, 1)
    season = None if window is None else season_from_interval(cleaned, *window, interp_factor)
    diagnostics = DetectionDiagnostics(
        zero_count=len(zeros),
        interval=window if points is not None else None,
        member_count=0 if window is None else window[1] - window[0],
        low_confidence=cleaned.size == 1,
        raw_distances=raw,
        distances=cleaned,
        change_points=points,
    )
    return season, diagnostics


# Gaps in (0, 50], about a third of them at most one lag; each is repeated
# up to six times, so the cleaned distances hold runs for the segmentation.
zero_gaps = st.one_of(
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1e-3, max_value=50.0),
    st.sampled_from([0.5, 1.0, 2.0, 10.0, 10.5, 20.0, 50.0]),
)


@given(
    start=st.floats(min_value=0.0, max_value=100.0),
    runs=st.lists(st.tuples(zero_gaps, st.integers(min_value=1, max_value=6)), max_size=12),
    quotient_threshold=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    interp_factor=st.integers(min_value=1, max_value=8),
)
@example(start=100.0, runs=[(d, 1) for d in REFERENCE_DISTANCES], quotient_threshold=0.5,
         interp_factor=1)
@example(start=0.0, runs=[(10.0, 2), (50.0, 1)], quotient_threshold=0.5, interp_factor=1)
@example(start=0.0, runs=[(10.0, 1), (30.0, 1)], quotient_threshold=0.5, interp_factor=4)
@example(start=0.0, runs=[(0.5, 4)], quotient_threshold=0.5, interp_factor=1)
# Ratios and quotient jumps of exactly the threshold: 15 / 10 - 1 = 0.5.
@example(start=0.0, runs=[(10.0, 1), (15.0, 1)], quotient_threshold=0.5, interp_factor=1)
@example(start=0.0, runs=[(10.0, 2), (15.0, 2)], quotient_threshold=0.5, interp_factor=1)
@settings(max_examples=300, deadline=None)
def test_estimate_from_zeros_matches_the_five_step_chain(
    start, runs, quotient_threshold, interp_factor
):
    zeros = np.cumsum([start, *(gap for gap, count in runs for _ in range(count))])
    season, diagnostics = estimate_from_zeros(zeros, quotient_threshold, interp_factor)
    want_season, want = estimate_by_steps(zeros, quotient_threshold, interp_factor)
    assert season == want_season
    assert diagnostics == want
    assert type(diagnostics.interval) is type(want.interval)
    for name in ("raw_distances", "distances", "change_points"):
        got, expected = getattr(diagnostics, name), getattr(want, name)
        if expected is None:
            assert got is None, name
        else:
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), name
            assert got.tobytes() == expected.tobytes(), name
            assert not got.flags.writeable, name
