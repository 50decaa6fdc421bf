"""Polynomial fitting, degree selection, and trend removal."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seasonlen.core import TimeSeries, validate_series
from seasonlen.detrend import (
    _BLOCK,
    _centered_index,
    _detrend_in_place,
    _index_blocks,
    _one_block_index,
    _remove_polynomial,
    design_matrix,
    fit_polynomial,
    remove_trend,
    select_trend_degree,
)
from seasonlen.pipeline import detect_season_length

E_SQUARED = np.e**2


def brute_force_line_cost(x, slopes, intercepts):
    """Independent oracle: grid search of the degree-1 mean squared error."""
    t = np.arange(1, len(x) + 1, dtype=float)
    best = np.inf
    for slope in slopes:
        for intercept in intercepts:
            cost = np.mean((intercept + slope * t - x) ** 2)
            best = min(best, cost)
    return best


class TestDesignMatrix:
    def test_shape(self):
        assert design_matrix(7, 1).shape == (7, 2)
        assert design_matrix(7, 2).shape == (7, 3)

    def test_column_space_matches_raw_powers_linear(self):
        ours = design_matrix(4, 1)
        raw = np.column_stack([np.ones(4), np.arange(1, 5, dtype=float)])
        # Projecting each raw column onto our basis must reproduce it exactly.
        coef, *_ = np.linalg.lstsq(ours, raw, rcond=None)
        assert np.allclose(ours @ coef, raw, atol=1e-12)

    def test_full_rank_quadratic(self):
        assert np.linalg.matrix_rank(design_matrix(3, 2)) == 3

    def test_quadratic_column_space_reproduces_squares(self):
        basis = design_matrix(5, 2)
        squares = np.arange(1, 6, dtype=float) ** 2
        coef, *_ = np.linalg.lstsq(basis, squares, rcond=None)
        assert np.allclose(basis @ coef, squares, atol=1e-10)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            design_matrix(10, 3)
        with pytest.raises(ValueError):
            design_matrix(10, 0)

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            design_matrix(2, 2)


@pytest.mark.parametrize("n", [3, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 1])
def test_index_blocks_are_the_centred_index_bit_for_bit(n):
    # A series of one block reads the memoised, read-only t; a longer one
    # gets t one block at a time in a reused work array.
    assert all(t.flags.writeable == (n > _BLOCK) for _, t in _index_blocks(n))
    blocks = [(start, t.copy()) for start, t in _index_blocks(n)]
    assert [start for start, _ in blocks] == list(range(0, n, _BLOCK))
    assert np.concatenate([t for _, t in blocks]).tobytes() == _centered_index(n).tobytes()


@pytest.mark.parametrize("n", [3, 2_000, _BLOCK])
@pytest.mark.parametrize("k_trend", [-np.inf, np.inf])
def test_a_prebuilt_index_gives_the_same_residuals_bit_for_bit(n, k_trend):
    # The memoised t serves both the pass that selects the degree and the
    # fixed-degree kernel; both equal a whole-array evaluation on a fresh t.
    x = 1e3 + np.random.default_rng(n).normal(0, 1, n) + np.arange(n) ** 2 / n
    selected, fixed = x.copy(), x.copy()
    _one_block_index.cache_clear()
    degree = _detrend_in_place(selected, k_trend)
    assert degree == (2 if k_trend < 0 else 1)
    c = _remove_polynomial(fixed, degree)
    assert _one_block_index.cache_info().misses == 1
    t = _centered_index(n)
    trend = c[-1] * t + c[-2] if degree == 1 else (c[-1] * t + c[-2]) * t + c[0]
    assert selected.tobytes() == fixed.tobytes() == (x - trend).tobytes()


def test_a_detection_of_one_block_builds_the_index_once():
    # 2,000 raw samples upsample to 7,997: both trend passes and both
    # passes of the line fit over the autocorrelation share one t.
    i = np.arange(2_000)
    series = validate_series(np.sin(2 * np.pi * i / 250) + i / 1_000)
    _one_block_index.cache_clear()
    assert detect_season_length(series).is_seasonal
    info = _one_block_index.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    list(_index_blocks(3))  # the memo holds the last length only
    assert _one_block_index.cache_info().currsize == 1


def test_longer_series_and_the_design_matrix_leave_the_memo_untouched():
    list(_index_blocks(100))
    before = _one_block_index.cache_info()
    list(_index_blocks(_BLOCK + 1))
    design_matrix(_BLOCK, 2)
    design_matrix(50, 1)
    assert _one_block_index.cache_info() == before


class TestFitPolynomial:
    def test_exact_line(self):
        model = fit_polynomial(validate_series([1, 2, 3, 4, 5]), 1)
        assert model.cost < 1e-20
        assert model.degree == 1
        assert model.coefficients.size == 2

    def test_exact_quadratic(self):
        t = np.arange(1, 51, dtype=float)
        series = validate_series(t * t)
        model = fit_polynomial(series, 2)
        energy = float(np.mean(series.values**2))
        assert model.cost < 1e-12 * energy

    def test_impulse_cost_matches_brute_force(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        x[2] += 1.0
        model = fit_polynomial(validate_series(x), 1)
        slopes = np.linspace(0.5, 1.5, 401)
        intercepts = np.linspace(-0.5, 1.0, 401)
        oracle = brute_force_line_cost(x, slopes, intercepts)
        assert model.cost <= oracle + 1e-9
        # The optimum must be interior to the searched grid.
        assert abs(model.cost - oracle) < 1e-3

    def test_orthogonality_on_seeded_fixtures(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 300))
            series = validate_series(rng.normal(0, 1, n))
            for degree in (1, 2):
                model = fit_polynomial(series, degree)
                basis = design_matrix(n, degree)
                residual = series.values - basis @ model.coefficients
                for column in basis.T:
                    bound = 1e-8 * np.linalg.norm(residual) * np.linalg.norm(column)
                    assert abs(residual @ column) <= bound + 1e-15

    def test_nested_models(self):
        rng = np.random.default_rng(42)
        series = validate_series(rng.normal(0, 1, 100))
        c1 = fit_polynomial(series, 1).cost
        c2 = fit_polynomial(series, 2).cost
        assert c2 <= c1 * (1 + 1e-12)

    def test_idempotent_detrending(self):
        rng = np.random.default_rng(3)
        series = validate_series(rng.normal(0, 1, 200) + 0.05 * np.arange(200))
        model = fit_polynomial(series, 1)
        removed = remove_trend(series, model)
        refit = fit_polynomial(removed, 1)
        assert refit.cost == pytest.approx(model.cost, rel=1e-10)


def lstsq_fit(x, degree):
    """Reference fit: numpy's least-squares solver on the design matrix."""
    basis = design_matrix(x.size, degree)
    coefficients, *_ = np.linalg.lstsq(basis, x, rcond=None)
    residual = x - basis @ coefficients
    return coefficients, float(residual @ residual) / x.size


trend_series = st.builds(
    lambda n, offset, slope, curve, noise, seed: offset
    + slope * np.linspace(0.0, 1.0, n)
    + curve * np.linspace(0.0, 1.0, n) ** 2
    + np.random.default_rng(seed).normal(0.0, noise, n),
    n=st.integers(min_value=3, max_value=5000),
    offset=st.floats(min_value=-1e4, max_value=1e4),
    slope=st.floats(min_value=-100.0, max_value=100.0),
    curve=st.floats(min_value=-100.0, max_value=100.0),
    noise=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


#: Three blocks of the trend sums and part of a fourth, with both trends.
MULTI_BLOCK = (
    7.0 + 30.0 * np.linspace(0.0, 1.0, 3 * _BLOCK + 11)
    - 50.0 * np.linspace(0.0, 1.0, 3 * _BLOCK + 11) ** 2
    + np.random.default_rng(9).normal(0.0, 2.0, 3 * _BLOCK + 11)
)

#: Absolute floor of the coefficient tolerance. Below the normal range
#: round-off is absolute, one subnormal spacing (5e-324) per operation, and
#: dividing by sum(q**2) amplifies it to about 120 spacings in c2 (seen on
#: 3-sample subnormal data); 1e-9 of such data underflows to 0.
SUBNORMAL_ATOL = 1024 * np.finfo(np.float64).smallest_subnormal


class TestProjectionMatchesLstsq:
    """The orthogonal projection against a solver that shares none of its code.

    Tolerances are 1e-9 relative, with an absolute floor of 1e-9 of the
    data's magnitude per residual, far above the float64 round-off of
    either method on these small, well-conditioned bases; for
    coefficients that floor is at least SUBNORMAL_ATOL.
    """

    @given(x=trend_series, degree=st.sampled_from([1, 2]))
    @example(x=np.array([0.0, 0.0, 5e-324]), degree=1)
    @example(x=np.array([0.0, 0.0, 5e-324]), degree=2)
    @example(x=MULTI_BLOCK, degree=1)
    @example(x=MULTI_BLOCK, degree=2)
    @settings(max_examples=60, deadline=None)
    def test_coefficients_and_cost(self, x, degree):
        scale = float(np.abs(x).max()) or 1.0
        model = fit_polynomial(TimeSeries(x), degree)
        coefficients, cost = lstsq_fit(x, degree)
        np.testing.assert_allclose(model.coefficients, coefficients, rtol=1e-9,
                                   atol=max(1e-9 * scale, SUBNORMAL_ATOL))
        assert model.cost == pytest.approx(cost, rel=1e-9, abs=(1e-9 * scale) ** 2)

    @given(x=trend_series)
    @example(x=MULTI_BLOCK)
    @settings(max_examples=60, deadline=None)
    def test_projection_gap_is_cost_gap(self, x):
        n = x.size
        _, cost_linear = lstsq_fit(x, 1)
        _, cost_quadratic = lstsq_fit(x, 2)
        squares = design_matrix(n, 2)[:, 2]
        q = squares - squares.mean()
        c2 = fit_polynomial(TimeSeries(x), 2).coefficients[2]
        gap = c2 * c2 * float(q @ q)
        # The reference is a difference of two costs, so it is only as exact
        # as they are: 1e-9 of the linear cost plus, per sample, the
        # absolute floor of the cost test.
        scale = float(np.abs(x).max()) or 1.0
        tolerance = 1e-9 * n * cost_linear + n * (1e-9 * scale) ** 2
        assert abs(gap - n * (cost_linear - cost_quadratic)) <= tolerance
        if gap > 0.0:
            log_gap = math.log(gap)
            assert select_trend_degree(TimeSeries(x), log_gap - 1e-6) == 2
            assert select_trend_degree(TimeSeries(x), log_gap + 1e-6) == 1


class TestSelectTrendDegree:
    def test_pure_line_with_noise(self):
        rng = np.random.default_rng(0)
        t = np.arange(1, 201, dtype=float)
        series = validate_series(3 * t + rng.normal(0, 0.01, 200))
        assert select_trend_degree(series, E_SQUARED) == 1

    def test_strong_quadratic(self):
        t = np.arange(1, 201, dtype=float)
        assert select_trend_degree(validate_series(t * t), E_SQUARED) == 2

    def test_constant_series(self):
        assert select_trend_degree(validate_series([5.0] * 50), E_SQUARED) == 1

    @given(offset=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, offset):
        rng = np.random.default_rng(11)
        base = rng.normal(0, 1, 120) + 2e-4 * np.arange(120) ** 2
        plain = select_trend_degree(validate_series(base), E_SQUARED)
        shifted = select_trend_degree(validate_series(base + offset), E_SQUARED)
        assert plain == shifted


class TestRemoveTrend:
    def test_exact_fit_leaves_zeros(self):
        series = validate_series([2, 4, 6, 8])
        removed = remove_trend(series, fit_polynomial(series, 1))
        assert np.allclose(removed.values, 0.0, atol=1e-12)

    def test_sine_plus_line_recovers_sine(self):
        t = np.arange(2000, dtype=float)
        sine = np.sin(2 * np.pi * t / 40)
        series = validate_series(sine + 0.01 * t + 3.0)
        removed = remove_trend(series, fit_polynomial(series, 1))
        # The line is removed exactly; what remains of the sine differs from
        # it only by the sine's own tiny line component.
        assert np.abs(removed.values - sine).max() < 0.05
        assert abs(removed.values.mean()) < 1e-9 * np.ptp(series.values)
        sine_only = validate_series(sine)
        sine_removed = remove_trend(sine_only, fit_polynomial(sine_only, 1))
        assert np.abs(removed.values - sine_removed.values).max() < 1e-9 * np.ptp(
            series.values
        )

    def test_residual_mean_is_zero(self):
        rng = np.random.default_rng(9)
        series = validate_series(rng.normal(50, 5, 500))
        for degree in (1, 2):
            removed = remove_trend(series, fit_polynomial(series, degree))
            assert abs(removed.values.mean()) < 1e-9 * np.ptp(series.values)
