"""Polynomial fitting, degree selection, and trend removal."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from seasonlen.core import TimeSeries, validate_series
from seasonlen.detrend import (
    _BLOCK,
    _detrend_in_place,
    _remove_polynomial,
    design_matrix,
    fit_polynomial,
    remove_trend,
    select_trend_degree,
)

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


#: Three samples, one block and a sample either side, and three blocks less one.
BLOCK_EDGES = [3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK - 1]

#: Offsets in units of the range of the trended series, up to 1e14.
OFFSETS = [0.0, 1.0, 1e3, 1e8, 1e11, 1e14, -1e14]


def trended(n, offset):
    """Unit noise under a linear and a quadratic trend, shifted by offset times its range."""
    i = np.arange(n)
    base = np.random.default_rng(n).normal(0.0, 1.0, n) + 3.0 * i / n - 2.0 * (i / n) ** 2
    return base + offset * np.ptp(base)


def extended_residual(x, degree):
    """The least-squares residual of x on design_matrix's basis, in np.longdouble."""
    n = x.size
    c = x.astype(np.longdouble)
    c -= c.mean()
    t = (np.arange(n, dtype=np.longdouble) - np.longdouble(n - 1) / 2) / n
    residual = c - t * (t @ c) / (t @ t)
    if degree == 2:
        q = t * t - (t * t).mean()
        residual -= q * (q @ c) / (q @ q)
    return residual


@pytest.mark.parametrize("n", [3, 2_000, *BLOCK_EDGES[1:]])
@pytest.mark.parametrize("k_trend", [-np.inf, np.inf])
def test_a_prebuilt_index_gives_the_same_residuals_bit_for_bit(n, k_trend):
    # The prebuilt index is the module ramp: the pass that selects the
    # degree, the fixed-degree kernel and the public fit-then-remove run
    # the same sums over it and the same subtraction.
    for offset in OFFSETS:
        x = trended(n, offset)
        selected, fixed = x.copy(), x.copy()
        degree = _detrend_in_place(selected, k_trend)
        assert degree == (2 if k_trend < 0 else 1)
        _remove_polynomial(fixed, degree)
        series = TimeSeries(x)
        public = remove_trend(series, fit_polynomial(series, degree)).values
        assert selected.tobytes() == fixed.tobytes() == public.tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="no extended-precision long double")
@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("degree", [1, 2])
def test_residuals_are_within_a_few_ulps_of_an_extended_precision_fit(n, offset, degree):
    # Up to 1e14 times the range the residual is off by the rounding of
    # c0, a constant; past it, only by a few roundings of the variation.
    x = trended(n, offset)
    residual = x.copy()
    _remove_polynomial(residual, degree)
    error = residual - extended_residual(x, degree)
    assert np.abs(error).max() <= 6 * np.spacing(np.abs(x).max())
    assert np.abs(error - error[0]).max() <= 8 * np.spacing(np.ptp(x))


@pytest.mark.parametrize("n, degree", [(2, 1), (3, 1), (3, 2), (100, 1), (100, 2)])
def test_short_series_near_the_float_maximum_fit_without_overflow(n, degree):
    # Shorter than a block, v = _BLOCK / n reaches 8192 at n = 2: folded
    # into the coefficients, it would lift c1 * v past the float maximum
    # and the zero ramp value would turn inf * 0 into NaN.
    x = 1e305 * np.linspace(-1.0, 1.0, n) + 1e304 * np.random.default_rng(n).normal(size=n)
    series = TimeSeries(x)
    model = fit_polynomial(series, degree)
    residual = remove_trend(series, model).values
    assert np.isfinite(model.coefficients).all()
    assert np.isfinite(residual).all()
    error = residual - extended_residual(x, degree)
    assert np.abs(error).max() <= 1e-14 * np.abs(x).max()


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
