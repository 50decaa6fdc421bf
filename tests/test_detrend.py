"""Polynomial fitting, degree selection, and trend removal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seasonlen.core import TimeSeries, validate_series
from seasonlen.detrend import (
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


class TestProjectionMatchesLstsq:
    """The orthogonal projection against a solver that shares none of its code.

    Tolerances are 1e-9 relative, with an absolute floor of 1e-9 of the
    data's magnitude per residual, far above the float64 round-off of
    either method on these small, well-conditioned bases.
    """

    @given(x=trend_series, degree=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_coefficients_and_cost(self, x, degree):
        scale = float(np.abs(x).max()) or 1.0
        model = fit_polynomial(TimeSeries(x), degree)
        coefficients, cost = lstsq_fit(x, degree)
        np.testing.assert_allclose(model.coefficients, coefficients, rtol=1e-9, atol=1e-9 * scale)
        assert model.cost == pytest.approx(cost, rel=1e-9, abs=(1e-9 * scale) ** 2)

    @given(x=trend_series)
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
