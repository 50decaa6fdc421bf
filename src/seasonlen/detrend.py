"""Polynomial trend fitting, automatic degree selection, and removal.

Fitting works in the centered, scaled time index t = (i - (n+1)/2) / n.
Least squares is a projection onto the discrete orthogonal basis
{1, t, q = t**2 - mean(t**2)}: t is odd and 1, q are even about the
center, and q has zero mean, so each coefficient is one inner product
over the series divided by a closed-form power sum of t:

    c0 = mean(x),  c1 = sum(t*x) / sum(t**2),  c2 = sum(q*x) / sum(q**2).

The quadratic term's share of the squared error is exactly
c2**2 * sum(q**2), which is all degree selection needs. The reductions
are numpy.einsum sums of products, which make no BLAS call and start no
threads, and the trend is evaluated by Horner's rule in place: besides
its result, a stage allocates only the index t. Coefficients are
reported in the basis of design_matrix, which defines them but is never
built on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seasonlen.core import TimeSeries

__all__ = [
    "TrendModel",
    "design_matrix",
    "fit_polynomial",
    "polynomial_residual",
    "select_trend_degree",
    "remove_trend",
]


@dataclass(frozen=True, eq=False)
class TrendModel:
    """A fitted polynomial trend.

    Attributes:
        degree: 1 for linear, 2 for quadratic.
        coefficients: constant term first, in the centered time basis of
            design_matrix.
        cost: mean squared residual of the fit.
    """

    degree: int
    coefficients: np.ndarray
    cost: float


def _check_degree(n: int, degree: int) -> None:
    if degree not in (1, 2):
        raise ValueError(f"only degrees 1 and 2 are supported, got {degree}")
    if n < degree + 1:
        raise ValueError(f"need at least {degree + 1} points, got {n}")


def _centered_index(n: int) -> np.ndarray:
    t = np.arange(1, n + 1, dtype=np.float64)
    t -= (n + 1) / 2.0
    t /= n
    return t


def _t_squared_sum(n: int) -> float:
    """sum(t**2), from sum((i - (n+1)/2)**2) = n(n**2 - 1)/12."""
    return (n * n - 1) / (12.0 * n)


def _q_squared_sum(n: int) -> float:
    """sum(q**2) = sum(t**4) - n * mean(t**2)**2 = (n**2-1)(n**2-4) / (180 n**3)."""
    return (n * n - 1) * (n * n - 4) / (180.0 * n**3)


def _quadratic_inner(x: np.ndarray, t: np.ndarray, mean: float) -> float:
    """sum(q * x) = sum(t**2 * (x - mean(x))), without forming q.

    Centring x before the sum keeps an offset far above the variation
    from cancelling the result away.
    """
    return float(np.einsum("i,i,i->", t, t, x - mean))


def design_matrix(n: int, degree: int) -> np.ndarray:
    """Build the n x (degree+1) regression basis for n samples.

    Column j holds the j-th power of the centered, scaled time index
    (i - (n+1)/2) / n for i = 1..n. The column space equals that of the
    raw powers [1, i, i**2], only better conditioned. This basis defines
    the coefficients a TrendModel reports; the fit itself never builds it.

    Raises:
        ValueError: degree not in {1, 2}, or fewer samples than
            coefficients.
    """
    _check_degree(n, degree)
    t = _centered_index(n)
    columns = [np.ones(n), t]
    if degree == 2:
        columns.append(t * t)
    return np.column_stack(columns)


def _subtract_trend(x: np.ndarray, t: np.ndarray, coefficients) -> np.ndarray:
    """x minus the polynomial with design_matrix coefficients at t, as a new array."""
    out = np.multiply(t, coefficients[-1])
    out += coefficients[-2]
    if len(coefficients) == 3:
        out *= t
        out += coefficients[0]
    return np.subtract(x, out, out=out)


def polynomial_residual(values: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares polynomial fit of a plain array, by orthogonal projection.

    Returns the coefficients in the design_matrix basis and the residual
    values minus fitted trend, a new array.

    Raises:
        ValueError: degree not in {1, 2}, or fewer samples than
            coefficients.
    """
    n = values.size
    _check_degree(n, degree)
    t = _centered_index(n)
    c0 = float(values.mean())
    c1 = float(np.einsum("i,i->", t, values)) / _t_squared_sum(n)
    if degree == 1:
        coefficients = (c0, c1)
    else:
        c2 = _quadratic_inner(values, t, c0) / _q_squared_sum(n)
        coefficients = (c0 - c2 * _t_squared_sum(n) / n, c1, c2)
    return np.array(coefficients), _subtract_trend(values, t, coefficients)


def fit_polynomial(series: TimeSeries, degree: int) -> TrendModel:
    """Least-squares fit of a degree-1 or degree-2 polynomial.

    Raises:
        ValueError: degree not in {1, 2}, or fewer samples than
            coefficients.
    """
    coefficients, residual = polynomial_residual(series.values, degree)
    cost = float(np.einsum("i,i->", residual, residual)) / residual.size
    return TrendModel(degree=degree, coefficients=coefficients, cost=cost)


def select_trend_degree(series: TimeSeries, k_trend: float) -> int:
    """Choose between a linear and a quadratic trend model.

    Degree 2 wins only when the squared-error gap between the linear and
    the quadratic fit, totalled over all samples, exceeds exp(k_trend) on
    the log scale. The gap is the quadratic term's share c2**2 * sum(q**2)
    = sum(q*x)**2 / sum(q**2); a zero gap always selects degree 1.

    Raises:
        ValueError: fewer than 3 samples.
    """
    x = series.values
    _check_degree(x.size, 2)
    inner = _quadratic_inner(x, _centered_index(x.size), float(x.mean()))
    c2 = inner / _q_squared_sum(x.size)
    gap = c2 * inner
    if gap <= 0.0:
        return 1
    return 2 if math.log(gap) > k_trend else 1


def remove_trend(series: TimeSeries, model: TrendModel) -> TimeSeries:
    """Subtract the trend values, evaluated on the series' own time index."""
    residual = _subtract_trend(series.values, _centered_index(len(series)), model.coefficients)
    return TimeSeries(residual, series.delta)
