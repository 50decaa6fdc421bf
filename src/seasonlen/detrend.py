"""Polynomial trend fitting, automatic degree selection, and removal.

Fitting works in the centered, scaled time index t = (i - (n+1)/2) / n.
Least squares is a projection onto the discrete orthogonal basis
{1, t, q = t**2 - mean(t**2)}: t is odd and 1, q are even about the
center, and q has zero mean, so each coefficient is one inner product
over the series divided by a closed-form power sum of t:

    c0 = mean(x),  c1 = sum(t*x) / sum(t**2),  c2 = sum(q*x) / sum(q**2).

The quadratic term's share of the squared error is exactly
c2**2 * sum(q**2), which is all degree selection needs.

t is never built: every pass runs in blocks of 16384 samples, and over
the block at `start` t = v*r + u with one read-only ramp r = j / 16384
(j = 0, 1, ...), v = 16384 / n and u = (start - (n-1)/2) / n. The inner
products are add.reduce sums of the centred block and its products with
r and r**2, so no BLAS call is made and no thread started; the trend is
a polynomial in r (in v*r = j/n below one block, where v > 1), taken off
in place by Horner's rule after its constant term, so it rounds at the
scale of the variation however far an offset lifts the series.
_detrend_in_place selects the degree and removes its trend from one set
of sums; _remove_polynomial runs every other fit in place;
fit_polynomial and remove_trend copy their input first. Coefficients
are in the basis of design_matrix, never built here.
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


#: Samples per block of the trend passes: a work array of 128 KiB stays in L2.
_BLOCK = 1 << 14

#: r = j / _BLOCK and r**2 for j = 0, 1, ..., _BLOCK - 1, both exact.
_RAMP = np.arange(float(_BLOCK)) / _BLOCK
_RAMP2 = _RAMP * _RAMP
_RAMP.flags.writeable = _RAMP2.flags.writeable = False


def _check_degree(n: int, degree: int) -> None:
    if degree not in (1, 2):
        raise ValueError(f"only degrees 1 and 2 are supported, got {degree}")
    if n < degree + 1:
        raise ValueError(f"need at least {degree + 1} points, got {n}")


def _t_squared_sum(n: int) -> float:
    """sum(t**2), from sum((i - (n+1)/2)**2) = n(n**2 - 1)/12."""
    return (n * n - 1) / (12.0 * n)


def _q_squared_sum(n: int) -> float:
    """sum(q**2) = sum(t**4) - n * mean(t**2)**2 = (n**2-1)(n**2-4) / (180 n**3)."""
    return (n * n - 1) * (n * n - 4) / (180.0 * n**3)


def _inner_products(x: np.ndarray, mean: float, degree: int) -> tuple[float, float, float]:
    """sum(c) for c = x - mean, sum(t*x) and, for degree 2, sum(q*x); else 0.

    Each block is centred in one work array; s0 = sum(c), s1 = sum(r*c)
    and s2 = sum(r**2 * c) are summed pairwise from a second. As sum(t)
    and sum(q) are 0, sum(t*x) = sum(t*c) is the blocks' sum of
    v*s1 + u*s0, and sum(q*x) = sum(t**2 * c) - mean(t**2) * sum(c) with
    sum(t**2 * c) their sum of v*(v*s2 + 2*u*s1) + u*u*s0. Centring keeps
    an offset from cancelling the sums away, sum(c) takes out the mean's
    rounding, and as r, v*r and |u| are at most 1 no partial sum outgrows
    the block's sum of |c|: where v > 1 the series is one block and r is
    at most (n-1)/16384.
    """
    n = x.size
    v = _BLOCK / n
    constant = linear = quadratic = 0.0
    centred, products = np.empty((2, min(_BLOCK, n)))
    for start in range(0, n, _BLOCK):
        c = np.subtract(x[start:start + _BLOCK], mean, out=centred[:min(_BLOCK, n - start)])
        rc = products[:c.size]
        u = (start - (n - 1) / 2.0) / n
        s0 = float(np.add.reduce(c))
        s1 = float(np.add.reduce(np.multiply(_RAMP[:c.size], c, out=rc)))
        constant += s0
        linear += v * s1 + u * s0
        if degree == 2:
            s2 = float(np.add.reduce(np.multiply(_RAMP2[:c.size], c, out=rc)))
            quadratic += v * (v * s2 + 2.0 * u * s1) + u * u * s0
    if degree == 2:
        quadratic -= _t_squared_sum(n) / n * constant
    return constant, linear, quadratic


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
    t = (np.arange(n) - (n - 1) / 2.0) / n
    return np.column_stack([t**j for j in range(degree + 1)])


def _degree(inner: float, n: int, k_trend: float) -> int:
    """Trend degree from sum(q*x): 2 when log(sum(q*x)**2 / sum(q**2)) > k_trend."""
    c2 = inner / _q_squared_sum(n)
    gap = c2 * inner
    if gap <= 0.0:
        return 1
    return 2 if math.log(gap) > k_trend else 1


def _coefficients(n: int, degree: int, mean: float, sums: tuple) -> tuple[float, ...]:
    """design_matrix coefficients of the fit, from the float mean and _inner_products' sums."""
    constant, linear, quadratic = sums
    c1 = linear / _t_squared_sum(n)
    if degree == 1:
        return mean + constant / n, c1
    c2 = quadratic / _q_squared_sum(n)
    return mean + (constant - c2 * _t_squared_sum(n)) / n, c1, c2


def _subtract_trend_in_place(x: np.ndarray, coefficients) -> None:
    """x -= the polynomial with design_matrix coefficients, one block at a time.

    Each block loses c0 first. Over it, t = v*r + u turns c1*t + c2*t**2
    into b0 + b1*r + b2*r**2, with b2 = c2*v**2, b1 = (c1 + 2*c2*u)*v and
    b0 = (c1 + c2*u)*u, evaluated by Horner's rule in a work array. Below
    one block v > 1 would scale b1 and b2 past the float maximum for data
    near it, so the one block uses the ramp v*r = j/n with v = 1 instead.
    """
    n = x.size
    ramp, v = _RAMP, _BLOCK / n
    if v > 1.0:
        ramp, v = _RAMP[:n] * v, 1.0
    c0, c1, c2 = (*coefficients, 0.0)[:3]
    work = np.empty(min(_BLOCK, n))
    for start in range(0, n, _BLOCK):
        trend = work[:min(_BLOCK, n - start)]
        r = ramp[:trend.size]
        u = (start - (n - 1) / 2.0) / n
        if len(coefficients) == 3:
            np.multiply(r, c2 * v * v, out=trend)
            trend += (c1 + 2.0 * c2 * u) * v
            trend *= r
        else:
            np.multiply(r, c1 * v, out=trend)
        trend += (c1 + c2 * u) * u
        block = x[start:start + trend.size]
        block -= c0
        block -= trend


def _detrend_in_place(x: np.ndarray, k_trend: float) -> int:
    """select_trend_degree, then that degree's residual written over x; returns the degree.

    Selection and fit share one mean and one set of sums.
    """
    mean = float(x.mean())
    sums = _inner_products(x, mean, 2)
    degree = _degree(sums[2], x.size, k_trend)
    _subtract_trend_in_place(x, _coefficients(x.size, degree, mean, sums))
    return degree


def _remove_polynomial(x: np.ndarray, degree: int) -> tuple[float, ...]:
    """Subtract the least-squares polynomial of that degree from x, in place.

    Returns its design_matrix coefficients; raises as fit_polynomial does.
    """
    _check_degree(x.size, degree)
    mean = float(x.mean())
    coefficients = _coefficients(x.size, degree, mean, _inner_products(x, mean, degree))
    _subtract_trend_in_place(x, coefficients)
    return coefficients


def fit_polynomial(series: TimeSeries, degree: int) -> TrendModel:
    """Least-squares fit of a degree-1 or degree-2 polynomial.

    Raises:
        ValueError: degree not in {1, 2}, or fewer samples than
            coefficients.
    """
    residual = series.values.copy()
    coefficients = np.array(_remove_polynomial(residual, degree))
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
    return _degree(_inner_products(x, float(x.mean()), 2)[2], x.size, k_trend)


def remove_trend(series: TimeSeries, model: TrendModel) -> TimeSeries:
    """Subtract the trend values, evaluated on the series' own time index."""
    residual = series.values.copy()
    _subtract_trend_in_place(residual, model.coefficients)
    return TimeSeries(residual, series.delta)
