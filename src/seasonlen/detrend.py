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
threads. Every pass runs block by block: the sums accumulate per block
(the quadratic one over x centred in a work array), and the trend is
subtracted in place with Horner's rule in another work array. A longer
series builds t one block at a time from one arange; for a series of
one block, t is memoised (the last length only, at most 128 KiB), so a
detection's four passes build it once. _detrend_in_place selects the
degree and removes its trend from one mean, sum(t*x) and sum(q*x);
_remove_polynomial runs every other fit in place. fit_polynomial and
remove_trend copy their input first. Coefficients are reported in the
basis of design_matrix, which defines them but is never built here.
"""

from __future__ import annotations

import functools
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


#: Samples per block of the trend sums and the in-place subtraction:
#: 16384 float64 values of t and of a work array take 128 KiB each,
#: small enough for L2.
_BLOCK = 1 << 14

#: 1, 2, ..., _BLOCK: each block of t is this ramp shifted and scaled.
_RAMP = np.arange(1.0, _BLOCK + 1.0)
_RAMP.flags.writeable = False


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


@functools.lru_cache(maxsize=1)
def _one_block_index(n: int) -> np.ndarray:
    """_centered_index(n), read-only, for every pass over a series of one block."""
    t = _centered_index(n)
    t.flags.writeable = False
    return t


def _index_blocks(n: int):
    """The centred index t of n samples, one block of at most _BLOCK at a time.

    Yields (start, t[start:start + _BLOCK]). A series of one block gets
    the memoised whole of t; a longer one gets each block in one reused
    work array, shifted and scaled from _RAMP. i - (n+1)/2 is exact, so
    either way every value equals _centered_index(n)'s.
    """
    if n <= _BLOCK:
        yield 0, _one_block_index(n)
        return
    work = np.empty(_BLOCK)
    offset = (n + 1) / 2.0
    for start in range(0, n, _BLOCK):
        t = work[: min(_BLOCK, n - start)]
        np.add(_RAMP[: t.size], start - offset, out=t)
        t /= n
        yield start, t


def _inner_products(x: np.ndarray, mean: float, degree: int) -> tuple[float, float]:
    """sum(t*x) and, for degree 2, sum(q*x) = sum(t**2 * (x - mean(x))); else 0.

    Both are summed block by block. Each block of x is centred in a
    block-sized work array before the quadratic sum, which keeps an
    offset far above the variation from cancelling the result away.
    """
    linear = quadratic = 0.0
    centred = np.empty(min(_BLOCK, x.size)) if degree == 2 else None
    for start, t in _index_blocks(x.size):
        block = x[start:start + t.size]
        linear += float(np.einsum("i,i->", t, block))
        if degree == 2:
            np.subtract(block, mean, out=centred[: t.size])
            quadratic += float(np.einsum("i,i,i->", t, t, centred[: t.size]))
    return linear, quadratic


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
    return np.column_stack([t**j for j in range(degree + 1)])


def _degree(inner: float, n: int, k_trend: float) -> int:
    """Trend degree from sum(q*x): 2 when log(sum(q*x)**2 / sum(q**2)) > k_trend."""
    c2 = inner / _q_squared_sum(n)
    gap = c2 * inner
    if gap <= 0.0:
        return 1
    return 2 if math.log(gap) > k_trend else 1


def _coefficients(
    n: int, degree: int, mean: float, linear: float, quadratic: float
) -> tuple[float, ...]:
    """design_matrix coefficients of the fit, from mean(x), sum(t*x) and sum(q*x)."""
    c1 = linear / _t_squared_sum(n)
    if degree == 1:
        return mean, c1
    c2 = quadratic / _q_squared_sum(n)
    return mean - c2 * _t_squared_sum(n) / n, c1, c2


def _subtract_trend_in_place(x: np.ndarray, coefficients) -> None:
    """x -= the polynomial with design_matrix coefficients, one block at a time.

    Each block's trend is evaluated by Horner's rule at that block of t
    in a block-sized work array, so the passes over it stay in cache;
    every value is rounded exactly as a whole-array evaluation rounds it.
    """
    work = np.empty(min(_BLOCK, x.size), dtype=np.float64)
    for start, t in _index_blocks(x.size):
        trend = work[: t.size]
        np.multiply(t, coefficients[-1], out=trend)
        trend += coefficients[-2]
        if len(coefficients) == 3:
            trend *= t
            trend += coefficients[0]
        x[start:start + t.size] -= trend


def _detrend_in_place(x: np.ndarray, k_trend: float) -> int:
    """select_trend_degree, then that degree's residual written over x; returns the degree.

    Selection and fit share one mean, one sum(t*x) and one sum(q*x).
    """
    mean = float(x.mean())
    linear, quadratic = _inner_products(x, mean, 2)
    degree = _degree(quadratic, x.size, k_trend)
    _subtract_trend_in_place(x, _coefficients(x.size, degree, mean, linear, quadratic))
    return degree


def _remove_polynomial(x: np.ndarray, degree: int) -> tuple[float, ...]:
    """Subtract the least-squares polynomial of that degree from x, in place.

    Returns its design_matrix coefficients; raises as fit_polynomial does.
    """
    _check_degree(x.size, degree)
    mean = float(x.mean())
    coefficients = _coefficients(x.size, degree, mean, *_inner_products(x, mean, degree))
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
    return _degree(_inner_products(x, float(x.mean()), 2)[1], x.size, k_trend)


def remove_trend(series: TimeSeries, model: TrendModel) -> TimeSeries:
    """Subtract the trend values, evaluated on the series' own time index."""
    residual = series.values.copy()
    _subtract_trend_in_place(residual, model.coefficients)
    return TimeSeries(residual, series.delta)
