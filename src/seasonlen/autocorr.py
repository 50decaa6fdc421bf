"""Normalized autocorrelation and its secondary linear detrending.

The autocorrelation is the mean-removed, biased estimator normalized by
its lag-0 value, so values lie in [-1, 1] and taper toward high lags.
It is computed through a zero-padded real FFT in O(n log n) and agrees
with the direct lagged-product sum to within accumulation error.

Even a well-detrended series leaves the autocorrelation with a small
residual tilt; a second linear regression over the lags removes it so
that zero crossings are measured against the true axis.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from seasonlen.core import TimeSeries, ZeroVarianceError, _nonfinite_error
from seasonlen.detrend import _BLOCK, _centered_index, _coefficients, _subtract_trend_in_place

__all__ = ["autocorrelation", "detrend_acf"]


def autocorrelation(series: TimeSeries) -> TimeSeries:
    """Normalized autocorrelation of a series at every lag.

    The mean is removed first; without that step the lagged-product sum
    of any offset series never crosses zero. The centered series is then
    scaled by the power of two that brings its largest magnitude into
    [0.5, 1), so the squared spectrum neither overflows nor underflows at
    any float64 scale; a power of two scales every FFT step exactly, so
    the normalized result does not change. Normalization by the lag-0
    value puts the result in [-1, 1] with value 1 at lag 0. The result
    is indexed by lag and keeps the input's sampling interval.

    Raises:
        NonFiniteError: the series is so large that centring it overflows.
        ZeroVarianceError: the series is constant.
    """
    values = series.values.copy()
    _autocorrelation_in_place(values)
    return TimeSeries(values, series.delta)


def _autocorrelation_in_place(x: np.ndarray) -> None:
    """autocorrelation on a plain array, overwriting it with the result.

    x is centred and scaled in place, the power spectrum |X|**2 is
    written over the complex spectrum block by block (the inverse
    transform would otherwise convert a real one to complex), and the
    normalized lags are written back into x.
    """
    n = x.size
    x -= x.mean()
    _, exponent = np.frexp(max(x.max(), -x.min()))
    np.ldexp(x, -exponent, out=x)
    nfft = scipy.fft.next_fast_len(2 * n)
    spectrum = scipy.fft.rfft(x, nfft)
    for start in range(0, spectrum.size, _BLOCK):
        block = spectrum[start:start + _BLOCK]
        power = np.abs(block)
        np.square(power, out=power)
        block.real = power
        block.imag = 0.0
    raw = scipy.fft.irfft(spectrum, nfft, overwrite_x=True)
    lag0 = raw[0]
    if not math.isfinite(lag0):
        raise _nonfinite_error(x)
    if lag0 <= 0.0:
        raise ZeroVarianceError("constant series has no autocorrelation structure")
    np.divide(raw[:n], lag0, out=x)


def detrend_acf(acf: TimeSeries) -> TimeSeries:
    """Subtract the least-squares line fitted over all lags."""
    values = acf.values.copy()
    _detrend_acf_in_place(values, _centered_index(values.size))
    return TimeSeries(values, acf.delta)


def _detrend_acf_in_place(acf: np.ndarray, t: np.ndarray) -> None:
    """detrend_acf on a plain array and its centred index t, overwriting it."""
    _subtract_trend_in_place(acf, t, _coefficients(acf, t, 1, float(acf.mean())))
