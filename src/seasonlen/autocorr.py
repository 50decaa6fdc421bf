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

import numpy as np
import scipy.fft

from seasonlen.core import TimeSeries, ZeroVarianceError
from seasonlen.detrend import polynomial_residual

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
        ZeroVarianceError: the series is constant.
    """
    x = series.values
    centered = x - x.mean()
    _, exponent = np.frexp(max(centered.max(), -centered.min()))
    np.ldexp(centered, -exponent, out=centered)
    nfft = scipy.fft.next_fast_len(2 * x.size)
    spectrum = np.abs(scipy.fft.rfft(centered, nfft)) ** 2
    raw = scipy.fft.irfft(spectrum, nfft)[: x.size]
    if raw[0] <= 0.0:
        raise ZeroVarianceError("constant series has no autocorrelation structure")
    return TimeSeries(raw / raw[0], series.delta)


def detrend_acf(acf: TimeSeries) -> TimeSeries:
    """Subtract the least-squares line fitted over all lags."""
    _, residual = polynomial_residual(acf.values, 1)
    return TimeSeries(residual, acf.delta)
