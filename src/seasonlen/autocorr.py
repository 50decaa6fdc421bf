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

from dataclasses import dataclass

import numpy as np
import scipy.fft

from seasonlen.core import AlreadyDetrendedError, NonFiniteError, TimeSeries, ZeroVarianceError
from seasonlen.detrend import polynomial_residual

__all__ = ["AcfSeries", "autocorrelation", "detrend_acf"]


@dataclass(frozen=True, eq=False)
class AcfSeries:
    """Autocorrelation values indexed by lag 0..n-1.

    Attributes:
        values: read-only array of correlation values.
        detrended: whether the secondary linear regression has been
            subtracted; zero analysis requires it.
    """

    values: np.ndarray
    detrended: bool = False

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def autocorrelation(series: TimeSeries) -> AcfSeries:
    """Normalized autocorrelation of a series at every lag.

    The mean is removed first; without that step the lagged-product sum
    of any offset series never crosses zero. Normalization by the lag-0
    value puts the result in [-1, 1] with value 1 at lag 0.

    Raises:
        ZeroVarianceError: the series is constant.
    """
    x = series.values
    centered = x - x.mean()
    nfft = scipy.fft.next_fast_len(2 * x.size)
    spectrum = np.abs(scipy.fft.rfft(centered, nfft)) ** 2
    raw = scipy.fft.irfft(spectrum, nfft)[: x.size]
    if raw[0] <= 0.0:
        raise ZeroVarianceError("constant series has no autocorrelation structure")
    return AcfSeries(values=raw / raw[0], detrended=False)


def detrend_acf(acf: AcfSeries) -> AcfSeries:
    """Subtract the least-squares line fitted over all lags.

    Raises:
        AlreadyDetrendedError: the input was detrended before.
        NonFiniteError: the autocorrelation holds a NaN or an infinity,
            as after the spectrum of an input beyond about 1e154 overflows.
    """
    if acf.detrended:
        raise AlreadyDetrendedError("autocorrelation is already detrended")
    bad = np.flatnonzero(~np.isfinite(acf.values))
    if bad.size:
        raise NonFiniteError(int(bad[0]))
    _, residual = polynomial_residual(acf.values, 1)
    return AcfSeries(values=residual, detrended=True)
