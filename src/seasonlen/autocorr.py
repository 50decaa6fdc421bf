"""Normalized autocorrelation and its secondary linear detrending.

The autocorrelation is the mean-removed, biased estimator normalized by
its lag-0 value, so values lie in [-1, 1] and taper toward high lags.
It is computed through a zero-padded real FFT in O(n log n) and agrees
with the direct lagged-product sum to within accumulation error. From a
transform length of 2**18 the FFT is factored as n1 x n2 (the four-step
FFT): batches of short transforms over the columns and rows of the
series, each batch small enough to stay in cache, in place of one
transform that streams the whole zero-padded array through memory in
every radix pass. Shorter series run that one transform.

Even a well-detrended series leaves the autocorrelation with a small
residual tilt; a second linear regression over the lags removes it so
that zero crossings are measured against the true axis.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import as_strided

from seasonlen.core import TimeSeries, ZeroVarianceError, _nonfinite_error
from seasonlen.detrend import _centered_index, _coefficients, _subtract_trend_in_place

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


#: Transform length from which the ACF runs as a four-step FFT. Below it
#: the monolithic transform's arrays fit in L2, and the split gained at
#: most 15% there, or lost, depending on the run; from 2**18 it was
#: faster in every run, 1.1 to 1.9 times (BENCH_9.json).
_SPLIT_NFFT = 1 << 18

#: Complex values per block of the four-step passes: 32768 of them take
#: 512 KiB, small enough for L2.
_SPLIT_BLOCK = 1 << 15


def _factor(n: int) -> tuple[int, int]:
    """Transform length n1 * n2 >= 2n for the ACF of n values, as (n1, n2).

    n2 == 1 is the unsplit transform of length next_fast_len(2n).
    """
    nfft = scipy.fft.next_fast_len(2 * n)
    if nfft < _SPLIT_NFFT:
        return nfft, 1
    n2 = scipy.fft.next_fast_len(math.isqrt(2 * n))
    return scipy.fft.next_fast_len(-(-2 * n // n2), real=True), n2


def _twiddles(k1: np.ndarray, n2: int, size: int) -> np.ndarray:
    """exp(-2j pi k1 b / size) for b < n2, as one row per k1.

    b is split as b = q * width + r, so the row is the outer product of
    two short exp tables, one over q and one over r. k1 * b < size, so
    the angle needs no reduction.
    """
    width = math.isqrt(n2)
    step = -2j * np.pi / size
    k1 = k1[:, None, None]
    coarse = np.exp(step * (k1 * np.arange(0, n2, width)[:, None]))
    fine = np.exp(step * (k1 * np.arange(width)))
    return (coarse * fine).reshape(k1.shape[0], -1)[:, :n2]


def _column_views(x: np.ndarray, n2: int, width: int) -> list[tuple[int, np.ndarray]]:
    """x as a grid with n2 columns, in blocks of at most width columns.

    Each block is (first column, writable view of x[row * n2 + column]
    over every row that holds that column). The last row is partial, so
    columns before n % n2 are one row longer and never share a block
    with the others.
    """
    rows, tail = divmod(x.size, n2)
    strides = (n2 * x.itemsize, x.itemsize)
    views = [(start, as_strided(x[start:], (rows + 1, min(width, tail - start)), strides))
             for start in range(0, tail, width)]
    grid = x[:rows * n2].reshape(rows, n2)
    return views + [(start, grid[:, start:start + width]) for start in range(tail, n2, width)]


def _power_in_place(block: np.ndarray) -> None:
    """Overwrite a complex block with |block|**2 (imaginary part 0)."""
    power = np.abs(block)
    np.square(power, out=power)
    block.real = power
    block.imag = 0.0


def _autocorrelation_in_place(x: np.ndarray) -> None:
    """autocorrelation on a plain array, overwriting it with the result.

    x is centred; a non-finite or zero peak raises before any transform
    (the lag-0 value is finite and positive exactly when the peak is),
    and x is scaled in place. Its zero-padded transform of length
    n1 * n2 is a four-step FFT (Bailey 1990) over x viewed as a grid
    with n2 columns and zero rows after it: length-n1 real FFTs down
    the columns, a twiddle factor, length-n2 FFTs along the rows. Each
    pass works on one cache-sized block of the one half-spectrum
    buffer, where a monolithic transform streams the whole nfft-length
    array through memory in every radix pass. The power spectrum
    |X|**2 goes back the same way, and the normalized lags below n are
    written straight into x. Short series (n2 == 1) skip the twiddles
    and the row transforms: the column transform is then the one real
    FFT of length next_fast_len(2n).
    """
    n = x.size
    x -= x.mean()
    peak = max(x.max(), -x.min())
    if not math.isfinite(peak):
        raise _nonfinite_error(x)
    if peak == 0.0:
        raise ZeroVarianceError("constant series has no autocorrelation structure")
    _, exponent = np.frexp(peak)
    np.ldexp(x, -exponent, out=x)
    n1, n2 = _factor(n)
    columns = _column_views(x, n2, max(1, _SPLIT_BLOCK // n1))
    if n2 == 1:  # the one column's transform is the buffer; no copy
        spectrum = scipy.fft.rfft(x, n1)[:, None]
    else:
        spectrum = np.empty((n1 // 2 + 1, n2), dtype=np.complex128)
        for start, view in columns:
            spectrum[:, start:start + view.shape[1]] = scipy.fft.rfft(view, n1, axis=0)
    step = max(1, _SPLIT_BLOCK // n2)
    for start in range(0, spectrum.shape[0], step):
        block = spectrum[start:start + step]
        if n2 == 1:
            _power_in_place(block)
            continue
        twiddle = _twiddles(np.arange(start, start + block.shape[0]), n2, n1 * n2)
        block *= twiddle
        transformed = scipy.fft.fft(block, axis=1, overwrite_x=True)
        _power_in_place(transformed)
        np.multiply(scipy.fft.ifft(transformed, axis=1, overwrite_x=True),
                    np.conjugate(twiddle, out=twiddle), out=block)
    for start, view in columns:
        lags = scipy.fft.irfft(spectrum[:, start:start + view.shape[1]], n1, axis=0, overwrite_x=True)
        if start == 0:
            lag0 = lags[0, 0]
        np.divide(lags[:view.shape[0]], lag0, out=view)


def detrend_acf(acf: TimeSeries) -> TimeSeries:
    """Subtract the least-squares line fitted over all lags."""
    values = acf.values.copy()
    _detrend_acf_in_place(values, _centered_index(values.size))
    return TimeSeries(values, acf.delta)


def _detrend_acf_in_place(acf: np.ndarray, t: np.ndarray) -> None:
    """detrend_acf on a plain array and its centred index t, overwriting it."""
    _subtract_trend_in_place(acf, t, _coefficients(acf, t, 1, float(acf.mean())))
