"""Normalized autocorrelation and its secondary linear detrending.

The autocorrelation is the mean-removed, biased estimator normalized by
its lag-0 value, so values lie in [-1, 1] and taper toward high lags. It
is computed through a zero-padded real FFT in O(n log n) and agrees with
the direct lagged-product sum to within accumulation error. From a
transform length of 2**17 the FFT is factored as n1 x n2 (the four-step
FFT, n2 with at most 2**5 against row-stride aliasing): batches of short
transforms over the columns and rows of the series, each batch small
enough to stay in cache, in place of one transform that streams the
whole zero-padded array through memory in every radix pass. The column
batches are copied, transposed, into one contiguous buffer of 128 rows,
so every transform runs along contiguous rows; the series is centred in
that buffer, not in a separate pass over its whole length. The
(n1/2 + 1) x n2 half-spectrum is two real planes: the real one is the
series' own grid, whose cells each column batch copies out before
writing them, plus a few tail rows; the imaginary one is the only new
series-sized array. The autocorrelation is real and even, so half the
inverse suffices: each row's real power, by its conjugated real FFT,
gives the first n2//2 + 1 columns; only those go down, and each fills
its mirror column. Shorter series run the one monolithic transform.
Every transform is numpy.fft's pocketfft, at a 5-smooth length: its real
FFT has radix passes for 2 to 5 only.

Even a well-detrended series leaves the autocorrelation with a small
residual tilt; a second linear regression over the lags removes it so
that zero crossings are measured against the true axis.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from seasonlen.core import TimeSeries, ZeroVarianceError, _exponent
from seasonlen.detrend import _remove_polynomial

__all__ = ["autocorrelation", "detrend_acf"]


def autocorrelation(series: TimeSeries) -> TimeSeries:
    """Normalized autocorrelation of a series at every lag.

    The mean is removed first; without that step the lagged-product sum
    of any offset series never crosses zero. The series is scaled by the
    power of two that brings its largest magnitude into [0.5, 1), so
    neither the mean nor the squared spectrum overflows or underflows at
    any float64 scale; a power of two scales every FFT step exactly, and
    the division by lag 0 cancels it, so the result does not change.
    Normalization by the lag-0 value puts the result in [-1, 1] with
    value 1 at lag 0. The result is indexed by lag and keeps the input's
    sampling interval.

    Raises:
        ZeroVarianceError: the series is constant.
    """
    x = series.values
    hi, lo = x.max(), x.min()
    if hi == lo:
        raise ZeroVarianceError("constant series has no autocorrelation structure")
    values = np.ldexp(x, -_exponent(hi, lo))
    _autocorrelation_in_place(values)
    return TimeSeries(values, series.delta)


#: Transform length from which the ACF runs as a four-step FFT: its median
#: time over the monolithic one's (two sets of 9 interleaved runs, 2 vCPUs)
#: read 0.72-0.83 at 2**17 and 0.48-0.78 up to 262,440. It won from 80,190
#: too (0.64-0.82), but the longest suite case (nfft 104,976) stays monolithic.
_SPLIT_NFFT = 1 << 17

#: Columns per block of the four-step column passes: at 4e6 points
#: (n1 = 2560) a block takes 2.6 MB; 64 to 256 timed the same at n1 = 2880.
_COLUMN_BLOCK = 128

#: Complex values per block of the four-step row pass: 32768 of them take
#: 512 KiB, small enough for L2.
_SPLIT_BLOCK = 1 << 15


def _factor(n: int) -> tuple[int, int]:
    """Transform length n1 * n2 >= 2n for the ACF of n values, as (n1, n2).

    n2 == 1 is the unsplit transform of length _fast_len(2n), which
    splits from _SPLIT_NFFT on (n >= 64,801). A split has the same
    5-smooth factors (real FFTs took 3.8 ns per value at n2 = 2835, 2.5
    at 5-smooth n2) and at most 2**5 in n2 (n2 = 2048 to 4096 took 135
    to 146 ms at 4e6 points, 2560 x 3125 118); of the pairs with n2 in
    [sqrt(2n)/2, 2 sqrt(2n)] the least product wins, then the squarer.
    The search takes 0.11 ms at 4e6 values, so it is not memoised.
    """
    nfft = _fast_len(2 * n)
    if nfft < _SPLIT_NFFT:
        return nfft, 1
    top, smooth = 4 * math.isqrt(2 * n) + 8, [1]  # above every n1 and n2 wanted
    for p in (2, 3, 5):
        for f in list(smooth):
            while (f := f * p) <= top:
                smooth.append(f)
    smooth.sort()
    pairs = [(smooth[bisect.bisect_left(smooth, -(-2 * n // n2))], n2) for n2 in smooth
             if n <= 2 * n2 * n2 <= 16 * n and n2 % 64]
    return min(pairs, key=lambda pair: (pair[0] * pair[1], max(pair)))


def _fast_len(target: int) -> int:
    """The least 5-smooth length >= target: scipy.fft.next_fast_len(target, real=True).

    The power of two >= target is the first candidate. Every power of 5
    below it is walked up by factors of 3, and each f * 3**j is doubled
    to the least such multiple >= target.
    """
    below = target - 1
    best = 1 << below.bit_length()
    five = 1
    while five < best:
        f = five
        while f < best:
            best = min(best, f << (below // f).bit_length())
            f *= 3
        five *= 5
    return best


def _twiddle_tables(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pass's twiddle of b = q*w + r, w = isqrt(n2), as coarse[k1, q, 0] * fine[k1, 0, r]."""
    width = math.isqrt(n2)
    k1, angle = np.arange(n1 // 2 + 1)[:, None, None], -2j * np.pi / (n1 * n2)
    coarse = np.exp(angle * (k1 * np.arange(0, n2, width)[:, None]))
    fine = np.exp(angle * (k1 * np.arange(width)))
    return coarse, fine


def _grid(x: np.ndarray, n2: int) -> tuple[np.ndarray, int, np.ndarray]:
    """x as a grid with n2 columns: its full rows, their count, and the partial last row.

    Both arrays are writable views of x; the partial row holds the last
    value of each of the first n % n2 columns.
    """
    rows = x.size // n2
    return x[:rows * n2].reshape(rows, n2), rows, x[rows * n2:]


def _column_spectra(x: np.ndarray, mean: float, n1: int, n2: int) -> tuple:
    """Real FFTs of length n1 down the n2 columns of the centred x.

    Each block of _COLUMN_BLOCK columns is copied, transposed, into the
    rows of one contiguous buffer, centred on mean there, and transformed
    along those rows. Of the (n1//2 + 1, n2) spectrum, the real parts go
    back into the block's columns of x's grid and of a tail of the rows
    past it, and the imaginary parts into a new plane; returns (tail,
    imaginary plane).
    """
    grid, rows, last = _grid(x, n2)
    tail = np.empty((n1 // 2 + 1 - rows, n2))
    imag = np.empty((n1 // 2 + 1, n2))
    buffer = np.zeros((_COLUMN_BLOCK, n1))  # the rows past the data stay zero
    for start in range(0, n2, _COLUMN_BLOCK):
        columns = buffer[:min(_COLUMN_BLOCK, n2 - start)]
        stop = start + columns.shape[0]
        np.subtract(grid[:, start:stop].T, mean, out=columns[:, :rows])
        extra = last[start:stop]
        np.subtract(extra, mean, out=columns[:extra.size, rows])
        columns[extra.size:, rows] = 0.0
        spectrum = np.fft.rfft(columns, axis=1).T
        grid[:, start:stop], tail[:, start:stop] = np.split(spectrum.real, [rows])
        imag[:, start:stop] = spectrum.imag
    return tail, imag


def _column_lags(x: np.ndarray, tail: np.ndarray, imag: np.ndarray, n1: int) -> None:
    """Inverse real FFTs down the spectrum's first n2//2 + 1 columns, divided by lag 0, into x.

    The inverse of _column_spectra: each block of columns is gathered,
    transposed, from the planes into one contiguous buffer and
    transformed along its rows. The lags below x.size are scattered back
    into the grid cells just gathered and x's partial last row. The
    lags are even, so row a of column n2 - b is row n1 - 1 - a of column
    b: each column's last rows, reversed, fill its mirror column, which
    holds no spectrum. For even n2 the centre column is its own mirror.
    """
    n2 = imag.shape[1]
    half = n2 // 2 + 1
    grid, rows, last = _grid(x, n2)
    buffer = np.empty((_COLUMN_BLOCK, imag.shape[0]), dtype=np.complex128)
    for start in range(0, half, _COLUMN_BLOCK):
        columns = buffer[:min(_COLUMN_BLOCK, half - start)]
        stop = start + columns.shape[0]
        np.concatenate((grid[:, start:stop], tail[:, start:stop]), out=columns.real.T)
        columns.imag = imag[:, start:stop].T
        lags = np.fft.irfft(columns, n1, axis=1, norm="forward")
        if start == 0:
            lag0 = lags[0, 0]
        # Columns b in [lo, hi) have mirrors; theirs run n2 - hi + 1 .. n2 - lo.
        lo = max(start, 1)
        hi = max(lo, min(stop, n2 - half + 1))
        mirror = lags[lo - start:hi - start, ::-1][::-1]
        for source, first in ((lags, start), (mirror, n2 - hi + 1)):
            np.divide(source[:, :rows].T, lag0, out=grid[:, first:first + source.shape[0]])
            extra = last[first:first + source.shape[0]]
            np.divide(source[:extra.size, rows], lag0, out=extra)


def _autocorrelation_in_place(x: np.ndarray) -> None:
    """autocorrelation on a plain array, overwriting it with the result.

    Precondition: x is not constant, and a power of two has brought its
    largest magnitude into [0.5, 1) (autocorrelation scales the series,
    detect_season_length the detrended residual), so no step overflows or
    underflows; the division by lag 0 cancels it. The mean lies between the
    extremes, so lag 0 is positive. The zero-padded transform of length
    n1 * n2 is a four-step FFT (Bailey 1990) over x viewed as a grid with n2
    columns and zero rows after it: length-n1 real FFTs down the columns
    (_column_spectra), a twiddle factor, length-n2 FFTs along cache-sized
    blocks of rows, |X|**2, and the same steps back; _column_lags writes the
    normalized lags below n into x. Each row block is built from the two
    planes; its power is real, so the conjugate of its real FFT is the
    inverse's first n2//2 + 1 columns: times the twiddle, their real and
    negated imaginary parts go back into the planes' first columns, in rows
    the pass has already read. Both inverses are unscaled: dividing by lag 0
    takes out their factor n1 * n2. Short series (n2 == 1) are centred in
    place and run the one real FFT of length _fast_len(2n) and its inverse.
    """
    n, mean = x.size, x.mean()
    n1, n2 = _factor(n)
    if n2 == 1:
        x -= mean
        spectrum = np.fft.rfft(x, n1)
        np.square(np.abs(spectrum), out=spectrum.real)
        spectrum.imag = 0.0
        lags = np.fft.irfft(spectrum, n1)
        np.divide(lags[:n], lags[0], out=x)
        return
    tail, imag = _column_spectra(x, mean, n1, n2)
    grid, rows, _ = _grid(x, n2)
    step, half = max(1, _SPLIT_BLOCK // n2), n2 // 2 + 1
    coarse, fine = _twiddle_tables(n1, n2)
    buffer = np.empty((step, n2), dtype=np.complex128)
    twiddles = np.empty((step, coarse.shape[1], fine.shape[2]), dtype=np.complex128)
    squares = np.empty((step, n2))
    for start in range(0, imag.shape[0], step):
        block = buffer[:min(step, imag.shape[0] - start)]
        stop = start + block.shape[0]
        real = grid[start:stop], tail[max(start - rows, 0):max(stop - rows, 0)]
        np.concatenate(real, out=block.real)
        block.imag = imag[start:stop]
        twiddle = np.multiply(coarse[start:stop], fine[start:stop], out=twiddles[:stop - start])
        twiddle = twiddle.reshape(stop - start, -1)[:, :n2]
        block *= twiddle
        transformed = np.fft.fft(block, axis=1, out=block)
        power = np.square(transformed.real, out=squares[:block.shape[0]])
        power += np.square(transformed.imag, out=transformed.imag)
        inverse = np.fft.rfft(power, axis=1)
        inverse *= twiddle[:, :half]
        real[0][:, :half], real[1][:, :half] = np.split(inverse.real, [real[0].shape[0]])
        np.negative(inverse.imag, out=imag[start:stop, :half])
    _column_lags(x, tail, imag, n1)


def detrend_acf(acf: TimeSeries) -> TimeSeries:
    """Subtract the least-squares line fitted over all lags."""
    values = acf.values.copy()
    _remove_polynomial(values, 1)
    return TimeSeries(values, acf.delta)
