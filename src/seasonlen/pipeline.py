"""End-to-end season length detection, plus reference detectors.

The detection flow is: upsample, low-pass, pick and remove the trend,
autocorrelate, detrend the autocorrelation, and segment the distances
between its zeros. Absence of seasonality is a regular outcome carried
by the result object; only invalid input raises.

Two auxiliary detectors support testing and benchmarking: a brute-force
oracle that finds the exact repetition length of noiseless discrete
patterns, and a deliberately simple periodogram detector used as a
comparison baseline by the evaluation harness.
"""

from __future__ import annotations

import math

import numpy as np

from seasonlen.autocorr import _autocorrelation_in_place
from seasonlen.core import (
    DetectionConfig,
    DetectionDiagnostics,
    DetectionResult,
    MIN_DETECTION_LENGTH,
    TimeSeries,
    TooShortError,
    _exponent,
)
from seasonlen.detrend import _detrend_in_place, _remove_polynomial
from seasonlen.preprocess import _smooth, design_butterworth_lowpass
from seasonlen.zerocross import _find_zeros, estimate_from_zeros

__all__ = [
    "detect_season_length",
    "exact_season_oracle",
    "repeats_with_period",
    "is_repetition_of_shorter",
    "baseline_periodogram",
]

#: Shortest season a result may report, in original samples.
MIN_SEASON = 2.0


def _result(
    degree: int,
    diagnostics: DetectionDiagnostics = DetectionDiagnostics(),
    season: float | None = None,
    delta: float = 1.0,
) -> DetectionResult:
    """The result of every exit; a season below MIN_SEASON is no season."""
    if season is None or season < MIN_SEASON:
        return DetectionResult(None, None, degree, diagnostics)
    return DetectionResult(season * delta, season, degree, diagnostics)


def detect_season_length(
    series: TimeSeries, config: DetectionConfig | None = None
) -> DetectionResult:
    """Detect the dominant season length of a series.

    Returns a no-season result when the filtered series is constant,
    too few autocorrelation zeros exist, no usable zero distance
    survives, or the estimate would be shorter than two observations.
    The result is deterministic: identical input and configuration give
    an identical result. The values are first scaled, exactly, by the
    power of two 2**-e that brings them into (-1, 1), so no finite input
    overflows; the trend threshold, which bounds a squared gap, drops by
    2e*ln 2 to match.

    Raises:
        TooShortError: fewer than 4 observations, or too few for the
            filter edges once upsampled.
    """
    if config is None:
        config = DetectionConfig()
    if len(series) < MIN_DETECTION_LENGTH:
        raise TooShortError(
            f"detection needs at least {MIN_DETECTION_LENGTH} observations, got {len(series)}"
        )

    # One buffer carries the series from upsampling to the zero search: the
    # filter streams through it, later kernels overwrite it, and the trend
    # fits build their time index in blocks, so no other array that long is kept.
    spec = design_butterworth_lowpass(config.filter_order, config.filter_cutoff)
    e = _exponent(series.values.max(), series.values.min())
    values = _smooth(np.ldexp(series.values, -e), config.interp_factor, spec)
    if np.ptp(values) == 0.0:
        return _result(1)

    degree = _detrend_in_place(values, config.trend_log_threshold - 2 * e * math.log(2))

    # The residual can be far smaller than the series (3e-173 from 7 values
    # at cutoff 3e-12, order 14), and its squares would underflow.
    np.ldexp(values, -_exponent(values.max(), values.min()), out=values)
    _autocorrelation_in_place(values)
    _remove_polynomial(values, 1)

    zeros = _find_zeros(values, config.zero_tolerance_rel)
    if zeros.size < config.min_zero_count:
        return _result(degree, DetectionDiagnostics(zero_count=int(zeros.size)))

    season, diagnostics = estimate_from_zeros(
        zeros, config.quotient_threshold, config.interp_factor
    )
    return _result(degree, diagnostics, season, series.delta)


def repeats_with_period(values: np.ndarray, period: int) -> bool:
    """Whether every value equals the value one period later, exactly."""
    v = np.asarray(values)
    if period < 1 or period >= v.size:
        return False
    return bool(np.array_equal(v[:-period], v[period:]))


def is_repetition_of_shorter(block: np.ndarray) -> bool:
    """Whether a block is some shorter block repeated whole."""
    b = np.asarray(block)
    n = b.size
    for d in range(1, n):
        if n % d == 0 and np.array_equal(np.tile(b[:d], n // d), b):
            return True
    return False


def exact_season_oracle(values) -> int | None:
    """Exact repetition length of a discrete sequence, by brute force.

    Returns the smallest period p >= 2 such that the sequence repeats
    every p values and its leading p values are not themselves a
    shorter block repeated whole. Periods beyond half the length cannot
    be confirmed and yield None. Comparison is exact, so this is only
    meaningful for noiseless discrete patterns.
    """
    v = np.asarray(values)
    for period in range(2, v.size // 2 + 1):
        if repeats_with_period(v, period) and not is_repetition_of_shorter(v[:period]):
            return period
    return None


def baseline_periodogram(series: TimeSeries) -> float | None:
    """Spectral-peak period estimate used as a benchmark baseline.

    Removes a linear trend, takes the discrete power spectrum, and
    converts the strongest bin into a period. Intentionally simple: it
    exists to give the evaluation harness a second column, not to be a
    competitive detector. Scaled as in detect_season_length, no finite
    input overflows the power.
    """
    x = series.values
    if x.size < 16:
        raise TooShortError(f"baseline needs at least 16 observations, got {x.size}")
    hi, lo = x.max(), x.min()
    if hi == lo:
        return None
    x = np.ldexp(x, -_exponent(hi, lo))
    _remove_polynomial(x, 1)
    power = np.abs(np.fft.rfft(x)) ** 2
    peak = int(np.argmax(power))
    if peak == 0:
        return None
    return x.size / peak
