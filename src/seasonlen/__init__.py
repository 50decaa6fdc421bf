"""Parameter-free season length detection for uniformly sampled time series.

The detector upsamples the series, smooths it with a zero-phase
low-pass, removes a linear or quadratic trend, and measures the
distances between zeros of the detrended autocorrelation; the longest
stable run of distances, doubled, is the season length.
"""

from seasonlen.autocorr import autocorrelation, detrend_acf
from seasonlen.core import (
    DetectionConfig,
    DetectionDiagnostics,
    DetectionError,
    DetectionResult,
    TimeSeries,
    validate_series,
)
from seasonlen.detrend import fit_polynomial, remove_trend, select_trend_degree
from seasonlen.pipeline import baseline_periodogram, detect_season_length
from seasonlen.preprocess import apply_filter, design_butterworth_lowpass, interpolate_linear
from seasonlen.synthgen import FAMILY_NAMES, SeriesSpec, gen_family, generate
from seasonlen.zerocross import estimate_from_zeros, find_zeros

__version__ = "0.1.0"

__all__ = [
    "DetectionConfig",
    "DetectionDiagnostics",
    "DetectionError",
    "DetectionResult",
    "FAMILY_NAMES",
    "SeriesSpec",
    "TimeSeries",
    "apply_filter",
    "autocorrelation",
    "baseline_periodogram",
    "design_butterworth_lowpass",
    "detect_season_length",
    "detrend_acf",
    "estimate_from_zeros",
    "find_zeros",
    "fit_polynomial",
    "gen_family",
    "generate",
    "interpolate_linear",
    "remove_trend",
    "select_trend_degree",
    "validate_series",
]
