"""Domain types, configuration, and the shared error taxonomy.

Every type in this module is an immutable value object. Input is
validated once, where it enters: TimeSeries checks the observations and
DetectionConfig the tuning constants; after that, detection checks only
that the series is long enough. Stage functions that take a bare number
or array still check it, so each stays callable on its own.

DetectionError means the input data is bad, and each subclass names a
condition a caller can act on. A bad argument raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DetectionError",
    "TooShortError",
    "NonFiniteError",
    "NonPositiveDeltaError",
    "ZeroVarianceError",
    "TimeSeries",
    "DetectionConfig",
    "DetectionDiagnostics",
    "DetectionResult",
    "validate_series",
    "MIN_DETECTION_LENGTH",
]

#: Shortest series on which detection may be attempted.
MIN_DETECTION_LENGTH = 4


class DetectionError(Exception):
    """Base class of the errors that mark bad input data."""


class TooShortError(DetectionError):
    """Series has too few observations for the requested operation."""


class NonFiniteError(DetectionError):
    """Series contains a NaN or an infinity."""

    def __init__(self, index: int) -> None:
        super().__init__(f"non-finite value at index {index}")
        self.index = index


class NonPositiveDeltaError(DetectionError):
    """Sampling interval is zero, negative, or not finite."""


class ZeroVarianceError(DetectionError):
    """Constant series has no correlation structure to analyze."""


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A uniformly sampled sequence of real observations.

    Attributes:
        values: observations as a read-only float64 array.
        delta: sampling interval; used only to scale the reported season
            length, never inside the analysis itself.
    """

    values: np.ndarray
    delta: float = 1.0

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise DetectionError(
                f"observations must form a one-dimensional sequence, got shape {arr.shape}"
            )
        if arr.size < 2:
            raise TooShortError(f"need at least 2 observations, got {arr.size}")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise NonFiniteError(int(bad[0]))
        delta = float(self.delta)
        if not (delta > 0) or not math.isfinite(delta):
            raise NonPositiveDeltaError(f"sampling interval must be positive, got {self.delta}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "delta", delta)

    def __len__(self) -> int:
        return int(self.values.size)


def validate_series(raw, delta: float = 1.0) -> TimeSeries:
    """Validate raw observations for detection and wrap them.

    Args:
        raw: sequence of real observations.
        delta: positive sampling interval.

    Returns:
        A TimeSeries long enough for detection.

    Raises:
        DetectionError: the observations are not one-dimensional.
        TooShortError: fewer than 4 observations.
        NonFiniteError: a NaN or infinity is present.
        NonPositiveDeltaError: non-positive or non-finite interval.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim == 1 and arr.size < MIN_DETECTION_LENGTH:
        raise TooShortError(
            f"detection needs at least {MIN_DETECTION_LENGTH} observations, got {arr.size}"
        )
    return TimeSeries(arr, delta)


@dataclass(frozen=True)
class DetectionConfig:
    """Tuning constants of the detection pipeline.

    The defaults are the constants the method was calibrated with: a
    second-order low-pass with cutoff 0.001*pi radians per sample of the
    upsampled signal, a threshold of e**2 on the log of the trend cost
    gap, and a 0.5 threshold on jumps between distance quotients.

    Attributes:
        interp_factor: upsampling ratio; output length is
            interp_factor * (n - 1) + 1.
        filter_order: order of the Butterworth low-pass.
        filter_cutoff: half-power frequency in rad/sample of the
            upsampled signal (Nyquist corresponds to pi).
        trend_log_threshold: quadratic trend is assumed when the log of
            the summed squared-error gap between the linear and the
            quadratic fit exceeds this value.
        zero_tolerance_rel: zero tolerance band, as a fraction of the
            detrended autocorrelation's value range.
        quotient_threshold: jump size between consecutive distance
            quotients that starts a new segment; must lie in (0, 1).
        min_zero_count: fewest autocorrelation zeros required before a
            season is reported.
    """

    interp_factor: int = 4
    filter_order: int = 2
    filter_cutoff: float = 0.001 * math.pi
    trend_log_threshold: float = math.e**2
    zero_tolerance_rel: float = 1e-4
    quotient_threshold: float = 0.5
    min_zero_count: int = 3

    def __post_init__(self) -> None:
        if not (float(self.interp_factor).is_integer() and self.interp_factor >= 1):
            raise ValueError(f"interp_factor must be an integer >= 1, got {self.interp_factor}")
        if not (float(self.filter_order).is_integer() and self.filter_order >= 1):
            raise ValueError(f"filter_order must be an integer >= 1, got {self.filter_order}")
        if not 0.0 < self.filter_cutoff < math.pi:
            raise ValueError(f"filter_cutoff must lie in (0, pi), got {self.filter_cutoff}")
        if not 0.0 < self.quotient_threshold < 1.0:
            raise ValueError(
                f"quotient_threshold must lie in (0, 1), got {self.quotient_threshold}"
            )
        if self.zero_tolerance_rel < 0.0:
            raise ValueError(f"zero_tolerance_rel must be >= 0, got {self.zero_tolerance_rel}")
        if self.min_zero_count < 1:
            raise ValueError(f"min_zero_count must be >= 1, got {self.min_zero_count}")


@dataclass(frozen=True)
class DetectionDiagnostics:
    """Summary of the zero analysis behind a detection outcome.

    Attributes:
        zero_count: number of zeros found in the detrended autocorrelation.
        interval: 1-based half-open bounds (a, b] of the selected distance
            run, or None when segmentation was not reached or not needed.
        member_count: number of distances averaged into the estimate.
        low_confidence: True when the estimate rests on a single distance.
    """

    zero_count: int = 0
    interval: tuple[int, int] | None = None
    member_count: int = 0
    low_confidence: bool = False


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a detection run.

    A series without detectable seasonality yields season_length None;
    that is a regular result, not an error.

    Attributes:
        season_length: season length scaled by the sampling interval,
            or None for the no-season outcome.
        unscaled_length: season length in original sample counts.
        trend_degree: polynomial degree removed before correlation.
        diagnostics: summary of the zero analysis.
    """

    season_length: float | None
    unscaled_length: float | None
    trend_degree: int
    diagnostics: DetectionDiagnostics = DetectionDiagnostics()

    @property
    def is_seasonal(self) -> bool:
        return self.unscaled_length is not None
