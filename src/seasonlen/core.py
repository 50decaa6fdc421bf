"""Domain types, configuration, the filter design, and the error taxonomy.

Every type in this module is an immutable value object. Input is
validated once, where it enters: TimeSeries checks the observations and
DetectionConfig the tuning constants, down to the filter design they
name (kept here, and re-exported by preprocess, for that check); after
that, detection checks only that the series is long enough, and works on
plain arrays it owns without re-validating them. Two checks of values it
computes anyway, the range of the filtered series and the peak of the
centred series the autocorrelation starts from, raise NonFiniteError
when huge input overflows. Stage functions that take a bare number or
array still check it, so each stays callable on its own; each wraps its
output in a new TimeSeries.

DetectionError means the input data is bad, and each subclass names a
condition a caller can act on. A bad argument raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "FilterSpec",
    "design_butterworth_lowpass",
    "validate_series",
    "MIN_DETECTION_LENGTH",
]

#: Shortest series on which detection may be attempted.
MIN_DETECTION_LENGTH = 4

#: Most float64 values one numpy array can index.
_MAX_VALUES = np.iinfo(np.intp).max // 8


class DetectionError(Exception):
    """Base class of the errors that mark bad input data."""


class TooShortError(DetectionError):
    """Series has too few observations for the requested operation."""


class NonFiniteError(DetectionError):
    """Series contains a NaN or an infinity."""

    def __init__(self, index: int) -> None:
        super().__init__(f"non-finite value at index {index}")
        self.index = index


def _nonfinite_error(values: np.ndarray) -> NonFiniteError:
    """NonFiniteError at the first NaN or infinity in values.

    Index 0 stands for a result that overflowed although every value
    behind it is finite, such as the range or the sum of huge values.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    return NonFiniteError(int(bad[0]) if bad.size else 0)


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


#: Longest row of the modal scan, 128 KiB of complex partial sums.
_ROW = 1 << 13


class FilterMode(NamedTuple):
    """One section of a FilterSpec, with the tables the modal scan runs on.

    The section keeps the state q_n = pole*q_{n-1} + residue*u_n and
    outputs direct*u_n + Re(q_{n-1}); steady = residue / (1 - pole) is
    its state in the steady-state response to a unit step, so a pass
    that starts at sample value v starts from steady * v.

    The scan cuts the values into rows of `row`, so few that
    |pole|**-row stays within 2**10 (the whole _ROW for a slower pole).
    Inside a row, u -> q is the weighted running sum q_j = down_j *
    cumsum(up * u)_j, with up_i = residue * pole**(h - i) and down_j =
    pole**(j - h) for the row's middle h, so no term strays further
    than about 2**5 from q itself. A row's state reaches it as lead =
    pole**(h + 1) in those weights and the next row as hop = pole**row.
    A real pole has real constants.
    """

    pole: complex | float
    residue: complex | float
    direct: float
    steady: complex | float
    row: int
    up: np.ndarray
    down: np.ndarray
    lead: complex | float
    hop: complex | float


def _mode(p, c, d: float, z) -> FilterMode:
    """The FilterMode of a section with pole p, residue c, direct term d and steady state z."""
    if p.imag == 0:
        p, c, z = p.real, c.real, z.real
    row = 1 if abs(p) < 2**-10 else min(_ROW, math.ceil(10 * math.log(2) / -math.log(abs(p))))
    half = row // 2
    down = np.power(p, np.arange(row) - half)
    up = c / down
    up.flags.writeable = down.flags.writeable = False
    return FilterMode(p, c, d, z, row, up, down, p ** (half + 1), p**row)


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """A discrete-time recursive low-pass filter, as cascaded sections.

    Each section has unit DC gain and zeros at z = -1. A section with a
    conjugate pole pair is run as one complex first-order mode, a real
    pole as a real one (see FilterMode).

    Attributes:
        order: filter order.
        cutoff: half-power frequency in rad/sample.
        sos: second-order sections, one row [b0, b1, b2, 1, a1, a2] each,
            the public description of the filter; an odd order ends with
            the first-order row [b0, b1, 0, 1, a1, 0].
        modes: one FilterMode per section, the upper pole of its pair or
            its real pole, in the order of sos.
    """

    order: int
    cutoff: float
    sos: np.ndarray
    modes: tuple[FilterMode, ...]


def _shown(value) -> str:
    """value as text, cut short so that a huge number cannot flood a message."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:12]}... ({len(text)} characters)"


@functools.lru_cache(maxsize=16)
def design_butterworth_lowpass(order: int, cutoff: float) -> FilterSpec:
    """Design a Butterworth low-pass with its half-power point at cutoff.

    The analog prototype's poles, on a circle of radius tan(cutoff / 2)
    (the pre-warping that puts the half-power point exactly at cutoff),
    are mapped to discrete time by the bilinear transform z = (1 + s) /
    (1 - s); every zero lands on z = -1. Each section's residue, direct
    term and steady state are worked out from its pole as rounded, so
    the filter that runs has unit DC gain to rounding. The design is
    memoised, with the tables the scan runs on: repeated calls with one
    (order, cutoff) return the same FilterSpec, whose arrays are
    read-only.

    Raises:
        ValueError: order not a positive integer or too large to
            allocate, cutoff not inside (0, pi), or a design the filter
            cannot run: a pole that rounds onto the unit circle (cutoffs
            near 0 or pi), a non-finite constant, or a DC gain off 1 by
            more than 1e-6.
    """
    if order < 1 or order != int(order):
        raise ValueError(f"order must be a positive integer, got {_shown(order)}")
    if not 0.0 < cutoff < math.pi:
        raise ValueError(f"cutoff must lie in (0, pi), got {cutoff}")
    n, named = int(order), f"order {_shown(order)} at cutoff {cutoff}"
    try:
        pairs = np.arange(n // 2)
    except (ValueError, MemoryError):
        raise ValueError(f"order {_shown(order)} is too large to allocate") from None
    radius = math.tan(cutoff / 2)
    with np.errstate(all="ignore"):
        s = radius * np.exp(1j * np.pi * (2 * pairs + n + 1) / (2 * n))
        poles = np.append((1 + s) / (1 - s), [(1 - radius) / (1 + radius)] * (n % 2))
        gap = 1 - poles
        direct = np.abs(gap) ** 2 / 4
        residues = direct * (1 + poles) ** 2 / (1j * poles.imag)
        if n % 2:
            direct[-1] = gap[-1].real / 2
            residues[-1] = direct[-1] * (1 + poles[-1])
        steady = residues / gap
        dc = np.prod(direct + steady.real)
    if not np.all(np.abs(poles) < 1):
        raise ValueError(f"{named} has no steady state: a pole rounds onto the unit circle")
    if not (np.all(np.isfinite(residues)) and np.all(np.isfinite(steady))):
        raise ValueError(f"{named} has a non-finite design")
    if not abs(dc - 1.0) <= 1e-6:
        raise ValueError(f"{named} has DC gain {dc:.6g}, not 1")
    sos = np.zeros((poles.size, 6))
    sos[:, 0], sos[:, 1], sos[:, 2] = direct, 2 * direct, direct
    sos[:, 3], sos[:, 4], sos[:, 5] = 1.0, -2 * poles.real, np.abs(poles) ** 2
    if n % 2:
        sos[-1, 1:] = direct[-1], 0.0, 1.0, -poles[-1].real, 0.0
    sos.flags.writeable = False
    modes = map(_mode, poles.tolist(), residues.tolist(), direct.tolist(), steady.tolist())
    return FilterSpec(n, float(cutoff), sos, tuple(modes))


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
            detrended autocorrelation's value range; must lie in [0, 0.5).
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
        for name in ("interp_factor", "filter_order", "min_zero_count"):
            value = getattr(self, name)  # a bool is not a count; float() of a huge int overflows
            whole = isinstance(value, (int, np.integer)) or float(value).is_integer()
            if isinstance(value, (bool, np.bool_)) or not whole or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {_shown(value)}")
        if (MIN_DETECTION_LENGTH - 1) * int(self.interp_factor) + 1 > _MAX_VALUES:
            raise ValueError(
                f"interp_factor upsamples {MIN_DETECTION_LENGTH} values past what numpy can index"
            )
        try:
            design_butterworth_lowpass(self.filter_order, self.filter_cutoff)
        except ValueError as exc:
            raise ValueError(f"filter_order, filter_cutoff: {exc}") from None
        if math.isnan(self.trend_log_threshold):
            raise ValueError("trend_log_threshold must be a number, got nan")
        if not 0.0 < self.quotient_threshold < 1.0:
            raise ValueError(
                f"quotient_threshold must lie in (0, 1), got {self.quotient_threshold}"
            )
        # From half the range the band can hold every lag and adds a zero.
        if not 0.0 <= self.zero_tolerance_rel < 0.5:
            raise ValueError(
                f"zero_tolerance_rel must lie in [0, 0.5), got {self.zero_tolerance_rel}"
            )


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
