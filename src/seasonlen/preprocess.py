"""Linear upsampling and zero-phase low-pass smoothing.

Filtering runs forward and then backward over the series, so periodic
components keep their zero-crossing positions; a single causal pass
would drag zeros by a frequency-dependent lag and bias every distance
measured downstream. Each pass starts from the steady-state response to
its first sample, which suppresses the start-up transient that zero
initial conditions would inject at the series edges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from seasonlen.core import TimeSeries, TooShortError

__all__ = [
    "FilterSpec",
    "interpolate_linear",
    "design_butterworth_lowpass",
    "apply_filter",
    "magnitude_response",
]


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """A discrete-time recursive low-pass filter.

    Attributes:
        order: filter order.
        cutoff: half-power frequency in rad/sample.
        sos: second-order sections, one row [b0, b1, b2, 1, a1, a2] each;
            unlike one high-order polynomial pair, they stay well
            conditioned at any order and low cutoff.
    """

    order: int
    cutoff: float
    sos: np.ndarray


def interpolate_linear(series: TimeSeries, factor: int) -> TimeSeries:
    """Upsample by inserting equally spaced points between neighbors.

    The output has length factor*(n-1)+1; every original observation
    lands unchanged at an index that is a multiple of factor, and the
    inserted points lie on the straight line between their neighbors.
    A factor of 1 returns the input unchanged.
    """
    if factor != int(factor) or factor < 1:
        raise ValueError(f"interpolation factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return series
    x = series.values
    n = x.size
    out = np.empty(factor * (n - 1) + 1, dtype=np.float64)
    out[::factor] = x
    step = x[1:] - x[:-1]
    for offset in range(1, factor):
        out[offset::factor] = x[:-1] + (offset / factor) * step
    return TimeSeries(out, series.delta / factor)


@functools.lru_cache(maxsize=16)
def design_butterworth_lowpass(order: int, cutoff: float) -> FilterSpec:
    """Design a Butterworth low-pass with its half-power point at cutoff.

    The analog prototype is mapped to discrete time with the bilinear
    transform; pre-warping places the half-power point exactly at the
    requested frequency. The design is a pure function of its arguments
    and is memoised, so repeated calls with one (order, cutoff) return
    the same FilterSpec; its sos array is shared and must not be written.

    Raises:
        ValueError: order not a positive integer, or cutoff not strictly
            inside (0, pi).
    """
    if order < 1 or order != int(order):
        raise ValueError(f"order must be a positive integer, got {order}")
    if not 0.0 < cutoff < math.pi:
        raise ValueError(f"cutoff must lie in (0, pi), got {cutoff}")
    sos = signal.butter(int(order), cutoff / math.pi, output="sos")
    return FilterSpec(order=int(order), cutoff=float(cutoff), sos=sos)


def apply_filter(series: TimeSeries, spec: FilterSpec) -> TimeSeries:
    """Filter forward and backward for a zero-phase result.

    Output length equals input length. Each pass is seeded with the
    steady-state internal state for its first sample value, so the
    edges carry no spurious step transient. The series is filtered
    relative to its first sample, which the unit DC gain passes through
    unchanged; an offset many orders above the variation then costs no
    precision inside the recursion.

    Raises:
        TooShortError: fewer than 6*order+1 samples.
    """
    x = series.values
    if x.size <= 6 * spec.order:
        raise TooShortError(
            f"filter of order {spec.order} needs more than {6 * spec.order} samples, "
            f"got {x.size}"
        )
    out = signal.sosfiltfilt(spec.sos, x - x[0], padtype=None)
    out += x[0]
    return TimeSeries(out, series.delta)


def magnitude_response(spec: FilterSpec, omegas) -> np.ndarray:
    """Evaluate |H| of a single pass at the given frequencies (rad/sample)."""
    _, response = signal.sosfreqz(spec.sos, worN=np.asarray(omegas, dtype=np.float64))
    return np.abs(response)
