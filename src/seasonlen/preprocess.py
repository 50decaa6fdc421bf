"""Linear upsampling and zero-phase low-pass smoothing.

Filtering runs forward and then backward over the series, so periodic
components keep their zero-crossing positions; a single causal pass
would drag zeros by a frequency-dependent lag and bias every distance
measured downstream. Each pass starts from the steady-state response to
its first sample, which suppresses the start-up transient that zero
initial conditions would inject at the series edges. The memoised
design (in core, re-exported here) solves that start state once.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from seasonlen.core import FilterSpec, TimeSeries, TooShortError, design_butterworth_lowpass

__all__ = [
    "FilterSpec",
    "interpolate_linear",
    "design_butterworth_lowpass",
    "apply_filter",
    "magnitude_response",
]


def interpolate_linear(series: TimeSeries, factor: int) -> TimeSeries:
    """Upsample by inserting equally spaced points between neighbors.

    The output has length factor*(n-1)+1; every original observation
    lands unchanged at an index that is a multiple of factor, and the
    inserted points lie on the straight line between their neighbors.
    A factor of 1 returns the input unchanged.
    """
    if factor != int(factor) or factor < 1:
        raise ValueError(f"interpolation factor must be a positive integer, got {factor}")
    if factor == 1:
        return series
    return TimeSeries(_upsample(series.values, int(factor)), series.delta / factor)


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """interpolate_linear on a plain array, always into a new array the caller owns."""
    if factor == 1:
        return x.copy()
    n = x.size
    out = np.empty(factor * (n - 1) + 1, dtype=np.float64)
    out[::factor] = x
    step = x[1:] - x[:-1]
    for offset in range(1, factor):
        inserted = out[offset::factor]
        np.multiply(step, offset / factor, out=inserted)
        inserted += x[:-1]
    return out


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
    values = series.values.copy()
    _filter_in_place(values, spec)
    return TimeSeries(values, series.delta)


def _filter_in_place(x: np.ndarray, spec: FilterSpec) -> None:
    """apply_filter on a plain array, overwriting it with the filtered values.

    Centred on its first sample, whose steady state is then zero, x is
    filtered forward from rest and backward from the steady state of the
    forward pass's last value. The result is copied back into x, so it is
    C-contiguous, which keeps later einsum sums identical to those over
    a fresh array.

    Raises:
        TooShortError: fewer than 6*order+1 samples.
    """
    if x.size <= 6 * spec.order:
        raise TooShortError(
            f"filter of order {spec.order} needs more than {6 * spec.order} samples, "
            f"got {x.size}"
        )
    first = x[0]
    x -= first
    forward = signal.sosfilt(spec.sos, x)
    backward, _ = signal.sosfilt(spec.sos, forward[::-1], zi=spec.zi * forward[-1])
    np.add(backward[::-1], first, out=x)


def magnitude_response(spec: FilterSpec, omegas) -> np.ndarray:
    """Evaluate |H| of a single pass at the given frequencies (rad/sample)."""
    _, response = signal.sosfreqz(spec.sos, worN=np.asarray(omegas, dtype=np.float64))
    return np.abs(response)
