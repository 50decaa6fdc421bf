"""Linear upsampling and zero-phase low-pass smoothing.

Filtering runs forward and then backward over the series, so periodic
components keep their zero-crossing positions; a single causal pass
would drag zeros by a frequency-dependent lag and bias every distance
measured downstream. Each pass starts from the steady-state response to
its first sample, which suppresses the start-up transient that zero
initial conditions would inject at the series edges. The memoised
design (in core, re-exported here) solves that start state once.

Upsampling and both passes stream through the one output array in
cache-sized blocks, carrying the filter state between blocks, so only
a block or two is held beside it and every value is bit for bit that
of one whole-array pass.
"""

from __future__ import annotations

import numpy as np
from scipy import signal

from seasonlen.core import FilterSpec, TimeSeries, TooShortError, design_butterworth_lowpass
from seasonlen.core import _MAX_VALUES

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
    return TimeSeries(_smooth(series.values, factor), series.delta / factor)


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
    return TimeSeries(_smooth(series.values, 1, spec), series.delta)


#: Upsampled values per block of the streamed passes: 256 KiB, within L2.
_BLOCK = 1 << 15


def _smooth(x: np.ndarray, factor: int, spec: FilterSpec | None = None) -> np.ndarray:
    """x upsampled by factor into a new array, then filtered by spec unless it is None.

    Each block of _BLOCK // factor raw intervals is interpolated, centred
    on x[0] (whose steady state is then zero) and filtered forward from
    the state the previous block left, the first from rest. The backward
    pass walks the blocks from the end, from the steady state of the last
    forward value, and adds x[0] back. One block makes one call per pass.

    Raises:
        ValueError: the output would be longer than numpy can index.
        TooShortError: fewer than 6*order+1 values to filter.
    """
    factor, n = int(factor), x.size
    length = factor * (n - 1) + 1
    if length > _MAX_VALUES:
        raise ValueError(
            f"interp_factor {factor} upsamples {n} values to {length}, more than numpy can index"
        )
    if spec is not None and length <= 6 * spec.order:
        raise TooShortError(
            f"filter of order {spec.order} needs more than {6 * spec.order} samples, got {length}"
        )
    out = np.empty(length)
    per = max(1, _BLOCK // factor)
    # Raw intervals lo:hi of each block; the last block also holds x[-1].
    bounds = [(lo, min(lo + per, n - 1)) for lo in range(0, n - 1, per)]
    blocks = [out[lo * factor:hi * factor + (hi == n - 1)] for lo, hi in bounds]
    state = None if spec is None else np.zeros_like(spec.zi)
    for (lo, hi), block in zip(bounds, blocks):
        block[::factor] = x[lo:hi + (hi == n - 1)]
        step = x[lo + 1:hi + 1] - x[lo:hi]
        for offset in range(1, factor):
            inserted = block[offset::factor]
            np.multiply(step, offset / factor, out=inserted)
            inserted += x[lo:hi]
        if spec is not None:
            block -= x[0]
            block[...], state = signal.sosfilt(spec.sos, block, zi=state)
    if spec is not None:
        state = spec.zi * out[-1]
        for block in reversed(blocks):
            backward, state = signal.sosfilt(spec.sos, block[::-1], zi=state)
            np.add(backward[::-1], x[0], out=block)
    return out


def magnitude_response(spec: FilterSpec, omegas) -> np.ndarray:
    """Evaluate |H| of a single pass at the given frequencies (rad/sample)."""
    _, response = signal.sosfreqz(spec.sos, worN=np.asarray(omegas, dtype=np.float64))
    return np.abs(response)
