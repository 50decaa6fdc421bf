"""Linear upsampling, the Butterworth design, and zero-phase low-pass smoothing.

Filtering runs forward and then backward over the series, so periodic
components keep their zero-crossing positions; a single causal pass
would drag zeros by a frequency-dependent lag and bias every distance
measured downstream. Each pass starts from the steady-state response to
its first sample, which suppresses the start-up transient that zero
initial conditions would inject at the series edges. The memoised
design holds that start state per section, with the tables the scan
runs on.

Each section runs as a first-order modal recurrence q_n = p*q_{n-1} +
c*u_n, which numpy evaluates without a loop per value: within a row of
values it is a running sum of u_i * p**-i scaled back by p**j, and the
state each row starts from is carried over from the rows before it.
Rows are cut short enough that |p|**-row stays within 2**10; the
scaling is centred on each row, so it costs about 2**5 of float range.

Smoothing upsamples into one output array, then runs each section over
all of it once forward and once backward; the scan works through it a
cache-sized block at a time, so only that block's rows sit beside it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from seasonlen.core import _MAX_VALUES, TimeSeries, TooShortError, _exponent, _is_count, _shown

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
    A factor of 1 returns the input unchanged. A difference between
    neighbours overflows only from 2**1023 up, so values that reach it
    are halved first, which can move an inserted point below 2**-1021
    by its last bit; the observations are copied from the input.
    """
    if not _is_count(factor):
        raise ValueError(f"interpolation factor must be a positive integer, got {factor}")
    if factor == 1:
        return series
    x = series.values
    e = max(_exponent(x.max(), x.min()) - 1023, 0)
    values = _smooth(np.ldexp(x, -e), factor)
    np.ldexp(values, e, out=values)
    values[::factor] = x
    return TimeSeries(values, series.delta / factor)


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


@functools.lru_cache(maxsize=16, typed=True)  # untyped, True would find the design for 1
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
    if not _is_count(order):
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


def apply_filter(series: TimeSeries, spec: FilterSpec) -> TimeSeries:
    """Filter forward and backward for a zero-phase result.

    Output length equals input length. Each pass is seeded with the
    steady-state internal state for its first sample value, so the
    edges carry no spurious step transient. The series is filtered
    relative to its first sample, which the unit DC gain passes through
    unchanged; an offset many orders above the variation then costs no
    precision inside the recursion. It runs on the values scaled as in
    detect_season_length, so no finite input overflows its sums.

    Raises:
        TooShortError: fewer than 6*order+1 samples.
        OverflowError: the filtered series overshoots the float maximum,
            as a step between values near it can.
    """
    x = series.values
    e = _exponent(x.max(), x.min())
    values = _smooth(np.ldexp(x, -e), 1, spec)
    if _exponent(values.max(), values.min()) + e > 1024:
        raise OverflowError(
            f"filter of order {spec.order} at cutoff {spec.cutoff} overshoots"
            f" the float maximum {np.finfo(np.float64).max}"
        )
    return TimeSeries(np.ldexp(values, e, out=values), series.delta)


#: Values per block of the upsampling and of the scan: 256 KiB, within L2.
_BLOCK = 1 << 15

#: Carry factor below which a row's state no longer reaches later rows.
_NEGLIGIBLE = 2.0**-64


def _scan(u: np.ndarray, carry, mode: FilterMode):
    """Run one section over u in place, from state carry; return the state after u.

    u is taken _BLOCK values at a time from its start, and each block's
    rows are scanned at once in one work array; the state each row
    starts from is its predecessor's carried on by hop = p**row, summed
    over rows by recursive doubling, which stops once hop**k falls below
    _NEGLIGIBLE.
    """
    row = mode.row
    work = np.empty(-(-min(u.size, _BLOCK) // row) * row, mode.up.dtype)
    for start in range(0, u.size, _BLOCK):
        chunk = u[start:start + _BLOCK]
        n = chunk.size
        full = n - n % row
        rows = work[:-(-n // row) * row].reshape(-1, row)
        np.multiply(chunk[:full].reshape(-1, row), mode.up, out=rows[:full // row])
        if full < n:
            np.multiply(chunk[full:], mode.up[:n - full], out=rows[-1, :n - full])
            rows[-1, n - full:] = 0
        np.cumsum(rows, axis=1, out=rows)
        carries = np.empty(rows.shape[0], rows.dtype)
        carries[0] = carry
        np.multiply(rows[:-1, -1], mode.down[-1], out=carries[1:])
        shift, hop = 1, mode.hop
        while shift < carries.size and abs(hop) > _NEGLIGIBLE:
            carries[shift:] += hop * carries[:-shift]
            shift, hop = 2 * shift, hop * hop
        rows += (mode.lead * carries)[:, None]
        rows *= mode.down
        states = rows.reshape(-1)
        chunk *= mode.direct
        chunk[1:] += states.real[:n - 1]
        chunk[0] += carry.real
        carry = states[n - 1]
    return carry


def _smooth(x: np.ndarray, factor: int, spec: FilterSpec | None = None, size=0) -> np.ndarray:
    """x upsampled by factor into a new array, then filtered by spec unless it is None.

    The array is at least size values long; those past factor*(n-1)+1 are left unset.

    The upsampling fills _BLOCK // factor raw intervals at a time; to
    filter, each block is centred on x[0], whose steady state is then
    zero. Each section runs forward over the whole array from rest, then
    backward from the steady state of the last forward value, and x[0]
    is added back.

    Raises:
        ValueError: the output would be longer than numpy can index or
            than can be allocated.
        TooShortError: fewer than 6*order+1 values to filter.
    """
    factor, n = int(factor), x.size
    length = factor * (n - 1) + 1
    upsampled = f"interp_factor {factor} upsamples {n} values to {length}"
    if length > _MAX_VALUES:
        raise ValueError(f"{upsampled}, more than numpy can index")
    if spec is not None and length <= 6 * spec.order:
        raise TooShortError(
            f"filter of order {spec.order} needs more than {6 * spec.order} samples, got {length}"
        )
    try:
        buffer = np.empty(max(length, size))
    except MemoryError:
        raise ValueError(f"{upsampled}, more than can be allocated") from None
    out = buffer[:length]
    per = max(1, _BLOCK // factor)
    for lo in range(0, n - 1, per):
        hi = min(lo + per, n - 1)  # raw intervals lo:hi; the last block also holds x[-1]
        block = out[lo * factor:hi * factor + (hi == n - 1)]
        block[::factor] = x[lo:hi + (hi == n - 1)]
        step = x[lo + 1:hi + 1] - x[lo:hi]
        for offset in range(1, factor):
            inserted = block[offset::factor]
            np.multiply(step, offset / factor, out=inserted)
            inserted += x[lo:hi]
        if spec is not None:
            block -= x[0]
    if spec is not None:
        for mode in spec.modes:
            _scan(out, 0.0, mode)
        last = out[-1]
        for mode in spec.modes:
            _scan(out[::-1], mode.steady * last, mode)
        out += x[0]
    return buffer


def magnitude_response(spec: FilterSpec, omegas) -> np.ndarray:
    """Evaluate |H| of a single pass at the given frequencies (rad/sample)."""
    w = np.exp(-1j * np.asarray(omegas, dtype=np.float64))[..., None] ** np.arange(3)
    return np.abs(np.prod((w @ spec.sos[:, :3].T) / (w @ spec.sos[:, 3:].T), axis=-1))
