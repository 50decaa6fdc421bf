"""Zero analysis of the detrended autocorrelation.

Adjacent zeros of a seasonal autocorrelation sit half a season apart.
find_zeros locates them in one pass over the lags. Real data adds and
drops zeros, so estimate_from_zeros cleans the zero-to-zero distances
in stages: distances of one lag or less are discarded (no season is
shorter than two observations), the survivors are sorted ascending,
and the sorted sequence is segmented wherever the ratio between
neighboring distances jumps. The longest stable segment is the set of
trustworthy distances; twice their mean is the season length. Distances
stay in upsampled lag units until that final average.
"""

from __future__ import annotations

import numpy as np

from seasonlen.core import DetectionDiagnostics, TimeSeries, _is_count, _shown

__all__ = ["find_zeros", "estimate_from_zeros"]

#: Lags per block of the zero pass: its products take 512 KiB.
_BLOCK = 1 << 16


def find_zeros(acf: TimeSeries, epsilon_rel: float) -> np.ndarray:
    """Locate the zeros of a detrended autocorrelation.

    Two detectors feed the result: sign changes between consecutive
    lags, placed at the linearly interpolated crossing point, and
    centers of maximal runs where the magnitude stays inside a
    tolerance band of epsilon_rel times the value range (finite
    precision rarely produces exact zeros). Candidates closer than half
    a lag collapse into their mean, and anything before lag 1 is
    dropped since the lag-0 peak always crosses the axis nearby.

    An empty result is a legal outcome, not an error.
    """
    if not epsilon_rel >= 0:
        raise ValueError(f"epsilon_rel must be >= 0, got {epsilon_rel}")
    return _find_zeros(acf.values, epsilon_rel)


def _find_zeros(v: np.ndarray, epsilon_rel: float) -> np.ndarray:
    """find_zeros on a plain array: after its range, one pass over blocks of _BLOCK lags."""
    tolerance = epsilon_rel * (v.max() - v.min())
    cross_idx, inside = [], []
    for i in range(0, v.size, _BLOCK):
        block = v[i:i + _BLOCK + 1]  # one lag past the block, for its last sign change
        cross_idx.append(np.flatnonzero(block[:-1] * block[1:] < 0.0) + i)
        inside.append(np.flatnonzero(np.abs(block[:_BLOCK]) <= tolerance) + i)
    cross_idx, inside = np.concatenate(cross_idx), np.concatenate(inside)
    crossings = cross_idx + v[cross_idx] / (v[cross_idx] - v[cross_idx + 1])

    # A run of in-band lags ends wherever the next one is more than a lag away.
    gap = np.diff(inside) > 1
    starts = np.concatenate((inside[:1], inside[1:][gap]))
    ends = np.concatenate((inside[:-1][gap], inside[-1:]))
    run_centers = (starts + ends) / 2.0

    candidates = np.sort(np.concatenate((crossings, run_centers)))
    candidates = candidates[candidates >= 1.0]
    if candidates.size == 0:
        return candidates

    # Cluster candidates whose spacing is <= 0.5 lag and keep the mean.
    boundaries = np.concatenate(([0], np.flatnonzero(np.diff(candidates) > 0.5) + 1))
    sums = np.add.reduceat(candidates, boundaries)
    counts = np.diff(np.concatenate((boundaries, [candidates.size])))
    return sums / counts


def _change_points(gamma: np.ndarray, k_quot: float) -> np.ndarray:
    """Indices where the quotient sequence changes regime.

    Each position i = 1..m (1-based, m >= 2 quotients) is classified by
    the first matching rule: the opening position marks index 1 when the
    first two quotients agree within k_quot; the final position always
    marks itself; a jump larger than k_quot between quotient i and i+1
    marks index i+1; everything else contributes nothing. The marks
    form a non-decreasing integer sequence; zeros are dropped and
    consecutive duplicates collapse, since the final-position rule can
    repeat the last jump mark and a zero-width interval would result.
    """
    m = gamma.size
    marks = np.zeros(m, dtype=np.int64)
    jump = np.abs(np.diff(gamma)) > k_quot
    positions = np.arange(2, m + 1)
    marks[:-1][jump] = positions[jump]
    if not jump[0]:
        marks[0] = 1
    marks[-1] = m
    nonzero = marks[marks != 0]
    keep = np.concatenate(([True], nonzero[1:] != nonzero[:-1]))
    return nonzero[keep]


def estimate_from_zeros(
    zeros: np.ndarray, quotient_threshold: float, interp_factor: int
) -> tuple[float | None, DetectionDiagnostics]:
    """Segment the distances between adjacent zeros and return the season estimate.

    The steps, in order: (1) the distances between adjacent zeros; (2)
    those longer than one lag, sorted ascending; (3) the quotient of
    each to the one before; (4) the _change_points of the quotients;
    (5) the widest gap (a, b] between consecutive change points, 1-based
    and half-open, so it holds the b-a distances at positions a+1..b; a
    tie goes to the earlier gap, which favors the smaller distances and
    hence the fundamental period over its multiples; (6) the season:
    twice the mean of those distances, divided by interp_factor to turn
    upsampled lags back into original sample counts.

    Steps 3 to 5 need three or more distances. With fewer, the window is
    (0, 1] for a single distance, or for two whose ratio exceeds 1 +
    quotient_threshold (the smaller one wins), and (0, 2] for two closer
    distances. No window means no season: no distance survived, or the
    change points collapsed to one. The returned record holds the
    distances, the change points and, only for a segmentation window,
    the interval.

    Raises:
        ValueError: quotient_threshold negative or NaN, interp_factor not
            a positive integer, or zeros not strictly ascending.
    """
    if not quotient_threshold >= 0:
        raise ValueError(f"quotient_threshold must be >= 0, got {quotient_threshold}")
    if not _is_count(interp_factor):
        raise ValueError(f"interp_factor must be a positive integer, got {_shown(interp_factor)}")
    raw = np.diff(np.asarray(zeros, dtype=np.float64))
    if not np.all(raw > 0):
        raise ValueError("zero positions must be strictly ascending")
    d = np.sort(raw[raw > 1.0])
    raw.flags.writeable = d.flags.writeable = False
    points = window = None
    if d.size >= 3:
        points = _change_points(d[1:] / d[:-1], quotient_threshold)
        points.flags.writeable = False
        if points.size >= 2:
            best = int(np.argmax(np.diff(points)))
            window = int(points[best]), int(points[best + 1])
    elif d.size == 2 and d[1] / d[0] - 1.0 <= quotient_threshold:
        window = (0, 2)
    elif d.size > 0:
        window = (0, 1)
    season = None
    if window is not None:
        a, b = window
        season = 2.0 * float(d[a:b].sum()) / (b - a) / interp_factor
    diagnostics = DetectionDiagnostics(
        zero_count=len(zeros),
        interval=window if points is not None else None,
        member_count=0 if window is None else window[1] - window[0],
        low_confidence=d.size == 1,
        raw_distances=raw,
        distances=d,
        change_points=points,
    )
    return season, diagnostics
