"""Zero analysis of the detrended autocorrelation.

Adjacent zeros of a seasonal autocorrelation sit half a season apart.
Real data adds and drops zeros, so the raw zero-to-zero distances are
cleaned in stages: distances of one lag or less are discarded (no
season is shorter than two observations), the survivors are sorted
ascending, and the sorted sequence is segmented wherever the ratio
between neighboring distances jumps. The longest stable segment is the
set of trustworthy distances; twice their mean is the season length.

The zeros come from one pass over the lags. Distances are measured in
upsampled lag units throughout and converted back to original sample
counts only in the final averaging step.
"""

from __future__ import annotations

import numpy as np

from seasonlen.core import DetectionDiagnostics, TimeSeries

__all__ = [
    "find_zeros",
    "zero_distances",
    "quotients",
    "change_points",
    "select_interval",
    "season_from_interval",
    "estimate_from_zeros",
]


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
    if epsilon_rel < 0:
        raise ValueError(f"epsilon_rel must be >= 0, got {epsilon_rel}")
    return _find_zeros(acf.values, epsilon_rel)


def _find_zeros(v: np.ndarray, epsilon_rel: float) -> np.ndarray:
    """find_zeros on a plain array of autocorrelation values, in one pass over the lags."""
    tolerance = epsilon_rel * (v.max() - v.min())

    cross_idx = np.flatnonzero(v[:-1] * v[1:] < 0.0)
    crossings = cross_idx + v[cross_idx] / (v[cross_idx] - v[cross_idx + 1])

    # In-band lags (two comparisons: no float temporary of v's size); a run
    # of them ends wherever the next one is more than a lag away.
    inside = np.flatnonzero((v >= -tolerance) & (v <= tolerance))
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


def zero_distances(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances between adjacent zeros, raw and cleaned.

    Returns the consecutive differences and, separately, the ascending
    sort of those that exceed one lag; shorter gaps would imply a
    season of fewer than two observations and are discarded.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size > 1 and not np.all(np.diff(alpha) > 0):
        raise ValueError("zero positions must be strictly ascending")
    raw = np.diff(alpha)
    cleaned = np.sort(raw[raw > 1.0])
    return raw, cleaned


def quotients(distances: np.ndarray) -> np.ndarray:
    """Ratios between consecutive sorted distances.

    On an ascending input every ratio is >= 1; values near 1 mark runs
    of nearly equal distances, larger values mark jumps.

    Raises:
        ValueError: fewer than two distances.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.size < 2:
        raise ValueError(f"need at least 2 distances, got {distances.size}")
    return distances[1:] / distances[:-1]


def change_points(gamma: np.ndarray, k_quot: float) -> np.ndarray:
    """Indices where the quotient sequence changes regime.

    Each position i = 1..m (1-based, m quotients) is classified by the
    first matching rule: the opening position marks index 1 when the
    first two quotients agree within k_quot; the final position always
    marks itself; a jump larger than k_quot between quotient i and i+1
    marks index i+1; everything else contributes nothing. The marks
    form a non-decreasing integer sequence; zeros are dropped and
    consecutive duplicates collapse, since the final-position rule can
    repeat the last jump mark and a zero-width interval would result.

    Raises:
        ValueError: fewer than two quotients.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    m = gamma.size
    if m < 2:
        raise ValueError(f"need at least 2 quotients, got {m}")
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


def select_interval(points: np.ndarray, distances: np.ndarray) -> tuple[int, int]:
    """Bounds of the longest run of stable distances.

    Picks the widest gap between consecutive change points; ties go to
    the earlier gap, which favors the smaller distances and hence the
    fundamental period over its multiples. The returned pair (a, b) is
    1-based and half-open: members are the distances at positions
    a+1..b, exactly b-a of them.

    Raises:
        ValueError: fewer than two change points, or bounds that do not
            fit the distances.
    """
    points = np.asarray(points, dtype=np.int64)
    if points.size < 2:
        raise ValueError(f"need at least 2 change points, got {points.size}")
    gaps = np.diff(points)
    best = int(np.argmax(gaps))
    a = int(points[best])
    b = int(points[best + 1])
    if not 1 <= a < b <= np.asarray(distances).size:
        raise ValueError(f"interval ({a}, {b}] does not fit {len(distances)} distances")
    return a, b


def season_from_interval(
    distances: np.ndarray, a: int, b: int, interp_factor: int
) -> float:
    """Season length from the selected distances.

    Averages the b-a members of the half-open selection (a, b], doubles
    the mean (zeros sit half a season apart), and converts from
    upsampled lag units back to original sample counts.
    """
    distances = np.asarray(distances, dtype=np.float64)
    window = distances[a:b]
    return 2.0 * float(window.sum()) / (b - a) / interp_factor


def estimate_from_zeros(
    zeros: np.ndarray, quotient_threshold: float, interp_factor: int
) -> tuple[float | None, DetectionDiagnostics]:
    """Run the distance segmentation and return the season estimate.

    Every estimate is season_from_interval over one window (a, b] of the
    sorted surviving distances: (0, 1] for a single distance, or for two
    whose ratio exceeds 1 + quotient_threshold (the smaller one wins);
    (0, 2] for two closer distances; and the select_interval run of the
    quotient segmentation for three or more. No window means no season:
    no distance survived, or the change points collapsed to one. The
    returned record holds the distances, the change points and, only
    for a segmentation window, the interval.
    """
    raw, cleaned = zero_distances(zeros)
    raw.flags.writeable = cleaned.flags.writeable = False
    points = None
    window = None
    if cleaned.size >= 3:
        points = change_points(quotients(cleaned), quotient_threshold)
        points.flags.writeable = False
        if points.size >= 2:
            window = select_interval(points, cleaned)
    elif cleaned.size == 2 and quotients(cleaned)[0] - 1.0 <= quotient_threshold:
        window = (0, 2)
    elif cleaned.size > 0:
        window = (0, 1)
    season = None if window is None else season_from_interval(cleaned, *window, interp_factor)
    diagnostics = DetectionDiagnostics(
        zero_count=len(zeros),
        interval=window if points is not None else None,
        member_count=0 if window is None else window[1] - window[0],
        low_confidence=cleaned.size == 1,
        raw_distances=raw,
        distances=cleaned,
        change_points=points,
    )
    return season, diagnostics
