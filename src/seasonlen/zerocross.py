"""Zero analysis of the detrended autocorrelation.

Adjacent zeros of a seasonal autocorrelation sit half a season apart.
Real data adds and drops zeros, so the raw zero-to-zero distances are
cleaned in stages: distances of one lag or less are discarded (no
season is shorter than two observations), the survivors are sorted
ascending, and the sorted sequence is segmented wherever the ratio
between neighboring distances jumps. The longest stable segment is the
set of trustworthy distances; twice their mean is the season length.

Distances are measured in upsampled lag units throughout and converted
back to original sample counts only in the final averaging step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seasonlen.core import TimeSeries

__all__ = [
    "ZeroAnalysis",
    "find_zeros",
    "zero_distances",
    "quotients",
    "change_points",
    "select_interval",
    "season_from_interval",
    "estimate_from_zeros",
]


@dataclass(frozen=True, eq=False)
class ZeroAnalysis:
    """Intermediate products of the distance segmentation.

    Attributes:
        zeros: ascending zero positions, in upsampled lag units.
        raw_distances: differences between consecutive zeros.
        distances: ascending survivors after discarding distances <= 1.
        quotients: ratios between consecutive sorted distances, or None
            when fewer than two distances survived.
        change_points: indices where the quotient sequence jumps (1-based
            into distances), or None when segmentation was not reached.
        interval: selected half-open bounds (a, b], 1-based into
            distances, or None.
        member_count: number of distances behind the final estimate.
        low_confidence: True when only a single distance survived.
    """

    zeros: np.ndarray
    raw_distances: np.ndarray
    distances: np.ndarray
    quotients: np.ndarray | None = None
    change_points: np.ndarray | None = None
    interval: tuple[int, int] | None = None
    member_count: int = 0
    low_confidence: bool = False


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
    v = acf.values
    tolerance = epsilon_rel * (v.max() - v.min())

    product = v[:-1] * v[1:]
    cross_idx = np.flatnonzero(product < 0.0)
    crossings = cross_idx + v[cross_idx] / (v[cross_idx] - v[cross_idx + 1])

    inside = np.abs(v) <= tolerance
    edges = np.diff(inside.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1)
    if inside[0]:
        starts = np.concatenate(([0], starts))
    if inside[-1]:
        ends = np.concatenate((ends, [v.size - 1]))
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
) -> tuple[float | None, ZeroAnalysis]:
    """Run the distance segmentation and return the season estimate.

    Handles the degenerate inputs the segmentation itself cannot: no
    surviving distance means no season; a single distance yields a
    low-confidence doubling; two distances are averaged when their
    ratio stays within the quotient threshold of 1, otherwise the
    smaller one wins. Three or more distances go through the full
    quotient segmentation; if that collapses to a single change point
    there is no stable interval and no season is reported.
    """
    raw, cleaned = zero_distances(zeros)
    if cleaned.size == 0:
        return None, ZeroAnalysis(zeros, raw, cleaned)
    if cleaned.size == 1:
        season = 2.0 * float(cleaned[0]) / interp_factor
        analysis = ZeroAnalysis(
            zeros, raw, cleaned, member_count=1, low_confidence=True
        )
        return season, analysis
    if cleaned.size == 2:
        ratio = quotients(cleaned)
        if ratio[0] - 1.0 <= quotient_threshold:
            season = 2.0 * float(cleaned.sum()) / 2.0 / interp_factor
            members = 2
        else:
            season = 2.0 * float(cleaned[0]) / interp_factor
            members = 1
        analysis = ZeroAnalysis(zeros, raw, cleaned, quotients=ratio, member_count=members)
        return season, analysis
    ratios = quotients(cleaned)
    points = change_points(ratios, quotient_threshold)
    if points.size < 2:
        analysis = ZeroAnalysis(
            zeros, raw, cleaned, quotients=ratios, change_points=points
        )
        return None, analysis
    a, b = select_interval(points, cleaned)
    season = season_from_interval(cleaned, a, b, interp_factor)
    analysis = ZeroAnalysis(
        zeros,
        raw,
        cleaned,
        quotients=ratios,
        change_points=points,
        interval=(a, b),
        member_count=b - a,
    )
    return season, analysis
