"""Seeded synthetic benchmark series with known season lengths.

Seven families cover the evaluation axes: widely varied but clean
seasonality, corrupted seasonality (outliers, drifting amplitude,
broken cycles), ambiguous cases with more than one acceptable answer,
base series under small variations, a noise ladder, a period sweep,
and series with no season at all.

All randomness flows through the Philox 4x64 counter-based generator
keyed by the case seed, so every case is bit-identical across runs and
platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from seasonlen.core import TimeSeries, validate_series
from seasonlen.pipeline import is_repetition_of_shorter

__all__ = ["SeriesSpec", "generate", "gen_family", "FAMILY_NAMES", "FAMILY_SIZES"]

PATTERNS = ("sinusoid", "tile", "two_sinusoids")

FAMILY_NAMES = (
    "Diverse",
    "Complex",
    "Ambiguous",
    "Variations",
    "Noise",
    "Length",
    "NoSeason",
)

#: Case counts per family; the last three are fixed at 10 by convention.
FAMILY_SIZES = {
    "Diverse": 20,
    "Complex": 20,
    "Ambiguous": 20,
    "Variations": 20,
    "Noise": 10,
    "Length": 10,
    "NoSeason": 10,
}


@dataclass(frozen=True)
class SeriesSpec:
    """Recipe for one synthetic series.

    Attributes:
        pattern: seasonal waveform kind, one of "sinusoid", "tile" (an
            explicit repeating block), or "two_sinusoids".
        length: number of observations.
        seed: key of the Philox generator driving all randomness.
        period: reference season length; None for a non-seasonal spec.
        amplitude: scale of the seasonal component; also the unit in
            which noise and outlier sizes are expressed.
        tile: the repeating block when pattern is "tile"; its length
            must equal the period.
        second_period: period of the secondary sinusoid for
            "two_sinusoids".
        second_amplitude: amplitude of the secondary sinusoid.
        trend_degree: 0, 1, or 2.
        trend_coefficients: polynomial coefficients, constant first;
            degree 0 may carry a single constant offset.
        noise_sigma: Gaussian noise level relative to the amplitude.
        outlier_count: number of spike outliers injected.
        outlier_magnitude: spike size in amplitude units.
        amplitude_drift: per-cycle gain applied to the seasonal part.
        season_outlier_cycles: cycles whose waveform is scrambled.
    """

    pattern: str
    length: int
    seed: int
    period: float | None = None
    amplitude: float = 1.0
    tile: tuple[float, ...] | None = None
    second_period: float | None = None
    second_amplitude: float = 0.0
    trend_degree: int = 0
    trend_coefficients: tuple[float, ...] = ()
    noise_sigma: float = 0.0
    outlier_count: int = 0
    outlier_magnitude: float = 0.0
    amplitude_drift: float = 1.0
    season_outlier_cycles: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.length < 4:
            raise ValueError(f"length must be >= 4, got {self.length}")
        if self.period is not None:
            if self.period < 2:
                raise ValueError(f"season length must be >= 2, got {self.period}")
            if self.length < 4 * self.period:
                raise ValueError(
                    f"length {self.length} gives fewer than 4 cycles of period {self.period}"
                )
        if self.pattern == "tile" and (self.tile is None or self.period != len(self.tile)):
            raise ValueError("tile pattern needs a block whose length is the period")
        if self.pattern == "two_sinusoids" and self.period is not None and self.second_period is None:
            raise ValueError("two_sinusoids needs a second period")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.outlier_count < 0:
            raise ValueError("outlier count cannot be negative")
        if self.outlier_count >= self.length / 10:
            raise ValueError("outlier count must stay below a tenth of the length")
        if self.trend_degree not in (0, 1, 2):
            raise ValueError(f"trend degree must be 0, 1, or 2, got {self.trend_degree}")
        if self.trend_degree and len(self.trend_coefficients) != self.trend_degree + 1:
            raise ValueError("trend needs degree + 1 coefficients")
        if self.trend_degree == 0 and len(self.trend_coefficients) > 1:
            raise ValueError("degree 0 carries at most a constant offset")


def _seasonal_component(spec: SeriesSpec, t: np.ndarray) -> np.ndarray:
    if spec.period is None:
        return np.zeros(spec.length)
    if spec.pattern == "sinusoid":
        return spec.amplitude * np.sin(2.0 * math.pi * t / spec.period)
    if spec.pattern == "tile":
        block = np.asarray(spec.tile, dtype=np.float64) * spec.amplitude
        if is_repetition_of_shorter(block):
            raise ValueError("tile block is itself a repetition of a shorter block")
        reps = -(-spec.length // block.size)
        return np.tile(block, reps)[: spec.length]
    primary = spec.amplitude * np.sin(2.0 * math.pi * t / spec.period)
    secondary = spec.second_amplitude * np.sin(2.0 * math.pi * t / spec.second_period)
    return primary + secondary


def generate(spec: SeriesSpec) -> tuple[TimeSeries, float | None]:
    """Materialize a spec into a series and its reference season length.

    Deterministic for a given spec: the Philox stream is keyed by
    spec.seed and consumed in a fixed order (cycle scrambling, noise,
    outliers).
    """
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    t = np.arange(spec.length, dtype=np.float64)
    seasonal = _seasonal_component(spec, t)

    if spec.period is not None and spec.amplitude_drift != 1.0:
        seasonal = seasonal * spec.amplitude_drift ** (t / spec.period)
    if spec.period is not None:
        for cycle in sorted(spec.season_outlier_cycles):
            lo = int(round(cycle * spec.period))
            hi = min(int(round((cycle + 1) * spec.period)), spec.length)
            if lo < hi:
                seasonal[lo:hi] = rng.permutation(seasonal[lo:hi])

    values = seasonal
    if spec.trend_coefficients:
        coeffs = np.zeros(3)
        coeffs[: len(spec.trend_coefficients)] = spec.trend_coefficients
        values = values + coeffs[0] + coeffs[1] * t + coeffs[2] * t * t

    scale = spec.amplitude if spec.period is not None else 1.0
    if spec.noise_sigma > 0:
        values = values + rng.normal(0.0, spec.noise_sigma * scale, spec.length)
    if spec.outlier_count:
        where = rng.choice(spec.length, size=spec.outlier_count, replace=False)
        signs = rng.choice((-1.0, 1.0), size=spec.outlier_count)
        values = np.array(values)
        values[where] += signs * spec.outlier_magnitude * scale

    return validate_series(values, 1.0), spec.period


def _case_seed(family_seed: int, index: int) -> int:
    return family_seed * 1009 + index


def _harmonic_block(period: int, fundamental: float, second: float) -> tuple[float, ...]:
    # Second harmonic dominant on purpose: spectral peak pickers lock onto
    # period/2 while the repetition length stays period. Starting the block
    # at its mean keeps the low-pass from charging toward a false level.
    k = np.arange(period)
    block = fundamental * np.sin(2 * math.pi * k / period) + second * np.sin(
        4 * math.pi * k / period
    )
    return tuple(float(v) for v in block)


def _rough_block(period: int, key: int) -> tuple[float, ...]:
    # Integrated noise gives a red spectrum, so the fundamental carries most
    # of the energy and survives the low-pass. The first sample is pinned to
    # the block mean for the same reason as in the harmonic blocks.
    rng = np.random.Generator(np.random.Philox(key=key))
    block = np.cumsum(rng.normal(0.0, 1.0, period))
    t = np.arange(period, dtype=np.float64) - (period - 1) / 2.0
    block = block - block.mean() - (t @ block) / (t @ t) * t
    block = block / block.std()
    block[0] = block[1:].sum() / (period - 1)
    return tuple(float(v) for v in block)


def _family_diverse(seed: int) -> list[tuple[TimeSeries, object, str]]:
    specs: list[SeriesSpec] = [
        SeriesSpec("sinusoid", 2000, _case_seed(seed, 0), period=200),
        SeriesSpec(
            "sinusoid", 2400, _case_seed(seed, 1), period=240, amplitude=2.0,
            trend_coefficients=(50.0,),
        ),
        SeriesSpec("sinusoid", 2500, _case_seed(seed, 2), period=250, noise_sigma=0.2),
        SeriesSpec(
            "tile", 2750, _case_seed(seed, 3), period=275,
            tile=_harmonic_block(275, 0.55, 1.0),
        ),
        SeriesSpec(
            "tile", 2000, _case_seed(seed, 4), period=200,
            tile=_rough_block(200, seed * 31 + 4), noise_sigma=0.05,
        ),
        SeriesSpec(
            "sinusoid", 2500, _case_seed(seed, 5), period=250, noise_sigma=0.2,
            trend_degree=1, trend_coefficients=(5.0, 0.005),
        ),
        SeriesSpec("sinusoid", 2400, _case_seed(seed, 6), period=300, noise_sigma=0.3),
        SeriesSpec(
            "sinusoid", 3200, _case_seed(seed, 7), period=400, noise_sigma=0.1,
            trend_degree=2, trend_coefficients=(0.0, 0.0, 5e-6),
        ),
        SeriesSpec("sinusoid", 4000, _case_seed(seed, 8), period=500, noise_sigma=0.5),
        SeriesSpec("sinusoid", 3000, _case_seed(seed, 9), period=150, noise_sigma=0.05),
        SeriesSpec(
            "tile", 3000, _case_seed(seed, 10), period=300,
            tile=_harmonic_block(300, 0.45, 1.0),
        ),
        SeriesSpec("sinusoid", 2400, _case_seed(seed, 11), period=80, noise_sigma=0.01),
        SeriesSpec("sinusoid", 900, _case_seed(seed, 12), period=30, noise_sigma=0.1),
        SeriesSpec("sinusoid", 4800, _case_seed(seed, 13), period=600, noise_sigma=0.8),
        SeriesSpec(
            "tile", 2500, _case_seed(seed, 14), period=250,
            tile=_rough_block(250, seed * 31 + 14), noise_sigma=0.05,
        ),
        SeriesSpec(
            "two_sinusoids", 2200, _case_seed(seed, 15), period=220,
            second_period=55.0, second_amplitude=0.3, noise_sigma=0.1,
        ),
        SeriesSpec("sinusoid", 2400, _case_seed(seed, 16), period=480, noise_sigma=0.2),
        SeriesSpec(
            "sinusoid", 2800, _case_seed(seed, 17), period=350, amplitude=5.0,
            trend_coefficients=(100.0,), noise_sigma=0.15,
        ),
        SeriesSpec(
            "sinusoid", 3600, _case_seed(seed, 18), period=450, noise_sigma=0.1,
            trend_degree=2, trend_coefficients=(0.0, 0.0, 4e-6),
        ),
        SeriesSpec("sinusoid", 5000, _case_seed(seed, 19), period=1000, noise_sigma=0.4),
    ]
    out = []
    for i, s in enumerate(specs):
        series, ref = generate(s)
        out.append((series, ref, f"Diverse-{i:02d}"))
    return out


def _family_complex(seed: int) -> list[tuple[TimeSeries, object, str]]:
    periods = (250, 300, 350, 400, 450)
    out = []
    for i in range(20):
        if i >= 18:  # two hardest cases: everything at once
            spec = SeriesSpec(
                "sinusoid", 3500, _case_seed(seed, 100 + i), period=350,
                noise_sigma=0.35, amplitude_drift=1.1,
                outlier_count=40, outlier_magnitude=8.0,
                season_outlier_cycles=frozenset({2, 5}),
            )
        else:
            p = periods[i % 5]
            n = 10 * p
            common = dict(
                period=p,
                amplitude_drift=(1.0, 1.02, 1.03, 1.05, 1.06)[i % 5],
                outlier_count=max(2, n // (150 if i % 2 else 80)),
                outlier_magnitude=(3.0, 5.0, 7.0)[i % 3],
                season_outlier_cycles=frozenset(
                    {3} if i % 4 == 1 else {2, 6} if i % 4 == 3 else set()
                ),
            )
            if i % 3 == 0:
                spec = SeriesSpec(
                    "tile", n, _case_seed(seed, 100 + i),
                    tile=_harmonic_block(p, 0.6, 1.0),
                    noise_sigma=0.05, **common,
                )
            else:
                spec = SeriesSpec(
                    "sinusoid", n, _case_seed(seed, 100 + i),
                    noise_sigma=(0.1, 0.15, 0.2)[i % 3], **common,
                )
        series, ref = generate(spec)
        out.append((series, ref, f"Complex-{i:02d}"))
    return out


def _family_ambiguous(seed: int) -> list[tuple[TimeSeries, object, str]]:
    out = []
    bases = (120, 160, 200, 240, 280, 320)
    for i in range(20):
        p = bases[i % 6]
        multiple = 2 if i % 2 == 0 else 3
        fundamental = p * multiple
        spec = SeriesSpec(
            "two_sinusoids",
            8 * fundamental,
            _case_seed(seed, 200 + i),
            period=float(fundamental),
            second_period=float(p),
            second_amplitude=(0.5, 0.8, 1.0)[i % 3],
            noise_sigma=0.05 if i % 4 == 3 else 0.0,
        )
        series, _ = generate(spec)
        out.append((series, (float(p), float(fundamental)), f"Ambiguous-{i:02d}"))
    return out


def _family_variations(seed: int) -> list[tuple[TimeSeries, object, str]]:
    def bases(case_seed: int) -> list[tuple[SeriesSpec, object]]:
        return [
            (SeriesSpec("sinusoid", 2500, case_seed, period=250, noise_sigma=0.05), 250.0),
            (
                SeriesSpec(
                    "tile", 2500, case_seed, period=250,
                    tile=_harmonic_block(250, 0.5, 1.0),
                ),
                250.0,
            ),
            (
                SeriesSpec(
                    "sinusoid", 2800, case_seed, period=350, noise_sigma=0.1,
                    trend_degree=1, trend_coefficients=(0.0, 0.01),
                ),
                350.0,
            ),
            (
                SeriesSpec(
                    "two_sinusoids", 1920, case_seed, period=320.0,
                    second_period=160.0, second_amplitude=0.6,
                ),
                (160.0, 320.0),
            ),
        ]

    out = []
    for b in range(4):
        for v in range(5):
            case_seed = _case_seed(seed, 300 + 5 * b + v)
            spec, ref = bases(case_seed)[b]
            if v == 1:
                spec = replace(spec, noise_sigma=spec.noise_sigma + 0.05)
            elif v == 2:
                spec = replace(
                    spec,
                    amplitude=spec.amplitude * 3.0,
                    second_amplitude=spec.second_amplitude * 3.0,
                )
            elif v == 3:
                spec = replace(
                    spec,
                    outlier_count=max(4, spec.length // 200),
                    outlier_magnitude=5.0,
                )
            elif v == 4:
                if spec.trend_degree:
                    coeffs = (spec.trend_coefficients[0] + 75.0,) + spec.trend_coefficients[1:]
                else:
                    coeffs = (75.0,)
                spec = replace(spec, trend_coefficients=coeffs)
            series, _ = generate(spec)
            out.append((series, ref, f"Variations-{b}{chr(ord('a') + v)}"))
    return out


def _family_noise(seed: int) -> list[tuple[TimeSeries, object, str]]:
    out = []
    for i in range(10):
        spec = SeriesSpec(
            "sinusoid", 2500, _case_seed(seed, 400 + i), period=250, noise_sigma=i / 10.0
        )
        series, ref = generate(spec)
        out.append((series, ref, f"Noise-{i:02d}"))
    return out


def _family_length(seed: int) -> list[tuple[TimeSeries, object, str]]:
    periods = (10, 25, 50, 100, 150, 250, 350, 450, 550, 650)
    out = []
    for i, p in enumerate(periods):
        spec = SeriesSpec("sinusoid", 20 * p, _case_seed(seed, 500 + i), period=p)
        series, ref = generate(spec)
        out.append((series, ref, f"Length-{i:02d}"))
    return out


def _family_noseason(seed: int) -> list[tuple[TimeSeries, object, str]]:
    out = []
    for i, n in enumerate((400, 500, 600)):
        rng = np.random.Generator(np.random.Philox(key=_case_seed(seed, 600 + i)))
        out.append((validate_series(rng.normal(0.0, 1.0, n)), None, f"NoSeason-{i:02d}"))
    for i, n in enumerate((400, 500, 600)):
        rng = np.random.Generator(np.random.Philox(key=_case_seed(seed, 610 + i)))
        walk = np.cumsum(rng.normal(0.0, 1.0, n))
        out.append((validate_series(walk), None, f"NoSeason-{i + 3:02d}"))
    t = np.arange(500, dtype=np.float64)
    rng = np.random.Generator(np.random.Philox(key=_case_seed(seed, 620)))
    out.append((validate_series(0.05 * t + rng.normal(0.0, 0.5, 500)), None, "NoSeason-06"))
    rng = np.random.Generator(np.random.Philox(key=_case_seed(seed, 621)))
    out.append(
        (validate_series(1e-4 * t * t + rng.normal(0.0, 0.5, 500)), None, "NoSeason-07")
    )
    out.append((validate_series(0.03 * np.arange(400)), None, "NoSeason-08"))
    out.append((validate_series(2e-5 * t * t), None, "NoSeason-09"))
    return out


_FAMILY_BUILDERS = {
    "Diverse": _family_diverse,
    "Complex": _family_complex,
    "Ambiguous": _family_ambiguous,
    "Variations": _family_variations,
    "Noise": _family_noise,
    "Length": _family_length,
    "NoSeason": _family_noseason,
}


def gen_family(name: str, seed: int) -> list[tuple[TimeSeries, object, str]]:
    """Generate one benchmark family.

    Returns (series, reference, label) triples. The reference is a
    float, a tuple of acceptable floats (ambiguous cases), or None for
    non-seasonal cases.

    Raises:
        ValueError: the name is not one of FAMILY_NAMES.
    """
    try:
        builder = _FAMILY_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; pick one of {', '.join(FAMILY_NAMES)}"
        ) from None
    cases = builder(seed)
    assert len(cases) == FAMILY_SIZES[name]
    return cases
