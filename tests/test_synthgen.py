"""Synthetic benchmark generation: determinism and family contracts."""

import numpy as np
import pytest

from seasonlen.pipeline import exact_season_oracle
from seasonlen.synthgen import (
    FAMILY_NAMES,
    FAMILY_SIZES,
    SeriesSpec,
    gen_family,
    generate,
)


class TestSeriesSpec:
    def test_noiseless_sinusoid_is_exact(self):
        spec = SeriesSpec("sinusoid", 240, seed=1, period=12)
        series, reference = generate(spec)
        expected = np.sin(2 * np.pi * np.arange(240) / 12)
        assert reference == 12
        assert np.array_equal(series.values, expected)

    def test_tile_reference_verified_by_oracle(self):
        spec = SeriesSpec("tile", 160, seed=1, period=4, tile=(0.0, 2.0, 1.0, 2.0))
        series, reference = generate(spec)
        assert reference == 4
        assert exact_season_oracle(series.values) == 4

    def test_divisible_tile_rejected(self):
        spec = SeriesSpec("tile", 160, seed=1, period=4, tile=(1.0, 2.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            generate(spec)

    def test_seed_changes_noise_not_reference(self):
        a, ref_a = generate(SeriesSpec("sinusoid", 200, seed=1, period=10, noise_sigma=0.2))
        b, ref_b = generate(SeriesSpec("sinusoid", 200, seed=2, period=10, noise_sigma=0.2))
        assert ref_a == ref_b == 10
        assert not np.array_equal(a.values, b.values)

    def test_same_seed_is_bit_identical(self):
        spec = SeriesSpec(
            "sinusoid", 300, seed=9, period=30, noise_sigma=0.3,
            outlier_count=5, outlier_magnitude=4.0,
            season_outlier_cycles=frozenset({2}),
        )
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.values, b.values)

    def test_trend_added(self):
        spec = SeriesSpec(
            "sinusoid", 100, seed=1, period=10,
            trend_degree=1, trend_coefficients=(2.0, 0.5),
        )
        series, _ = generate(spec)
        expected = np.sin(2 * np.pi * np.arange(100) / 10) + 2.0 + 0.5 * np.arange(100)
        assert np.allclose(series.values, expected)

    def test_outliers_injected(self):
        base, _ = generate(SeriesSpec("sinusoid", 400, seed=3, period=20))
        spiked, _ = generate(
            SeriesSpec("sinusoid", 400, seed=3, period=20, outlier_count=6, outlier_magnitude=8.0)
        )
        assert int((np.abs(spiked.values - base.values) > 4.0).sum()) == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pattern": "wavelet", "length": 100, "seed": 1},
            {"pattern": "sinusoid", "length": 100, "seed": 1, "period": 1.5},
            {"pattern": "sinusoid", "length": 30, "seed": 1, "period": 10},
            {"pattern": "tile", "length": 100, "seed": 1, "period": 4, "tile": (1.0, 2.0)},
            {"pattern": "sinusoid", "length": 100, "seed": 1, "period": 10, "noise_sigma": -0.1},
            {"pattern": "sinusoid", "length": 100, "seed": 1, "period": 10, "outlier_count": 50},
            {
                "pattern": "sinusoid",
                "length": 100,
                "seed": 1,
                "period": 10,
                "trend_coefficients": (1.0, 2.0),
            },
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            SeriesSpec(**kwargs)


class TestFamilies:
    def test_counts(self):
        for name in FAMILY_NAMES:
            assert len(gen_family(name, 7)) == FAMILY_SIZES[name]

    def test_reproducible_bit_for_bit(self):
        for name in FAMILY_NAMES:
            first = gen_family(name, 7)
            second = gen_family(name, 7)
            for (sa, ra, la), (sb, rb, lb) in zip(first, second):
                assert la == lb and ra == rb
                assert np.array_equal(sa.values, sb.values)

    def test_no_season_family_has_no_references(self):
        cases = gen_family("NoSeason", 7)
        assert len(cases) == 10
        assert all(ref is None for _, ref, _ in cases)

    def test_ambiguous_family_has_multiple_references(self):
        for _, ref, _ in gen_family("Ambiguous", 7):
            assert isinstance(ref, tuple) and len(ref) >= 2

    def test_noise_family_has_ascending_noise(self):
        cases = gen_family("Noise", 7)
        # High-frequency energy grows with the noise level.
        roughness = [float(np.diff(series.values).var()) for series, _, _ in cases]
        assert roughness[0] < roughness[3] < roughness[-1]

    def test_length_family_spans_short_to_long(self):
        refs = [ref for _, ref, _ in gen_family("Length", 7)]
        assert min(refs) <= 10
        assert max(refs) >= 500

    def test_every_seasonal_case_has_four_cycles(self):
        for name in FAMILY_NAMES:
            for series, ref, label in gen_family(name, 7):
                if ref is None:
                    continue
                smallest = min(ref) if isinstance(ref, tuple) else ref
                largest = max(ref) if isinstance(ref, tuple) else ref
                assert smallest >= 2, label
                assert len(series) >= 4 * largest, label

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_family("Mystery", 7)
