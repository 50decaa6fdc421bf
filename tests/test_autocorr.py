"""Normalized autocorrelation and its secondary detrending."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings, strategies as st

from seasonlen.autocorr import (
    _COLUMN_BLOCK,
    _SPLIT_BLOCK,
    _SPLIT_NFFT,
    _factor,
    _fast_len,
    _grid,
    _twiddle_tables,
    autocorrelation,
    detrend_acf,
)
from seasonlen.core import NonFiniteError, TimeSeries, ZeroVarianceError, validate_series

#: Half the threshold: _fast_len(2n) == _SPLIT_NFFT, so the transform is split.
SPLIT_N = _SPLIT_NFFT // 2

#: A split-size input in [1, 2] for the power-of-two scaling property.
SPLIT_VALUES = (1.0 + np.random.default_rng(5).random(SPLIT_N + 1)).tolist()


def direct_acf(values):
    """Independent oracle: the plain lagged-product sum at every lag."""
    centered = values - values.mean()
    energy = centered @ centered
    n = centered.size
    return np.array(
        [np.dot(centered[: n - lag], centered[lag:]) for lag in range(n)]
    ) / energy


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self):
        rng = np.random.default_rng(0)
        acf = autocorrelation(validate_series(rng.normal(0, 1, 50)))
        assert acf.values[0] == 1.0

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        acf = autocorrelation(validate_series(rng.normal(0, 3, 300)))
        assert np.abs(acf.values).max() <= 1.0 + 1e-9

    def test_length_matches_input(self):
        acf = autocorrelation(validate_series(np.arange(33.0)))
        assert len(acf) == 33

    def test_cosine_values(self):
        t = np.arange(400)
        acf = autocorrelation(validate_series(np.cos(2 * np.pi * t / 20)))
        assert acf.values[10] <= -0.9
        assert acf.values[20] >= 0.9

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 64)
        ours = autocorrelation(validate_series(x)).values
        assert np.abs(ours - direct_acf(x)).max() < 1e-9

    def test_matches_direct_sum_many_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 257))
            x = rng.normal(0, 2, n)
            ours = autocorrelation(validate_series(x)).values
            assert np.abs(ours - direct_acf(x)).max() < 1e-9

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceError):
            autocorrelation(validate_series([4.0] * 20))

    @given(scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 80)
        plain = autocorrelation(validate_series(x)).values
        scaled = autocorrelation(validate_series(scale * x)).values
        assert np.abs(plain - scaled).max() < 1e-9

    @given(
        values=st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=4, max_size=200),
        exponent=st.integers(min_value=-1000, max_value=1000),
    )
    @example(values=SPLIT_VALUES, exponent=1000)
    @example(values=SPLIT_VALUES, exponent=-1000)
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scaling_is_bit_identical(self, values, exponent):
        # Values in [1, 2] stay normal under any 2**k with |k| <= 1000, so
        # every float operation is the same as at scale 1, shifted in
        # exponent only.
        x = np.array(values)
        assume(np.ptp(x) > 0.0)
        plain = autocorrelation(validate_series(x)).values
        scaled = autocorrelation(validate_series(np.ldexp(x, exponent))).values
        assert np.array_equal(plain, scaled)

    @given(offset=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, offset):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 80)
        plain = autocorrelation(validate_series(x)).values
        shifted = autocorrelation(validate_series(x + offset)).values
        assert np.abs(plain - shifted).max() < 1e-9


def monolithic_acf(values):
    """Independent oracle for long inputs: one zero-padded real FFT."""
    centered = values - values.mean()
    nfft = scipy.fft.next_fast_len(2 * centered.size)
    power = np.abs(scipy.fft.rfft(centered, nfft))
    np.square(power, out=power)
    raw = scipy.fft.irfft(power, nfft)
    return raw[: centered.size] / raw[0]


def noisy_sine(n, seed):
    rng = np.random.default_rng(seed)
    return 5.0 + np.sin(2 * np.pi * np.arange(n) / 997.0) + rng.normal(0, 1, n)


def twiddle_rows(tables, start, stop, n2):
    """The twiddles of rows start:stop, exp(-2j pi k1 b / (n1 n2)) for b < n2."""
    coarse, fine = tables
    return (coarse[start:stop] * fine[start:stop]).reshape(stop - start, -1)[:, :n2]


def complex_spectrum_acf(values):
    """The four-step ACF with plain storage and an explicit mirror loop.

    The module's arithmetic, step for step, with none of its storage: the
    (n1/2 + 1) x n2 half-spectrum is a new complex array, the row pass's
    inverse a second complex (n1/2 + 1) x h array with h = n2//2 + 1, and
    the lags are written column by column through strided views of the
    result. Each column b with 0 < b < n2 - b also fills column n2 - b
    from its own lags read backwards, which is r[j] = r[n1*n2 - j].
    Storage is all that differs, so the two agree bit for bit.
    """
    x = values.copy()
    mean = x.mean()
    scale = -int(np.frexp(max(x.max() - mean, mean - x.min()))[1])
    n1, n2 = _factor(x.size)
    grid, rows, last = _grid(x, n2)
    spectrum = np.empty((n1 // 2 + 1, n2), dtype=np.complex128)
    buffer = np.zeros((_COLUMN_BLOCK, n1))
    for start in range(0, n2, _COLUMN_BLOCK):
        columns = buffer[:min(_COLUMN_BLOCK, n2 - start)]
        stop = start + columns.shape[0]
        np.subtract(grid[:, start:stop].T, mean, out=columns[:, :rows])
        extra = last[start:stop]
        np.subtract(extra, mean, out=columns[:extra.size, rows])
        columns[extra.size:, rows] = 0.0
        np.ldexp(columns[:, :rows + 1], scale, out=columns[:, :rows + 1])
        spectrum[:, start:stop] = scipy.fft.rfft(columns, axis=1).T
    half = n2 // 2 + 1
    inverse = np.empty((n1 // 2 + 1, half), dtype=np.complex128)
    step = max(1, _SPLIT_BLOCK // n2)
    tables = _twiddle_tables(n1, n2)
    for start in range(0, spectrum.shape[0], step):
        block = spectrum[start:start + step]
        twiddle = twiddle_rows(tables, start, start + block.shape[0], n2)
        transformed = scipy.fft.fft(block * twiddle, axis=1)
        power = transformed.real**2 + transformed.imag**2
        inverse[start:start + block.shape[0]] = (
            scipy.fft.ihfft(power, axis=1, norm="forward") * np.conjugate(twiddle[:, :half])
        )
    acf = np.empty_like(x)
    for start in range(0, half, _COLUMN_BLOCK):
        stop = min(start + _COLUMN_BLOCK, half)
        lags = scipy.fft.irfft(inverse[:, start:stop].T, n1, axis=1, norm="forward")
        if start == 0:
            lag0 = lags[0, 0]
        for b in range(start, stop):
            column = lags[b - start] / lag0
            own = acf[b::n2]
            own[:] = column[:own.size]
            if 0 < b < n2 - b:
                mirror = acf[n2 - b::n2]
                mirror[:] = column[::-1][:mirror.size]
    return acf


class TestTransformLength:
    """_fast_len is a port of pocketfft's good_size, so scipy.fft.next_fast_len is its reference."""

    @staticmethod
    def assert_matches_scipy(lengths):
        for primes, real in (((5, 7, 11), False), ((5,), True)):
            ours = [_fast_len(n, primes) for n in lengths]
            assert ours == [scipy.fft.next_fast_len(n, real) for n in lengths], real

    def test_every_length_up_to_ten_thousand(self):
        self.assert_matches_scipy(range(1, 10_001))

    def test_random_lengths_up_to_a_billion(self):
        self.assert_matches_scipy(np.random.default_rng(9).integers(1, 10**9, 2000).tolist())

    def test_around_powers_of_two(self):
        self.assert_matches_scipy([2**k + d for k in range(1, 41) for d in (-1, 0, 1)])

    @pytest.mark.parametrize(
        "n, factors",
        [(65_488, (130_977, 1)), (65_489, (375, 363)), (3_999_997, (2880, 2835))],
    )
    def test_factor_on_both_sides_of_the_split(self, n, factors):
        assert _factor(n) == factors


class TestSplitTransform:
    """Series long enough for the four-step transform (n2 > 1 columns)."""

    @given(n=st.integers(min_value=SPLIT_N, max_value=3 * SPLIT_N), seed=st.integers(0, 2**32 - 1))
    @example(n=131_072, seed=0)  # 512 x 512: no partial last row
    @example(n=131_101, seed=1)  # prime: 29 values in the last row
    @example(n=262_139, seed=2)  # prime, four times the threshold
    # The partial last row spans more than one column block, and the last
    # block is narrower than the rest: 784 columns, 512 in the last row.
    @example(n=300_000, seed=3)
    @example(n=393_209, seed=4)  # prime: 891 columns, 278 in the last row
    @settings(max_examples=15, deadline=None)
    def test_matches_the_monolithic_transform(self, n, seed):
        n1, n2 = _factor(n)
        assert n2 > 1 and n1 * n2 >= 2 * n
        x = noisy_sine(n, seed)
        ours = autocorrelation(validate_series(x)).values
        assert np.abs(ours - monolithic_acf(x)).max() < 1e-13

    @pytest.mark.parametrize("n", [51_997, 65_488])
    def test_below_the_threshold_is_the_monolithic_transform_bit_for_bit(self, n):
        # 51,997 is the longest upsampled suite case; 65,488 is the longest
        # series whose next_fast_len(2n) stays below the threshold.
        assert _factor(n)[1] == 1
        x = noisy_sine(n, 4)
        assert np.array_equal(autocorrelation(validate_series(x)).values, monolithic_acf(x))

    # 65,489 is the shortest split length. The tail past the grid holds
    # 1 to 27 rows; 131,072 fills its grid and the others leave a partial
    # last row; from 144,958 on, a row-pass block holds rows of both.
    # n2 is odd up to 65,537 (363), at 144,958 (539) and 393,209 (891), and
    # even elsewhere, 1440 at 1,000,003. The partial last row reaches the
    # mirrored columns at 65,536 and 65,537 (196 and 197 of 363), 144,958
    # (506 of 539) and 300,000 (512 of 784).
    @pytest.mark.parametrize(
        "n",
        [65_489, SPLIT_N, SPLIT_N + 1, 131_072, 131_101, 144_958, 262_139, 300_000,
         393_209, 1_000_003],
    )
    def test_planar_half_spectrum_is_the_complex_one_bit_for_bit(self, n):
        assert _factor(n)[1] > 1
        x = noisy_sine(n, n)
        ours = autocorrelation(validate_series(x)).values
        assert ours.tobytes() == complex_spectrum_acf(x).tobytes()

    def test_twiddle_tables_give_every_twiddle_within_a_few_ulp(self):
        # n2 = 539 splits as b = 23q + r over 24 coarse steps, 13 past n2.
        n1, n2 = _factor(144_958)
        twiddles = twiddle_rows(_twiddle_tables(n1, n2), 0, n1 // 2 + 1, n2)
        # The reference angle is rounded once, in extended precision where
        # the platform has it.
        turns = (np.arange(n1 // 2 + 1)[:, None] * np.arange(n2)).astype(np.longdouble)
        angle = 8 * np.arctan(np.longdouble(1)) * turns / (n1 * n2)
        error = np.hypot(twiddles.real - np.cos(angle), twiddles.imag + np.sin(angle))
        assert error.max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [144_958, 1_000_003])
    def test_inverse_column_pass_transforms_half_the_columns(self, n, monkeypatch):
        # The lags are even, so the columns past n2//2 are mirrors, not transforms.
        n1, n2 = _factor(n)
        counted = []
        irfft = np.fft.irfft

        def counting(columns, *args, **kwargs):
            counted.append(columns.shape[0])
            return irfft(columns, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting)
        autocorrelation(validate_series(noisy_sine(n, 0)))
        assert sum(counted) == n2 // 2 + 1

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceError):
            autocorrelation(validate_series(np.full(SPLIT_N + 1, 4.0)))

    def test_overflowing_mean_raises_non_finite(self):
        x = 1e308 + 1e306 * np.sin(2 * np.pi * np.arange(SPLIT_N + 1) / 100)
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteError):
            autocorrelation(validate_series(x))


class TestDetrendAcf:
    def test_long_sinusoid_barely_changes(self):
        t = np.arange(4000)
        acf = autocorrelation(validate_series(np.sin(2 * np.pi * t / 400)))
        detrended = detrend_acf(acf)
        assert np.abs(detrended.values - acf.values).max() < 0.05

    def test_pure_line_removed_exactly(self):
        lags = np.arange(200, dtype=float)
        line = 0.5 - lags / (2 * 199)
        detrended = detrend_acf(TimeSeries(line))
        assert np.abs(detrended.values).max() < 1e-9

    def test_sinusoid_zero_near_quarter_period(self):
        period = 40
        t = np.arange(10 * period)
        detrended = detrend_acf(
            autocorrelation(validate_series(np.sin(2 * np.pi * t / period)))
        )
        v = detrended.values
        for target in (period / 4, 3 * period / 4):
            window = v[int(target) - 2 : int(target) + 3]
            assert window.min() <= 0 <= window.max() or np.abs(window).min() < 1e-3
