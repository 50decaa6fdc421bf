"""Normalized autocorrelation and its secondary detrending."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings, strategies as st

from seasonlen.autocorr import (
    _COLUMN_BLOCK,
    _SPLIT_BLOCK,
    _SPLIT_NFFT,
    _acf_size,
    _autocorrelation_in_place,
    _factor,
    _fast_len,
    _twiddle_tables,
    autocorrelation,
    detrend_acf,
)
from seasonlen.core import TimeSeries, ZeroVarianceError, validate_series

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

    @given(value=st.floats(allow_nan=False, allow_infinity=False), size=st.integers(2, 50))
    @example(value=0.7, size=3)  # the mean rounds off these constants
    @example(value=0.1, size=3)
    @example(value=0.3, size=10)
    @settings(max_examples=100, deadline=None)
    def test_every_constant_series_raises(self, value, size):
        with pytest.raises(ZeroVarianceError):
            autocorrelation(TimeSeries(np.full(size, value)))

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
    nfft = scipy.fft.next_fast_len(2 * centered.size, real=True)
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

    The module's arithmetic with none of its storage: the (n1/2 + 1) x n2
    half-spectrum is a new complex array, the row pass's inverse a second
    complex (n1/2 + 1) x h array with h = n2//2 + 1, and the lags are
    written column by column through strided views of the result. Each
    column b with 0 < b < n2 - b also fills column n2 - b from its own
    lags read backwards, which is r[j] = r[n1*n2 - j]. One step is its
    own: the oracle takes the unscaled values and scales the centred ones
    by the power of two that brings them into [0.5, 1), where the module
    scales the raw values at entry and never again. A power of two moves
    no bit, so the two still agree bit for bit.
    """
    x = values.copy()
    mean = x.mean()
    scale = -int(np.frexp(max(x.max() - mean, mean - x.min()))[1])
    n1, n2 = _factor(x.size)
    rows = x.size // n2
    grid, last = x[:rows * n2].reshape(rows, n2), x[rows * n2:]
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


def storage_cases(n):
    """The cases of the four-step storage that a split length n meets.

    The tail is the spectrum's rows past the series' full rows, which the
    kernel pads from the series' end; columns from n2//2 + 1 on are
    filled as mirrors; a row-pass block of _SPLIT_BLOCK // n2 rows holds
    full and tail rows unless the full row count is a multiple of it.
    """
    n1, n2 = _factor(n)
    rows, partial = divmod(n, n2)
    tail = n1 // 2 + 1 - rows
    hits = {
        "odd n1": n1 % 2 == 1,
        "even n1": n1 % 2 == 0,
        "odd n2": n2 % 2 == 1,
        "even n2": n2 % 2 == 0,
        "one tail row": tail == 1,
        "several tail rows": tail > 1,
        "full grid": partial == 0,
        "mirrored partial row": partial > n2 // 2 + 1,
        "block of grid and tail": rows % max(1, _SPLIT_BLOCK // n2) != 0,
    }
    assert n2 > 1
    return {case for case, hit in hits.items() if hit}


#: Split lengths, each with the storage cases of the four-step kernel it is
#: there to cover (see storage_cases).
STORAGE_CASES = [
    # The shortest split length, and a longer one with its 405 x 324 factors.
    (64_801, {"odd n1", "even n2", "several tail rows", "block of grid and tail"}),
    (65_489, {"odd n1", "even n2", "one tail row"}),
    (SPLIT_N, {"odd n1", "one tail row"}),
    (SPLIT_N + 1, {"odd n1", "one tail row"}),
    (69_990, {"odd n2", "mirrored partial row", "block of grid and tail"}),
    (131_072, {"even n1", "several tail rows", "mirrored partial row"}),
    (131_101, {"mirrored partial row", "block of grid and tail"}),
    (144_958, {"several tail rows", "block of grid and tail"}),
    (262_139, {"odd n1", "one tail row", "block of grid and tail"}),
    (300_000, {"full grid", "one tail row", "block of grid and tail"}),
    (393_209, {"even n2", "several tail rows"}),
    (1_000_003, {"several tail rows", "mirrored partial row", "block of grid and tail"}),
]


class TestTransformLength:
    """_fast_len gives the least 5-smooth length, so scipy.fft.next_fast_len(real=True) is its reference."""

    @staticmethod
    def assert_matches_scipy(lengths):
        want = [scipy.fft.next_fast_len(n, real=True) for n in lengths]
        assert [_fast_len(n) for n in lengths] == want

    def test_every_length_up_to_ten_thousand(self):
        self.assert_matches_scipy(range(1, 10_001))

    def test_random_lengths_up_to_a_billion(self):
        self.assert_matches_scipy(np.random.default_rng(9).integers(1, 10**9, 2000).tolist())

    def test_around_powers_of_two(self):
        self.assert_matches_scipy([2**k + d for k in range(1, 41) for d in (-1, 0, 1)])

    @pytest.mark.parametrize(
        "n, factors",
        [(64_800, (129_600, 1)), (64_801, (405, 324)), (3_999_997, (2560, 3125))],
    )
    def test_factor_on_both_sides_of_the_split(self, n, factors):
        assert _factor(n) == factors

    @given(n=st.integers(min_value=64_801, max_value=5_000_011))
    @example(n=64_801)  # the shortest split length
    @example(n=SPLIT_N)
    @example(n=1 << 20)
    @example(n=1 << 21)
    @example(n=1 << 22)
    @example(n=3_999_997)
    @settings(max_examples=40, deadline=None)
    def test_split_is_the_least_5_smooth_product(self, n):
        # Reference: every n2 in [sqrt(2n)/2, 2 sqrt(2n)] that is 5-smooth
        # with at most 2**5 in it, each with scipy's least 5-smooth n1.
        def smooth(m):
            return scipy.fft.next_fast_len(m, real=True) == m

        pairs = [
            (scipy.fft.next_fast_len(-(-2 * n // n2), real=True), n2)
            for n2 in range(math.isqrt(n // 2), math.isqrt(8 * n) + 1)
            if n <= 2 * n2 * n2 <= 16 * n and smooth(n2) and n2 % 64
        ]
        n1, n2 = _factor(n)
        assert smooth(n1) and smooth(n2)
        assert n1 * n2 >= 2 * n
        assert n2 % 64 and n <= 2 * n2 * n2 <= 16 * n
        assert n1 * n2 == min(a * b for a, b in pairs)
        assert max(n1, n2) == min(max(a, b) for a, b in pairs if a * b == n1 * n2)


    @given(n=st.integers(min_value=64_801, max_value=5_000_011))
    @example(n=64_801)
    @example(n=300_000)  # 400 x 750: the series fills whole rows
    @example(n=3_999_997)
    @settings(max_examples=40, deadline=None)
    def test_a_split_buffer_holds_the_half_spectrum_grid(self, n):
        n1, n2 = _factor(n)
        assert _acf_size(n) == (n1 // 2 + 1) * n2
        assert _acf_size(n) >= n

    @pytest.mark.parametrize("n", [4, 51_997, 64_800])
    def test_a_monolithic_buffer_holds_the_series(self, n):
        assert _acf_size(n) == n


class TestSplitTransform:
    """Series long enough for the four-step transform (n2 > 1 columns)."""

    @pytest.mark.parametrize("n", [64_801, 69_990, 131_101, 300_000])
    def test_kernel_keeps_to_its_buffer(self, n):
        # Every cell the kernel may use starts as NaN: the series' grid
        # padding must be written before it is read, and the cells past
        # _acf_size(n) must stay as they are.
        x = noisy_sine(n, n)
        size = _acf_size(n)
        buffer = np.full(size + 1000, np.nan)
        np.ldexp(x, -math.frexp(np.abs(x).max())[1], out=buffer[:n])
        _autocorrelation_in_place(buffer, n)
        assert buffer[:n].tobytes() == autocorrelation(validate_series(x)).values.tobytes()
        assert np.isnan(buffer[size:]).all()

    @given(n=st.integers(min_value=SPLIT_N, max_value=3 * SPLIT_N), seed=st.integers(0, 2**32 - 1))
    @example(n=131_072, seed=0)  # 486 columns, 338 in the last row
    @example(n=131_101, seed=1)  # prime: 367 values in the last row
    @example(n=262_139, seed=2)  # prime, four times the threshold
    @example(n=300_000, seed=3)  # 400 x 750: no partial last row
    # The partial last row spans more than one column block, and the last
    # block is narrower than the rest: 810 columns, 359 in the last row.
    @example(n=393_209, seed=4)
    @example(n=1 << 20, seed=5)
    @example(n=3_999_997, seed=6)  # the long_series length: 2560 x 3125
    @settings(max_examples=15, deadline=None)
    def test_matches_the_monolithic_transform(self, n, seed):
        n1, n2 = _factor(n)
        assert n2 > 1 and n1 * n2 >= 2 * n
        x = noisy_sine(n, seed)
        ours = autocorrelation(validate_series(x)).values
        assert np.abs(ours - monolithic_acf(x)).max() < 1e-13

    @pytest.mark.parametrize("n", [51_997, 64_800])
    def test_below_the_threshold_is_the_monolithic_transform_bit_for_bit(self, n):
        # 51,997 is the longest upsampled suite case; 64,800 is the longest
        # series whose next_fast_len(2n, real=True) stays below the threshold.
        assert _factor(n)[1] == 1
        x = noisy_sine(n, 4)
        assert np.array_equal(autocorrelation(validate_series(x)).values, monolithic_acf(x))

    @pytest.mark.parametrize("n, cases", STORAGE_CASES, ids=[str(n) for n, _ in STORAGE_CASES])
    def test_planar_half_spectrum_is_the_complex_one_bit_for_bit(self, n, cases):
        assert cases <= storage_cases(n)
        x = noisy_sine(n, n)
        ours = autocorrelation(validate_series(x)).values
        assert ours.tobytes() == complex_spectrum_acf(x).tobytes()

    def test_twiddle_tables_give_every_twiddle_within_a_few_ulp(self):
        # n2 = 375 splits as b = 19q + r over 20 coarse steps, 5 past n2.
        n1, n2 = _factor(69_990)
        twiddles = twiddle_rows(_twiddle_tables(n1, n2), 0, n1 // 2 + 1, n2)
        # The reference angle is rounded once, in extended precision where
        # the platform has it.
        turns = (np.arange(n1 // 2 + 1)[:, None] * np.arange(n2)).astype(np.longdouble)
        angle = 8 * np.arctan(np.longdouble(1)) * turns / (n1 * n2)
        error = np.hypot(twiddles.real - np.cos(angle), twiddles.imag + np.sin(angle))
        assert error.max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [69_990, 1_000_003])  # odd and even n2
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

    def test_huge_mean_scales_exactly(self):
        # Unscaled, the sum behind the mean overflows. The values are scaled
        # by a power of two first, so the result is bit for bit that of
        # their copy times 2**-1000, with no RuntimeWarning on the way.
        x = 1e308 + 1e306 * np.sin(2 * np.pi * np.arange(SPLIT_N + 1) / 100)
        acf = autocorrelation(validate_series(x)).values
        assert np.all(np.isfinite(acf))
        scaled = autocorrelation(validate_series(np.ldexp(x, -1000))).values
        assert acf.tobytes() == scaled.tobytes()


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
