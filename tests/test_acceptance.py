"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints exactly one pass/fail line (visible with -s, or in the
captured output on failure) and then asserts.
"""

import math
import time

import numpy as np

from seasonlen.cli import evaluate_manifest, generate_suite
from seasonlen.core import DetectionConfig, validate_series
from seasonlen.detrend import design_matrix, fit_polynomial
from seasonlen.autocorr import autocorrelation
from seasonlen.pipeline import (
    detect_season_length,
    exact_season_oracle,
    is_repetition_of_shorter,
    repeats_with_period,
)
from seasonlen.preprocess import (
    apply_filter,
    design_butterworth_lowpass,
    magnitude_response,
)
from seasonlen.synthgen import SeriesSpec, gen_family, generate
from seasonlen.zerocross import estimate_from_zeros

REFERENCE_DISTANCES = np.array(
    [281.0, 546.0, 697.0, 703.0, 704.0, 705.0, 706.0, 706.0, 1411.0, 1411.0, 2823.0]
)


def report(number, name, ok, detail=""):
    line = f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def sine(period, n, noise=0.0, seed=0):
    t = np.arange(n, dtype=float)
    values = np.sin(2 * np.pi * t / period)
    if noise:
        values = values + np.random.default_rng(seed).normal(0, noise, n)
    return validate_series(values)


def admitting_config(period):
    return DetectionConfig(filter_cutoff=0.2 * 2 * math.pi / period)


def test_criterion_01_distance_segmentation_golden():
    zeros = np.cumsum([0.0, *REFERENCE_DISTANCES])
    start = time.perf_counter()
    season, diagnostics = estimate_from_zeros(zeros, 0.5, 1)
    elapsed = time.perf_counter() - start
    a, b = diagnostics.interval
    ok = (
        diagnostics.change_points.tolist() == [2, 8, 9, 10]
        and (a, b) == (2, 8)
        and diagnostics.distances[a:b].tolist() == [697, 703, 704, 705, 706, 706]
        and season == 1407.0
        and elapsed < 1e-3
    )
    report(1, "distance segmentation golden", ok, f"season={season}, {elapsed*1e6:.0f}us")


def test_criterion_02_exact_oracle_golden():
    y = np.tile([0, 2, 1, 2], 4)
    start = time.perf_counter()
    period = exact_season_oracle(y)
    elapsed = time.perf_counter() - start
    eight_rejected = repeats_with_period(y, 8) and is_repetition_of_shorter(y[:8])
    ok = period == 4 and eight_rejected and elapsed < 1e-3
    report(2, "exact repetition oracle golden", ok, f"period={period}, {elapsed*1e6:.0f}us")


def test_criterion_03_sinusoid_sweep():
    start = time.perf_counter()
    errors = {}
    for period in (8, 20, 50, 120, 500):
        result = detect_season_length(sine(period, 10 * period), admitting_config(period))
        detected = result.unscaled_length
        errors[period] = None if detected is None else abs(detected - period) / period
    elapsed = time.perf_counter() - start
    ok = all(err is not None and err <= 0.05 for err in errors.values()) and elapsed < 5.0
    detail = ", ".join(
        f"p={p}: {'none' if e is None else f'{e:.1%}'}" for p, e in errors.items()
    )
    report(3, "noiseless sinusoid sweep within 5%", ok, detail + f"; {elapsed:.2f}s")


def test_criterion_04_trend_robustness():
    t = np.arange(2000, dtype=float)
    base = np.sin(2 * np.pi * t / 50)
    config = admitting_config(50)

    linear = detect_season_length(validate_series(base + 0.01 * t), config)
    quadratic = detect_season_length(validate_series(base + 1e-5 * t * t), config)

    def within_margin(result):
        return (
            result.unscaled_length is not None
            and abs(result.unscaled_length - 50) / 50 <= 0.2
        )

    ok = (
        linear.trend_degree == 1
        and quadratic.trend_degree == 2
        and within_margin(linear)
        and within_margin(quadratic)
    )
    report(
        4,
        "trend degree selection and robustness",
        ok,
        f"linear: deg={linear.trend_degree} s={linear.unscaled_length:.1f}; "
        f"quadratic: deg={quadratic.trend_degree} s={quadratic.unscaled_length:.1f}",
    )


def test_criterion_05_noise_resilience():
    config = admitting_config(50)
    rates = {}
    for sigma in (0.1, 0.2, 0.3):
        passed = 0
        for seed in range(20):
            result = detect_season_length(sine(50, 2000, noise=sigma, seed=seed), config)
            if result.unscaled_length is not None and abs(result.unscaled_length - 50) / 50 <= 0.2:
                passed += 1
        rates[sigma] = passed / 20
    ok = all(rate >= 0.8 for rate in rates.values())
    report(5, "noise resilience >= 80%", ok, str(rates))


def test_criterion_06_no_season_behavior():
    cases = gen_family("NoSeason", 7)
    no_season = sum(
        1 for series, _, _ in cases if not detect_season_length(series).is_seasonal
    )
    # A strong pure quadratic must come back non-seasonal through the
    # distance-discard guard; the mechanism itself is pinned by
    # test_pipeline.py::test_quadratic_false_positive_mechanism.
    quadratic = validate_series(np.arange(500, dtype=float) ** 2)
    quad_result = detect_season_length(quadratic)
    ok = no_season >= 6 and not quad_result.is_seasonal and quad_result.trend_degree == 2
    report(6, "no-season behavior", ok, f"{no_season}/10 no-season")


def test_criterion_07_aggregate_benchmark(tmp_path):
    manifest = generate_suite("all", 7, tmp_path)
    records, summary = evaluate_manifest(manifest, margin=0.2)
    total = summary["total"]
    rate = total["detector_passed"] / total["cases"]
    baseline_rate = total["baseline_passed"] / total["cases"]
    ok = total["cases"] == 110 and rate >= 0.70 and rate > baseline_rate
    report(
        7,
        "aggregate synthetic benchmark",
        ok,
        f"detector {total['detector_passed']}/{total['cases']} ({rate:.1%}), "
        f"baseline {total['baseline_passed']}/{total['cases']} ({baseline_rate:.1%})",
    )


def test_criterion_08_acf_correctness():
    worst = 0.0
    ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 257))
        x = rng.normal(0, 1, n)
        values = autocorrelation(validate_series(x)).values
        centered = x - x.mean()
        direct = np.array(
            [np.dot(centered[: n - lag], centered[lag:]) for lag in range(n)]
        ) / (centered @ centered)
        worst = max(worst, float(np.abs(values - direct).max()))
        ok = ok and values[0] == 1.0 and np.abs(values).max() <= 1 + 1e-9
    ok = ok and worst < 1e-9
    report(8, "autocorrelation matches direct sum", ok, f"max deviation {worst:.2e}")


def test_criterion_09_regression_correctness():
    worst_ortho = 0.0
    worst_nesting = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 400))
        series = validate_series(rng.normal(0, 1, n) + 0.02 * np.arange(n))
        costs = {}
        for degree in (1, 2):
            model = fit_polynomial(series, degree)
            costs[degree] = model.cost
            basis = design_matrix(n, degree)
            residual = series.values - basis @ model.coefficients
            for column in basis.T:
                rel = abs(residual @ column) / max(
                    np.linalg.norm(residual) * np.linalg.norm(column), 1e-300
                )
                worst_ortho = max(worst_ortho, rel)
        worst_nesting = max(worst_nesting, (costs[2] - costs[1]) / max(costs[1], 1e-300))
    ok = worst_ortho <= 1e-8 and worst_nesting <= 1e-12
    report(
        9,
        "regression orthogonality and nesting",
        ok,
        f"orthogonality {worst_ortho:.2e}, nesting {worst_nesting:.2e}",
    )


def test_criterion_10_filter_correctness():
    spec = design_butterworth_lowpass(2, 0.001 * math.pi)
    dc = magnitude_response(spec, [1e-12])[0]
    half_power = magnitude_response(spec, [spec.cutoff])[0]
    grid = np.linspace(1e-4, math.pi - 1e-4, 100)
    gains = magnitude_response(spec, grid)
    monotone = bool(np.all(np.diff(gains) <= 1e-12))

    t = np.arange(2000, dtype=float)
    x = np.sin(2 * np.pi * t / 100)
    filtered = apply_filter(
        validate_series(x), design_butterworth_lowpass(2, 0.05 * math.pi)
    ).values

    def crossings(v):
        idx = np.flatnonzero(v[:-1] * v[1:] < 0)
        return idx + v[idx] / (v[idx] - v[idx + 1])

    before = crossings(x)
    after = crossings(filtered)
    interior = before[(before > 200) & (before < 1800)]
    max_shift = max(np.min(np.abs(after - c)) for c in interior)

    ok = (
        abs(dc - 1.0) <= 1e-6
        and abs(half_power - 1 / math.sqrt(2)) <= 1e-3
        and monotone
        and max_shift < 0.5
    )
    report(
        10,
        "filter correctness",
        ok,
        f"dc={dc:.8f}, half-power={half_power:.5f}, max shift {max_shift:.2e}",
    )


def test_criterion_11_performance():
    sizes = (50_000, 100_000)
    inputs = []
    for n in sizes:
        rng = np.random.default_rng(1)
        inputs.append(validate_series(
            np.sin(2 * np.pi * np.arange(n) / 1000) + rng.normal(0, 0.2, n)
        ))
        # Warms up caches and the FFT plan.
        assert detect_season_length(inputs[-1]).is_seasonal
    # The sizes alternate, so drift in the host's speed slows both alike.
    best = [math.inf] * len(sizes)
    for _ in range(9):
        for i, series in enumerate(inputs):
            start = time.perf_counter()
            detect_season_length(series)
            best[i] = min(best[i], time.perf_counter() - start)
    t_half, t_full = best
    ratio = t_full / t_half
    ok = t_full < 5.0 and ratio <= 2.6
    report(
        11,
        "performance at 100k samples",
        ok,
        f"100k in {t_full:.3f}s, 50k->100k ratio {ratio:.2f}",
    )


def test_criterion_12_invariance_suite():
    fast = DetectionConfig(interp_factor=2, filter_cutoff=0.3)
    failures = []
    case = 0

    def detect(series):
        return detect_season_length(series, fast)

    # 40 amplitude-scale cases.
    for i in range(40):
        rng = np.random.default_rng(1000 + i)
        period = int(rng.integers(16, 40))
        n = int(rng.integers(8, 13)) * period
        base = validate_series(
            np.sin(2 * np.pi * np.arange(n) / period) + rng.normal(0, 0.05, n)
        )
        scale = float(2.0 ** rng.integers(-4, 5)) if i % 2 == 0 else float(rng.uniform(0.1, 50))
        a, b = detect(base), detect(validate_series(base.values * scale))
        case += 1
        if a.is_seasonal != b.is_seasonal:
            failures.append(f"amplitude case {i}: seasonal flag flipped")
        elif a.is_seasonal and not math.isclose(
            a.unscaled_length, b.unscaled_length, rel_tol=1e-6
        ):
            failures.append(f"amplitude case {i}")

    # 30 offset cases.
    for i in range(30):
        rng = np.random.default_rng(2000 + i)
        period = int(rng.integers(16, 40))
        n = int(rng.integers(8, 13)) * period
        base = validate_series(
            np.sin(2 * np.pi * np.arange(n) / period) + rng.normal(0, 0.05, n)
        )
        offset = float(rng.uniform(-500, 500))
        a, b = detect(base), detect(validate_series(base.values + offset))
        case += 1
        if a.is_seasonal != b.is_seasonal:
            failures.append(f"offset case {i}: seasonal flag flipped")
        elif a.is_seasonal and not math.isclose(
            a.unscaled_length, b.unscaled_length, rel_tol=1e-6
        ):
            failures.append(f"offset case {i}")

    # 30 seed-reproducibility cases.
    for i in range(30):
        spec = SeriesSpec(
            "sinusoid",
            length=400,
            seed=3000 + i,
            period=25,
            noise_sigma=0.3,
            outlier_count=4,
            outlier_magnitude=5.0,
        )
        first, _ = generate(spec)
        second, _ = generate(spec)
        case += 1
        if not np.array_equal(first.values, second.values):
            failures.append(f"reproducibility case {i}: values differ")
            continue
        ra, rb = detect(first), detect(second)
        if (ra.unscaled_length, ra.season_length) != (rb.unscaled_length, rb.season_length):
            failures.append(f"reproducibility case {i}: results differ")

    ok = case == 100 and not failures
    report(12, "invariance suite (100 cases)", ok, "; ".join(failures[:3]) or "all held")
