"""Stage-by-stage replay of detect_season_length, for the traced run.

The package has no internal tracing, so the traced run calls the stage
functions the package exports in the order detect_season_length calls
them, and times each call from here. Every replay is checked against
detect_season_length on the same input (season, trend degree and zero
count), so the trace measures the same program as the untraced run.

Only the traced run imports this module: it depends on the stage
functions' signatures, the untraced run only on the public entry points.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.fft

from seasonlen import (
    FAMILY_NAMES,
    DetectionConfig,
    TimeSeries,
    apply_filter,
    autocorrelation,
    baseline_periodogram,
    design_butterworth_lowpass,
    detect_season_length,
    detrend_acf,
    estimate_from_zeros,
    find_zeros,
    fit_polynomial,
    gen_family,
    interpolate_linear,
    remove_trend,
    select_trend_degree,
    validate_series,
)
from seasonlen.cli import read_series_csv
from seasonlen.core import TooShortError, ZeroVarianceError
from seasonlen.pipeline import MIN_SEASON

import bench

#: Replayed stages, in call order; pipeline glue is detect time minus these.
STAGES = (
    "preprocess.interpolate",
    "preprocess.design",
    "preprocess.filter",
    "detrend.select",
    "detrend.fit",
    "detrend.remove",
    "autocorr.acf",
    "autocorr.acf_detrend",
    "zerocross.find_zeros",
    "zerocross.segment",
)


class Spans:
    """Wall and process CPU seconds per span name, summed over one operation.

    Process CPU time counts every thread of the process, so a span whose
    CPU time exceeds its wall time ran on more than one core.
    """

    def __init__(self) -> None:
        self.wall: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall[name] += time.perf_counter() - wall
            self.cpu[name] += time.process_time() - cpu


def outcome_of(result) -> tuple:
    """The part of a DetectionResult the replay reproduces."""
    return result.unscaled_length, result.trend_degree, result.diagnostics.zero_count


def replay(series: TimeSeries, config: DetectionConfig, span: Spans) -> tuple[tuple, dict]:
    """Run the detector's stages one call at a time.

    Returns the outcome detect_season_length would give (see outcome_of)
    and the input's counts. Byte counts are computed from array sizes,
    not measured.
    """
    counts = {"nfft": 0, "fft_bytes": 0, "filter_bytes": 0,
              "zero_count": 0, "raw_distances": 0, "survivors": 0}
    with span("preprocess.interpolate"):
        upsampled = interpolate_linear(series, config.interp_factor)
    with span("preprocess.design"):
        spec = design_butterworth_lowpass(config.filter_order, config.filter_cutoff)
    with span("preprocess.filter"):
        filtered = apply_filter(upsampled, spec)
    n = len(filtered)
    # Forward and backward pass, each reading and writing n float64 values.
    counts["filter_bytes"] = 2 * 2 * 8 * n
    if np.ptp(filtered.values) == 0.0:
        return (None, 1, 0), counts

    with span("detrend.select"):
        degree = select_trend_degree(filtered, config.trend_log_threshold)
    with span("detrend.fit"):
        model = fit_polynomial(filtered, degree)
    with span("detrend.remove"):
        detrended = remove_trend(filtered, model)

    # autocorrelation zero-pads to next_fast_len(2n): real input, complex
    # half spectrum, real inverse.
    nfft = scipy.fft.next_fast_len(2 * n)
    counts["nfft"] = nfft
    counts["fft_bytes"] = 8 * nfft + 16 * (nfft // 2 + 1) + 8 * nfft
    with span("autocorr.acf"):
        try:
            acf = autocorrelation(detrended)
        except ZeroVarianceError:
            acf = None
    if acf is None:
        return (None, degree, 0), counts
    with span("autocorr.acf_detrend"):
        acf = detrend_acf(acf)

    with span("zerocross.find_zeros"):
        zeros = find_zeros(acf, config.zero_tolerance_rel)
    counts["zero_count"] = int(zeros.size)
    if zeros.size < config.min_zero_count:
        return (None, degree, int(zeros.size)), counts
    with span("zerocross.segment"):
        season, analysis = estimate_from_zeros(
            zeros, config.quotient_threshold, config.interp_factor
        )
    counts["raw_distances"] = int(analysis.raw_distances.size)
    counts["survivors"] = int(analysis.distances.size)
    if season is None or season < MIN_SEASON:
        return (None, degree, int(zeros.size)), counts
    return (season, degree, int(zeros.size)), counts


def _traced_detect(workload, key, series, span: Spans, detect_times: list, counts: dict):
    """Validate, detect and replay one input; check the replay against detect."""
    with span("core.validate"):
        validate_series(series.values, series.delta)
    before = span.wall["pipeline.detect"]
    with span("pipeline.detect"):
        result = detect_season_length(series, workload.config)
    detect_times.append(span.wall["pipeline.detect"] - before)
    outcome, counts[key] = replay(series, workload.config, span)
    counts[key]["degree"] = outcome[1]
    expected = outcome_of(result)
    workload.log.count(
        outcome == expected,
        f"stage replay of {key!r} gives {outcome}, detect_season_length gives {expected}",
    )
    return result


def traced_long_op(workload, span: Spans, detect_times: list, counts: dict) -> None:
    # Cycle through the inputs by traced calls so far: the untraced calls
    # in between advance the workload's own cycle in step with this one.
    index = len(detect_times) % len(workload.inputs)
    series = workload.inputs[index]
    result = _traced_detect(workload, index, series, span, detect_times, counts)
    workload.log.check(index, result)
    with span("pipeline.baseline"):
        baseline = baseline_periodogram(series)
    workload.log.check(("baseline", index), baseline)


def traced_suite_op(workload, span: Spans, detect_times: list, counts: dict) -> None:
    """One pass over the suite, case by case, as evaluate_manifest makes it serially."""
    records = {record.case: record for record in workload.log.first("records")}
    for entry in workload.entries:
        with span("cli.read_csv"):
            series = read_series_csv(workload.manifest.parent / entry["path"])
        case = entry["case"]
        result = _traced_detect(workload, case, series, span, detect_times, counts)
        with span("pipeline.baseline"):
            try:
                baseline = baseline_periodogram(series)
            except TooShortError:
                baseline = None
        record = records[case]
        workload.log.count(
            result.unscaled_length == record.detected and baseline == record.baseline_detected,
            f"case {case}: per-case calls disagree with evaluate_manifest's record",
        )


def _generate_families(workload) -> float:
    names = FAMILY_NAMES if workload.family == "all" else (workload.family,)
    start = time.perf_counter()
    for name in names:
        gen_family(name, workload.seed)
    return time.perf_counter() - start


PER_LAYER_UNITS = {
    "autocorr.acf_s": "s",
    "autocorr.acf_detrend_s": "s",
    "autocorr.nfft": "count",
    "autocorr.fft_bytes": "bytes",
    "detrend.select_s": "s",
    "detrend.fit_s": "s",
    "detrend.remove_s": "s",
    "detrend.cpu_per_wall": "ratio",
    "detrend.degree2_share": "ratio",
    "preprocess.interpolate_s": "s",
    "preprocess.design_s": "s",
    "preprocess.filter_s": "s",
    "preprocess.filter_bytes": "bytes",
    "cli.read_csv_s": "s",
    "cli.gen_write_s": "s",
    "cli.eval_overhead_s": "s",
    "synthgen.generate_s": "s",
    "core.validate_s": "s",
    "pipeline.detect_s": "s",
    "pipeline.glue_s": "s",
    "pipeline.baseline_s": "s",
    "pipeline.case_p90_s": "s",
    "zerocross.find_zeros_s": "s",
    "zerocross.segment_s": "s",
    "zerocross.zero_count": "count",
    "zerocross.survivor_ratio": "ratio",
    "bench.trace_overhead_s": "s",
}

DETREND_STAGES = ("detrend.select", "detrend.fit", "detrend.remove")


def traced_phase(workload, seconds: float, setup_parts: list[dict]) -> dict:
    """Alternate untraced and traced operations; return the per-layer metrics.

    Times are seconds per operation, the median over the traced
    operations; an operation is one call (long_series) or one pass over
    the suite. Counts are totals over the workload's distinct inputs.
    """
    suite = isinstance(workload, bench.Suite)
    traced_op = traced_suite_op if suite else traced_long_op
    spans: list[Spans] = []
    detect_times: list[float] = []
    counts: dict = {}
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(bench.timed(workload.operate, workload.log))
        span = Spans()
        traced.append(bench.timed(
            lambda: traced_op(workload, span, detect_times, counts), workload.log))
        spans.append(span)

    def per_op(name: str) -> float:
        return statistics.median(span.wall.get(name, 0.0) for span in spans)

    def total(name: str) -> int:
        return sum(c[name] for c in counts.values())

    if suite:
        generate_s = statistics.median(_generate_families(workload) for _ in setup_parts)
        gen_write_s = statistics.median(p["cli.generate_suite"] for p in setup_parts) - generate_s
        case_work = statistics.median(
            sum(span.wall.get(name, 0.0)
                for name in ("cli.read_csv", "pipeline.detect", "pipeline.baseline"))
            for span in spans
        )
        eval_overhead_s = statistics.median(untraced) - case_work
    else:
        generate_s = statistics.median(p["synthgen.generate"] for p in setup_parts)
        gen_write_s = eval_overhead_s = 0.0  # no CSV and no eval on this workload
    detrend_wall = sum(span.wall.get(name, 0.0) for span in spans for name in DETREND_STAGES)
    detrend_cpu = sum(span.cpu.get(name, 0.0) for span in spans for name in DETREND_STAGES)
    raw_distances = total("raw_distances")
    values = {
        "autocorr.acf_s": per_op("autocorr.acf"),
        "autocorr.acf_detrend_s": per_op("autocorr.acf_detrend"),
        "autocorr.nfft": total("nfft"),
        "autocorr.fft_bytes": total("fft_bytes"),
        "detrend.select_s": per_op("detrend.select"),
        "detrend.fit_s": per_op("detrend.fit"),
        "detrend.remove_s": per_op("detrend.remove"),
        "detrend.cpu_per_wall": detrend_cpu / detrend_wall if detrend_wall else 0.0,
        "detrend.degree2_share": sum(c["degree"] == 2 for c in counts.values()) / len(counts),
        "preprocess.interpolate_s": per_op("preprocess.interpolate"),
        "preprocess.design_s": per_op("preprocess.design"),
        "preprocess.filter_s": per_op("preprocess.filter"),
        "preprocess.filter_bytes": total("filter_bytes"),
        "cli.read_csv_s": per_op("cli.read_csv"),
        "cli.gen_write_s": gen_write_s,
        "cli.eval_overhead_s": eval_overhead_s,
        "synthgen.generate_s": generate_s,
        "core.validate_s": per_op("core.validate"),
        "pipeline.detect_s": per_op("pipeline.detect"),
        "pipeline.glue_s": statistics.median(
            span.wall.get("pipeline.detect", 0.0) - sum(span.wall.get(s, 0.0) for s in STAGES)
            for span in spans
        ),
        "pipeline.baseline_s": per_op("pipeline.baseline"),
        "pipeline.case_p90_s": (statistics.quantiles(detect_times, n=10)[-1]
                                if len(detect_times) > 1 else detect_times[0]),
        "zerocross.find_zeros_s": per_op("zerocross.find_zeros"),
        "zerocross.segment_s": per_op("zerocross.segment"),
        "zerocross.zero_count": total("zero_count"),
        "zerocross.survivor_ratio": total("survivors") / raw_distances if raw_distances else 0.0,
        "bench.trace_overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
