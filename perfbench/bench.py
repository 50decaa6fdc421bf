"""Workloads, measurement and end-to-end metrics of the seasonlen benchmark.

run.py imports this module after putting the checkout's src/ first on
sys.path; the import time of numpy, scipy and seasonlen is part of
set-up. The benchmark drives the package through its public functions
only and sets no environment variable, thread counts included.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import seasonlen
from seasonlen import (
    DetectionConfig,
    SeriesSpec,
    baseline_periodogram,
    detect_season_length,
    generate,
)
from seasonlen.cli import evaluate_manifest, generate_suite

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Set-up is repeated this often per run; setup_s reports the median.
SETUP_REPS = 3
#: Relative error eval counts as a pass (its default).
MARGIN = 0.2
PARALLEL_JOBS = 2
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LONG_LENGTH = 1_000_000
LONG_PERIOD = 1000.0
LONG_NOISE = 0.3
#: One linear and one quadratic trend; each reaches 1000 times the
#: sinusoid's amplitude at the end of the full-size series.
LONG_TRENDS = ((0.0, 1e-3), (0.0, 0.0, 1e-9))
SUITE_FAMILY = "all"

#: --small sizes, for the benchmark's own smoke test.
SMALL_LONG_LENGTH = 20_000
SMALL_SUITE_FAMILY = "Noise"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "samples_per_s": "1/s",
    "cpu_per_wall": "ratio",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "baseline_pass_rate": "ratio",
}


class ResultLog:
    """Counts operations and the ones that failed.

    An operation fails when it raises, or when its result differs from
    the first result seen for the same input in this run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._first: dict = {}

    def count(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {message}", file=sys.stderr)

    def check(self, key, result) -> None:
        first = self._first.setdefault(key, result)
        self.count(result == first, f"result for {key!r} differs from the first one")

    def first(self, key):
        return self._first.get(key)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def within_margin(detected, reference: float) -> bool:
    return detected is not None and abs(detected - reference) / reference <= MARGIN


class LongSeries:
    """detect_season_length on two long in-memory series, alternating.

    Both are a noisy sinusoid of period 1000 from synthgen.generate, one
    under a linear and one under a quadratic trend, so both trend degrees
    run. Upsampled, each is 4e6 float64 values (32 MB), far beyond L2.
    """

    name = "long_series"

    def __init__(self, seed: int, small: bool) -> None:
        length = SMALL_LONG_LENGTH if small else LONG_LENGTH
        self.specs = [
            SeriesSpec("sinusoid", length, seed * len(LONG_TRENDS) + i, period=LONG_PERIOD,
                       noise_sigma=LONG_NOISE, trend_degree=len(coeffs) - 1,
                       trend_coefficients=coeffs)
            for i, coeffs in enumerate(LONG_TRENDS)
        ]
        self.config = DetectionConfig()
        self.log = ResultLog()
        self.samples_per_op = length
        self.inputs: list = []
        self.calls = 0

    def setup(self) -> dict[str, float]:
        start = time.perf_counter()
        self.inputs = [generate(spec)[0] for spec in self.specs]
        generate_s = time.perf_counter() - start
        self.operate()
        return {"synthgen.generate": generate_s}

    def operate(self) -> None:
        index = self.calls % len(self.inputs)
        self.calls += 1
        self.log.check(index, detect_season_length(self.inputs[index], self.config))

    def detected(self, index: int) -> float | None:
        first = self.log.first(index)
        return None if first is None else first.unscaled_length

    def after_setup(self) -> None:
        pass  # each input's first result is its reference

    def pass_rates(self) -> tuple[float, float]:
        detected = [self.detected(i) for i in range(len(self.inputs))]
        baseline = []
        for i, series in enumerate(self.inputs):
            baseline.append(baseline_periodogram(series))
            self.log.check(("baseline", i), baseline[-1])
        return (float(np.mean([within_margin(d, LONG_PERIOD) for d in detected])),
                float(np.mean([within_margin(b, LONG_PERIOD) for b in baseline])))

    def problems(self) -> list[str]:
        return [
            f"input {i}: detected {self.detected(i)}, period {LONG_PERIOD} +/- {MARGIN:.0%}"
            for i in range(len(self.inputs))
            if not within_margin(self.detected(i), LONG_PERIOD)
        ]

    def sizes(self) -> dict[str, int]:
        n = self.samples_per_op
        upsampled = self.config.interp_factor * (n - 1) + 1
        return {"raw_bytes_per_series": 8 * n, "upsampled_bytes_per_series": 8 * upsampled}


class Suite:
    """evaluate_manifest passes over the generated 110-case suite.

    Set-up writes the suite to disk with generate_suite. With jobs > 1,
    each set-up is followed by a serial pass; every parallel pass must
    give the same records.
    """

    def __init__(self, name: str, seed: int, workdir: Path, small: bool, jobs: int) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.family = SMALL_SUITE_FAMILY if small else SUITE_FAMILY
        self.jobs = jobs
        self.config = DetectionConfig()
        self.log = ResultLog()
        self.manifest: Path | None = None
        self.entries: list[dict] = []
        self.samples_per_op = 0

    def setup(self) -> dict[str, float]:
        if self.manifest is not None:
            shutil.rmtree(self.manifest.parent)
        outdir = Path(tempfile.mkdtemp(dir=self.workdir))
        start = time.perf_counter()
        self.manifest = generate_suite(self.family, self.seed, outdir)
        generate_suite_s = time.perf_counter() - start
        self.operate()
        return {"cli.generate_suite": generate_suite_s}

    def after_setup(self) -> None:
        """Untimed work after each set-up: the benchmark's own, not the user's.

        With jobs > 1, a serial pass whose records every parallel pass
        must match. Then the manifest is read and one pass's raw samples
        counted.
        """
        if self.jobs > 1:
            self.log.check("records", self._evaluate(1))
        with self.manifest.open() as handle:
            self.entries = [json.loads(line) for line in handle if line.strip()]
        self.samples_per_op = 0
        for entry in self.entries:
            with (self.manifest.parent / entry["path"]).open() as handle:
                self.samples_per_op += sum(1 for _ in handle) - 1  # header row

    def _evaluate(self, jobs: int) -> tuple:
        records, _ = evaluate_manifest(self.manifest, margin=MARGIN, jobs=jobs, config=self.config)
        return tuple(records)

    def operate(self) -> None:
        self.log.check("records", self._evaluate(self.jobs))

    def pass_rates(self) -> tuple[float, float]:
        records = self.log.first("records")
        return (sum(r.passed for r in records) / len(records),
                sum(r.baseline_passed for r in records) / len(records))

    def problems(self) -> list[str]:
        return []  # the log compares every pass's records with the first

    def sizes(self) -> dict[str, int]:
        return {"raw_samples_per_pass": self.samples_per_op,
                "upsampled_bytes_per_pass": 8 * self.config.interp_factor * self.samples_per_op}


def make_workload(name: str, seed: int, workdir: Path, small: bool):
    if name == "long_series":
        return LongSeries(seed, small)
    if name == "suite_eval":
        return Suite(name, seed, workdir, small, jobs=1)
    if name == "suite_parallel":
        return Suite(name, seed, workdir, small, jobs=PARALLEL_JOBS)
    raise ValueError(f"unknown workload {name!r}")


def cpu_seconds() -> float:
    """CPU seconds of this process, all threads, plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def timed(op, log: ResultLog) -> float:
    """Wall seconds of one operation; one that raises counts as failed."""
    start = time.perf_counter()
    try:
        op()
    except Exception:
        traceback.print_exc()
        log.count(False, "operation raised")
    return time.perf_counter() - start


def src_line_count() -> int:
    return sum(len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def environment(workload) -> dict:
    """What the run found, read in-process; nothing here is set or tuned."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "src_lines": src_line_count(),
        "input_sizes": workload.sizes(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
        import_s: float = 0.0) -> dict:
    """Set up, measure and check one workload; return the result object."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        return measure(make_workload(name, seed, workdir, small), seconds, trace, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(workload, seconds: float, trace: bool, import_s: float) -> dict:
    setups, setup_parts = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        setup_parts.append(workload.setup())
        setups.append(time.perf_counter() - start)
        workload.after_setup()

    if trace:
        import replay

        metrics = replay.traced_phase(workload, seconds, setup_parts)
        summary = {}
    else:
        times = []
        cpu_start, wall_start = cpu_seconds(), time.perf_counter()
        deadline = wall_start + seconds
        while not times or time.perf_counter() < deadline:
            times.append(timed(workload.operate, workload.log))
        wall = time.perf_counter() - wall_start
        cpu = cpu_seconds() - cpu_start
        detector_rate, baseline_rate = workload.pass_rates()
        values = {
            "setup_s": import_s + statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "samples_per_s": workload.samples_per_op * len(times) / wall,
            "cpu_per_wall": cpu / wall,
            "peak_rss_mb": peak_rss_mb(),
            "pass_rate": detector_rate,
            "baseline_pass_rate": baseline_rate,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        summary = {"timed_operations": len(times), "setup_runs": len(setups)}

    problems = workload.problems()
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    log = workload.log
    print(f"# {workload.name} environment: {json.dumps(environment(workload))}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(f"{'error_rate':<28} {log.error_rate:>16.6g} ratio"
          f"  ({log.failed} failed of {log.attempted} attempted)")
    for name, value in summary.items():
        print(f"{name:<28} {value:>16} count")
    return {
        "correct": log.failed == 0 and not problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
