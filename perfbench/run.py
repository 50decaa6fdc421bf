#!/usr/bin/env python3
"""Benchmark of the seasonlen package, built from the checkout's own src/.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long_series --seed 7 --seconds 10 --trace 0

Workloads (closed loop, one caller, next call after the previous returns):

    long_series     detect_season_length on two 1e6-sample in-memory series
    suite_eval      one serial evaluate_manifest pass over the 110-case suite
    suite_parallel  the same pass through evaluate_manifest(jobs=2)

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
replays the detector stage by stage and reports per-layer metrics. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The run exits with code 2 when the
checkout holds no seasonlen source.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("long_series", "suite_eval", "suite_parallel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 replays the detector stage by stage and reports per-layer metrics")
    parser.add_argument("--small", action="store_true",
                        help="shrink the inputs, for the benchmark's own smoke test")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "seasonlen" / "__init__.py").is_file():
        print(f"error: no seasonlen package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Importing bench imports numpy, scipy and seasonlen; that time is part
    # of set-up, as it is for any program that detects one series.
    start = time.perf_counter()
    import bench
    import_s = time.perf_counter() - start

    package_dir = Path(bench.seasonlen.__file__).resolve().parent
    if package_dir != (SRC / "seasonlen").resolve():
        print(f"error: seasonlen imported from {package_dir}, not {SRC}", file=sys.stderr)
        return 2

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       small=args.small, import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
