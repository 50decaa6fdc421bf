"""Command line interface: detect, eval, and gen subcommands.

detect reads one numeric CSV column and prints a JSON result. gen
writes a benchmark suite (one CSV per case plus a JSON-lines manifest).
eval runs both the detector and the periodogram baseline over a
manifest, writes per-case records as JSON lines, and prints a summary
table with per-family pass counts.

Exit codes: 0 when the run completed (a no-season result and a low
pass rate are data, not errors), 2 on usage, input, or validation
problems. Every command reports a DetectionError, OSError or ValueError
as one line, "error: <type>: <message>", on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from seasonlen.core import (
    DetectionConfig,
    DetectionError,
    TooShortError,
    validate_series,
)
from seasonlen.pipeline import baseline_periodogram, detect_season_length
from seasonlen.synthgen import FAMILY_NAMES, gen_family

__all__ = [
    "EvalRecord",
    "read_series_csv",
    "generate_suite",
    "evaluate_manifest",
    "format_summary",
    "main",
]


@dataclass(frozen=True)
class EvalRecord:
    """Scored outcome of one benchmark case.

    passed means: both detected and reference absent, or both present
    with relative error within the margin. The margin is applied
    against each acceptable reference when several exist; the smallest
    relative error is reported.
    """

    case: str
    family: str
    detected: float | None
    reference: object
    relative_error: float | None
    passed: bool
    baseline_detected: float | None
    baseline_relative_error: float | None
    baseline_passed: bool


def _score(detected: float | None, reference: object, margin: float) -> tuple[float | None, bool]:
    if reference is None:
        return None, detected is None
    refs = reference if isinstance(reference, (list, tuple)) else (reference,)
    if detected is None:
        return None, False
    error = min(abs(detected - r) / r for r in refs)
    return error, error <= margin


def read_series_csv(path, column: str = "0", delimiter: str = ",", delta: float = 1.0):
    """Read one numeric column from a CSV file.

    The column is selected by zero-based index or by header name. A
    header row is detected automatically: if the first row's selected
    cell does not parse as a number it is skipped. Blank lines are
    ignored, and a parse error names the file's physical line number.
    The delimiter must be one character other than a line break.

    numpy.loadtxt parses the column. Where it rejects the data, the
    csv-module reader runs instead: it reports the line-numbered error,
    or accepts the cells that float() takes and loadtxt does not (such
    as 1_0, or lines ending in a bare carriage return). Files with a
    quote character after the header always take the csv-module reader,
    since a quoted delimiter would shift loadtxt's columns.
    """
    if len(delimiter) != 1 or delimiter in "\r\n":
        raise ValueError(
            f"delimiter must be one character other than a line break, got {delimiter!r}"
        )
    path = Path(path)
    with path.open(newline="") as handle:
        text = handle.read()
    buffer = io.StringIO(text, newline="")
    first = next((row for row in csv.reader(buffer, delimiter=delimiter) if row), None)
    if first is None:
        raise ValueError(f"{path}: file contains no data")

    index: int | None = int(column) if column.lstrip("-").isdigit() else None
    has_header = True
    if index is None:
        header = [cell.strip() for cell in first]
        if column not in header:
            raise ValueError(f"{path}: no column named {column!r} in header {header}")
        index = header.index(column)
    else:
        try:
            float(first[index])
            has_header = False
        except (ValueError, IndexError):
            pass

    start = buffer.tell() if has_header else 0
    values = None
    if text.find('"', start) < 0:
        buffer.seek(start)
        try:
            with warnings.catch_warnings():
                # A header-only file: the empty result fails validation below.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(buffer, delimiter=delimiter, usecols=index, comments=None,
                                    ndmin=1, dtype=np.float64)
        except ValueError:
            pass
    if values is None:
        buffer.seek(0)
        values = _read_column(buffer, column, index, delimiter, has_header, path)
    return validate_series(values, delta)


def _read_column(lines, column: str, index: int, delimiter: str, has_header: bool,
                 path: Path) -> list[float]:
    """float() of the selected cell of every non-blank row, after the header if any."""
    rows = csv.reader(lines, delimiter=delimiter)
    values = []
    for row in rows:
        if not row:
            continue
        if has_header:
            has_header = False
            continue
        try:
            values.append(float(row[index]))
        except (ValueError, IndexError) as exc:
            raise ValueError(
                f"{path}:{rows.line_num}: cannot read column {column!r}: {exc}"
            ) from exc
    return values


def _config_from_args(args: argparse.Namespace) -> DetectionConfig:
    return DetectionConfig(
        interp_factor=args.interp_factor,
        filter_order=args.order,
        filter_cutoff=args.cutoff,
        trend_log_threshold=args.trend_threshold,
        zero_tolerance_rel=args.epsilon,
        quotient_threshold=args.quotient_threshold,
    )


def cmd_detect(args: argparse.Namespace) -> int:
    series = read_series_csv(args.input, args.column, args.delimiter, args.delta)
    result = detect_season_length(series, _config_from_args(args))
    diag = result.diagnostics
    payload = {
        "season_length": result.season_length,
        "unscaled_length": result.unscaled_length,
        "trend_degree": result.trend_degree,
        "zeros": diag.zero_count,
        "interval_size": diag.member_count,
    }
    print(json.dumps(payload))
    return 0


def generate_suite(family: str, seed: int, outdir) -> Path:
    """Write one family (or all) as CSV files plus a manifest.

    Returns the manifest path. Re-running with identical arguments
    rewrites byte-identical files.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = FAMILY_NAMES if family == "all" else (family,)
    entries = []
    for name in names:
        family_dir = outdir / name
        family_dir.mkdir(parents=True, exist_ok=True)
        for series, reference, label in gen_family(name, seed):
            rel = f"{name}/{label}.csv"
            with (outdir / rel).open("w", newline="") as handle:
                handle.write("value\n" + "".join(f"{v!r}\n" for v in series.values.tolist()))
            if isinstance(reference, tuple):
                reference = list(reference)
            entries.append({"path": rel, "reference": reference, "family": name, "case": label})
    manifest = outdir / "manifest.jsonl"
    with manifest.open("w") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")
    return manifest


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family != "all" and args.family not in FAMILY_NAMES:
        raise ValueError(
            f"unknown family {args.family!r}; pick 'all' or one of {', '.join(FAMILY_NAMES)}"
        )
    print(generate_suite(args.family, args.seed, args.out))
    return 0


def _evaluate_case(entry: dict, base: str, margin: float, config: DetectionConfig) -> EvalRecord:
    series = read_series_csv(Path(base) / entry["path"])
    result = detect_season_length(series, config)
    error, passed = _score(result.unscaled_length, entry["reference"], margin)

    try:
        baseline = baseline_periodogram(series)
    except TooShortError:
        baseline = None
    base_error, base_passed = _score(baseline, entry["reference"], margin)

    return EvalRecord(
        case=entry["case"],
        family=entry["family"],
        detected=result.unscaled_length,
        reference=entry["reference"],
        relative_error=error,
        passed=passed,
        baseline_detected=baseline,
        baseline_relative_error=base_error,
        baseline_passed=base_passed,
    )


def evaluate_manifest(
    manifest_path,
    margin: float = 0.2,
    jobs: int = 1,
    config: DetectionConfig | None = None,
) -> tuple[list[EvalRecord], dict]:
    """Score every case referenced by a manifest.

    Cases may be evaluated in parallel; records come back sorted by
    case id, so serial and parallel runs produce identical output.
    """
    manifest_path = Path(manifest_path)
    entries = []
    with manifest_path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{manifest_path}:{lineno}: bad manifest line: {exc}") from exc

    if config is None:
        config = DetectionConfig()
    base = str(manifest_path.parent)
    if jobs > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(
                pool.map(_evaluate_case, entries, [base] * len(entries),
                         [margin] * len(entries), [config] * len(entries))
            )
    else:
        records = [_evaluate_case(entry, base, margin, config) for entry in entries]
    records.sort(key=lambda r: r.case)

    families: dict[str, dict[str, int]] = {}
    for record in records:
        row = families.setdefault(
            record.family, {"cases": 0, "detector_passed": 0, "baseline_passed": 0}
        )
        row["cases"] += 1
        row["detector_passed"] += int(record.passed)
        row["baseline_passed"] += int(record.baseline_passed)
    total = {
        "cases": len(records),
        "detector_passed": sum(int(r.passed) for r in records),
        "baseline_passed": sum(int(r.baseline_passed) for r in records),
    }
    summary = {"families": families, "total": total}
    return records, summary


def format_summary(summary: dict) -> str:
    lines = [f"{'family':<12} {'cases':>5} {'detector':>9} {'baseline':>9}"]
    rows = list(summary["families"].items()) + [("total", summary["total"])]
    for name, row in rows:
        lines.append(
            f"{name:<12} {row['cases']:>5} {row['detector_passed']:>9} {row['baseline_passed']:>9}"
        )
    total = summary["total"]
    if total["cases"]:
        lines.append(
            "pass rate: detector {:.1%}, baseline {:.1%}".format(
                total["detector_passed"] / total["cases"],
                total["baseline_passed"] / total["cases"],
            )
        )
    return "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    records, summary = evaluate_manifest(
        args.manifest, margin=args.margin, jobs=args.jobs, config=_config_from_args(args)
    )
    records_path = Path(args.out) if args.out else Path(args.manifest).parent / "records.jsonl"
    with records_path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(asdict(record)) + "\n")
    print(format_summary(summary))
    print(f"records: {records_path}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = DetectionConfig()
    parser.add_argument("--interp-factor", type=int, default=defaults.interp_factor,
                        help="upsampling ratio before filtering")
    parser.add_argument("--order", type=int, default=defaults.filter_order,
                        help="low-pass filter order")
    parser.add_argument("--cutoff", type=float, default=defaults.filter_cutoff,
                        help="low-pass cutoff in rad/sample of the upsampled signal")
    parser.add_argument("--trend-threshold", type=float, default=defaults.trend_log_threshold,
                        help="log cost-gap threshold for picking a quadratic trend")
    parser.add_argument("--epsilon", type=float, default=defaults.zero_tolerance_rel,
                        help="zero tolerance band relative to the correlation range")
    parser.add_argument("--quotient-threshold", type=float, default=defaults.quotient_threshold,
                        help="distance quotient jump that starts a new segment")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seasonlen",
                                     description="Season length detection for time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect the season length of one CSV series")
    detect.add_argument("--input", required=True, help="CSV file with one numeric column")
    detect.add_argument("--column", default="0", help="column index or header name")
    detect.add_argument("--delimiter", default=",")
    detect.add_argument("--delta", type=float, default=1.0, help="sampling interval")
    _add_config_flags(detect)
    detect.set_defaults(func=cmd_detect)

    gen = sub.add_parser("gen", help="generate a benchmark suite")
    gen.add_argument("family", help="family name or 'all'")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    evaluate = sub.add_parser("eval", help="score a benchmark manifest")
    evaluate.add_argument("manifest", help="manifest.jsonl produced by gen")
    evaluate.add_argument("--margin", type=float, default=0.2,
                          help="relative error accepted as a pass")
    evaluate.add_argument("--jobs", type=int, default=1, help="parallel workers")
    evaluate.add_argument("--out", default=None, help="where to write per-case records")
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DetectionError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
