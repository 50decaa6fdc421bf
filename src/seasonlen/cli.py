"""Command line interface: detect, eval, and gen subcommands.

detect reads one numeric CSV column and prints a JSON result. gen
builds every case of a benchmark suite, then writes it (one CSV per
case plus a JSON-lines manifest), so a gen that fails writes nothing.
eval checks every manifest line, runs both the detector and the
periodogram baseline over the cases, writes per-case records as JSON
lines, and prints a summary table with per-family pass counts.

Exit codes: 0 when the run completed (a no-season result and a low
pass rate are data, not errors), 2 on usage, input, or validation
problems, such as a row the csv module cannot read, a column index past
the row, or a --delta that scales the season length past the float
range, or a run out of memory. Every command reports a DetectionError,
OSError, ValueError or MemoryError as one line, "error: <type>:
<message>", on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import re
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
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
    if reference is None or detected is None:
        return None, reference is None and detected is None
    refs = reference if isinstance(reference, list) else (reference,)
    error = min(abs(detected - r) / r for r in refs)
    return error, error <= margin


#: A first-row cell that float() reads, or that starts like a number: data, not a header.
_NUMBER_START = re.compile(r"\s*[+-]?(\d|\.\d|(inf|infinity|nan)\s*$)", re.IGNORECASE)

#: Suffixes by which numpy.loadtxt, given a path, opens the file through a decompressor.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _csv_rows(path: Path, handle, delimiter: str):
    """Yield (physical line, cells) per non-blank row; a csv.Error becomes a ValueError."""
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        yield from ((reader.line_num, row) for row in reader if row)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def read_series_csv(path, column: str = "0", delimiter: str = ",", delta: float = 1.0):
    """Read one numeric column from a CSV file.

    The column is selected by zero-based index or by header name. A
    header row is detected automatically: if the first row's selected
    cell does not parse as a number it is skipped, unless it starts like
    one (a digit, or a sign or point before one), which is a parse error
    on that line. Blank lines are ignored, and a parse error names the
    file's physical line number. The delimiter must be one character
    other than a line break. A leading byte-order mark, as Excel writes,
    is not part of the first cell.

    A csv-module reader over the open file reads as far as the header.
    numpy.loadtxt then parses the column from the path (as utf-8-sig
    after a mark) in chunks, with universal newlines and '"' as quote.
    Where it rejects the data, or the file is named like a compressed
    one (.gz, .bz2, .xz, .lzma) that loadtxt would try to decompress,
    the csv-module reader reads on from the header instead, giving
    bit-identical values: it reports the line-numbered error, or accepts
    the cells that float() takes and loadtxt does not (such as 1_0). A
    file that does not decode, such as UTF-16 or Latin-1 text, raises a
    ValueError that names it.
    """
    if len(delimiter) != 1 or delimiter in "\r\n":
        raise ValueError(
            f"delimiter must be one character other than a line break, got {delimiter!r}"
        )
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            if not (marked := handle.read(1) == "\ufeff"):
                handle.seek(0)
            rows = _csv_rows(path, handle, delimiter)
            first_line, first = next(rows, (0, None))
            if first is None:
                raise ValueError(f"{path}: file contains no data")
            index: int | None = int(column) if column.lstrip("-").isdigit() else None
            header_lines = first_line
            if index is None:
                header = [cell.strip() for cell in first]
                if column not in header:
                    raise ValueError(f"{path}: no column named {column!r} in header {header}")
                index = header.index(column)
            elif -len(first) <= index < len(first) and _NUMBER_START.match(first[index]):
                header_lines = 0  # a number, or a malformed one that the data parse reports

            values = None
            if path.suffix not in _COMPRESSED_SUFFIXES:
                # TypeError: a '"' delimiter; OverflowError: a column index past any index.
                with (contextlib.suppress(ValueError, TypeError, OverflowError),
                      warnings.catch_warnings()):
                    # A header-only file: the empty result fails validation below.
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    values = np.loadtxt(str(path), delimiter=delimiter, skiprows=header_lines,
                                        usecols=index, comments=None, quotechar='"', ndmin=1,
                                        encoding="utf-8-sig" if marked else None)
            if values is None:
                values = []
                unread = [] if header_lines else [(first_line, first)]
                for line, row in itertools.chain(unread, rows):
                    try:
                        values.append(float(row[index]))
                    except (ValueError, IndexError) as exc:
                        raise ValueError(
                            f"{path}:{line}: cannot read column {column!r}: {exc}"
                        ) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}: cannot decode the file as {handle.encoding}: {exc.reason}"
        ) from None
    return validate_series(values, delta)


#: The detection flags of detect and eval, as (flag, DetectionConfig field, help);
#: each flag takes its type and default from the field's default.
_CONFIG_FLAGS = (
    ("--interp-factor", "interp_factor", "upsampling ratio before filtering"),
    ("--order", "filter_order", "low-pass filter order"),
    ("--cutoff", "filter_cutoff", "low-pass cutoff in rad/sample of the upsampled signal"),
    ("--trend-threshold", "trend_log_threshold",
     "log cost-gap threshold for picking a quadratic trend"),
    ("--epsilon", "zero_tolerance_rel", "zero tolerance band relative to the correlation range"),
    ("--quotient-threshold", "quotient_threshold",
     "distance quotient jump that starts a new segment"),
    ("--min-zero-count", "min_zero_count", "fewest autocorrelation zeros that can give a season"),
)


def _config_from_args(args: argparse.Namespace) -> DetectionConfig:
    return DetectionConfig(**{
        name: getattr(args, flag[2:].replace("-", "_")) for flag, name, _ in _CONFIG_FLAGS
    })


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
    try:
        print(json.dumps(payload, allow_nan=False))
    except ValueError:  # only the season length can be infinite
        raise ValueError(f"--delta {args.delta!r} scales the season length past the float range")
    return 0


def generate_suite(family: str, seed: int, outdir) -> Path:
    """Write one family (or all) as CSV files plus a manifest.

    Returns the manifest path. Re-running with identical arguments
    rewrites byte-identical files.
    """
    outdir = Path(outdir)
    names = FAMILY_NAMES if family == "all" else (family,)
    families = {name: gen_family(name, seed) for name in names}
    entries = []
    for name, cases in families.items():
        (outdir / name).mkdir(parents=True, exist_ok=True)
        for series, reference, label in cases:
            rel = f"{name}/{label}.csv"
            with (outdir / rel).open("w", newline="") as handle:
                handle.write("value\n" + "".join(f"{v!r}\n" for v in series.values.tolist()))
            entries.append({"path": rel, "reference": reference, "family": name, "case": label})
    manifest = outdir / "manifest.jsonl"
    with manifest.open("w") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")
    return manifest


def cmd_gen(args: argparse.Namespace) -> int:
    print(generate_suite(args.family, args.seed, args.out))
    return 0


def _is_entry(entry) -> bool:
    """An object with string path, family and case and a null or positive reference."""
    if not isinstance(entry, dict) or not all(
        isinstance(entry.get(key), str) for key in ("path", "family", "case")
    ):
        return False
    reference = entry.get("reference", [])
    refs = reference if isinstance(reference, list) else [reference]
    return reference is None or bool(refs) and all(
        type(r) in (int, float) and 0 < r < math.inf for r in refs
    )


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


def _evaluate_share(evaluate, entries: list[dict]) -> tuple[list[EvalRecord], Exception | None]:
    """Evaluate entries in order, up to the first that raises.

    Returns the records of the entries before it and its exception, or
    every record and None. The exception is returned, not raised, so
    that the parent can raise the one of the lowest manifest index, the
    one a serial run stops at.
    """
    records = []
    for entry in entries:
        try:
            records.append(evaluate(entry))
        except Exception as exc:  # re-raised by evaluate_manifest
            return records, exc
    return records, None


def _file_size(path: Path) -> int:
    """The file's size in bytes, or 0 where it cannot be read; evaluating it reports why."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def evaluate_manifest(
    manifest_path,
    margin: float = 0.2,
    jobs: int = 1,
    config: DetectionConfig | None = None,
) -> tuple[list[EvalRecord], dict]:
    """Score every case referenced by a manifest.

    With jobs > 1, the cases are evaluated by at most one worker process
    per entry, each taking one share of the entries: sorted by file
    size, largest first, and dealt round-robin, so the shares hold
    about the same number of values. Each share stops at its first
    failure, and the failure of the lowest manifest index is raised,
    the one a serial run raises. Records come back sorted by case id,
    so serial and parallel runs produce identical output.

    Raises:
        ValueError: the margin is not a finite number >= 0, jobs is not
            an integer >= 1 (a bool is not), or a line is not JSON, or
            not an entry as _is_entry says.
    """
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be a finite number >= 0, got {margin}")
    if isinstance(jobs, bool) or not isinstance(jobs, (int, np.integer)) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    manifest_path = Path(manifest_path)
    entries = []
    with manifest_path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{manifest_path}:{lineno}: bad manifest line: {exc}") from exc
            if not _is_entry(entry):
                raise ValueError(
                    f"{manifest_path}:{lineno}: want an object with string path, family and case"
                    " and a reference that is null, a positive number or a non-empty list of them"
                )
            entries.append(entry)

    evaluate = partial(_evaluate_case, base=str(manifest_path.parent), margin=margin,
                       config=DetectionConfig() if config is None else config)
    workers = min(jobs, len(entries))
    if workers > 1:
        sizes = [_file_size(manifest_path.parent / entry["path"]) for entry in entries]
        largest_first = sorted(range(len(entries)), key=lambda i: -sizes[i])
        shares = [sorted(largest_first[k::workers]) for k in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_evaluate_share, evaluate, [entries[i] for i in share])
                       for share in shares]
            outcomes = [future.result() for future in futures]
        failures = [(share[len(done)], exc) for share, (done, exc) in zip(shares, outcomes)
                    if exc is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        records = [record for done, _ in outcomes for record in done]
    else:
        records = list(map(evaluate, entries))
    records.sort(key=lambda r: r.case)

    families: dict[str, dict[str, int]] = {}
    total = {"cases": 0, "detector_passed": 0, "baseline_passed": 0}
    for record in records:
        for row in (families.setdefault(record.family, dict.fromkeys(total, 0)), total):
            row["cases"] += 1
            row["detector_passed"] += int(record.passed)
            row["baseline_passed"] += int(record.baseline_passed)
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
    for flag, name, text in _CONFIG_FLAGS:
        default = getattr(defaults, name)
        parser.add_argument(flag, type=type(default), default=default, help=text)


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
    detect.set_defaults(func=cmd_detect, parser=detect)

    gen = sub.add_parser("gen", help="generate a benchmark suite")
    gen.add_argument("family", help="family name or 'all'")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen, parser=gen)

    evaluate = sub.add_parser("eval", help="score a benchmark manifest")
    evaluate.add_argument("manifest", help="manifest.jsonl produced by gen")
    evaluate.add_argument("--margin", type=float, default=0.2,
                          help="relative error accepted as a pass")
    evaluate.add_argument("--jobs", type=int, default=1, help="parallel workers")
    evaluate.add_argument("--out", default=None, help="where to write per-case records")
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=cmd_eval, parser=evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse takes --name=-- for an empty list of values
            args.parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except (DetectionError, OSError, ValueError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
