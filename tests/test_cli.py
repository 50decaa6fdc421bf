"""Command line surface: detect, gen, eval."""

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from seasonlen.cli import (
    EvalRecord,
    _score,
    evaluate_manifest,
    format_summary,
    generate_suite,
    main,
    read_series_csv,
)
from seasonlen.core import TooShortError


def write_sine_csv(path, period, n, header=True):
    t = np.arange(n)
    values = np.sin(2 * np.pi * t / period)
    lines = (["value"] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return values


class TestScore:
    def test_both_absent_passes(self):
        assert _score(None, None, 0.2) == (None, True)

    def test_missing_detection_fails(self):
        assert _score(None, 10.0, 0.2) == (None, False)

    def test_spurious_detection_fails(self):
        error, passed = _score(10.0, None, 0.2)
        assert not passed

    def test_within_margin(self):
        error, passed = _score(11.0, 10.0, 0.2)
        assert passed and error == pytest.approx(0.1)

    def test_outside_margin(self):
        error, passed = _score(13.0, 10.0, 0.2)
        assert not passed and error == pytest.approx(0.3)

    def test_multiple_references_take_best(self):
        error, passed = _score(19.0, [10.0, 20.0], 0.2)
        assert passed and error == pytest.approx(0.05)


class TestReadSeriesCsv:
    def test_with_header(self, tmp_path):
        path = tmp_path / "series.csv"
        write_sine_csv(path, 24, 100)
        series = read_series_csv(path)
        assert len(series) == 100

    def test_without_header(self, tmp_path):
        path = tmp_path / "series.csv"
        write_sine_csv(path, 24, 50, header=False)
        assert len(read_series_csv(path)) == 50

    def test_column_by_name(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("time,load\n0,5.0\n1,6.0\n2,7.0\n3,8.0\n")
        series = read_series_csv(path, column="load")
        assert np.array_equal(series.values, [5, 6, 7, 8])

    def test_column_by_index_and_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("0;5.0\n1;6.0\n2;7.0\n3;8.0\n")
        series = read_series_csv(path, column="1", delimiter=";")
        assert np.array_equal(series.values, [5, 6, 7, 8])

    @pytest.mark.parametrize("delimiter", [";;", "", "\n"], ids=["two", "empty", "newline"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = tmp_path / "data.csv"
        path.write_text("value\n1\n2\n3\n4\n")
        with pytest.raises(ValueError, match=f"delimiter .* got {re.escape(repr(delimiter))}"):
            read_series_csv(path, delimiter=delimiter)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\noops\n3.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            read_series_csv(path)

    def test_missing_column_name(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            read_series_csv(path, column="c")

    def test_parse_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1\n\n\n2\nx\n3\n")
        with pytest.raises(ValueError, match=r"bad\.csv:6:"):
            read_series_csv(path)

    def test_header_only_file_is_too_short(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("value\n\n")
        with pytest.raises(TooShortError, match="got 0"):
            read_series_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_file_without_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="file contains no data"):
            read_series_csv(path)

    @pytest.mark.parametrize(
        "text, column, expected",
        [
            ("value\n1_0\n2\n3\n4\n", "0", [10, 2, 3, 4]),
            ("value\r1\r2\r3\r4\r", "0", [1, 2, 3, 4]),
            ('"a,b",1,2\n"c,d",3,4\n"e,f",5,6\n"g,h",7,8\n', "2", [2, 4, 6, 8]),
            ("a,b\n1,2\n3,4,5\n6,7\n8,9\n", "-1", [2, 5, 7, 9]),
        ],
        ids=["underscore", "bare-carriage-returns", "quoted-delimiter", "ragged-last-column"],
    )
    def test_cells_only_the_csv_module_reads(self, tmp_path, text, column, expected):
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode())
        assert read_series_csv(path, column=column).values.tolist() == expected


PADDING = st.sampled_from(["", " ", "\t"])
CELL = st.builds(lambda pre, value, post: pre + repr(value) + post,
                 PADDING, st.floats(allow_nan=False, allow_infinity=False), PADDING)


@st.composite
def csv_files(draw, bad_cell):
    """(text, delimiter, column index, has header, physical line of the bad cell or None)."""
    delimiter = draw(st.sampled_from([",", ";"]))
    width = draw(st.integers(min_value=1, max_value=3))
    index = draw(st.integers(min_value=0, max_value=width - 1))
    header = draw(st.booleans())
    rows = draw(st.lists(st.lists(CELL, min_size=width, max_size=width), min_size=4, max_size=30))
    blank_before = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    # Without a header, a bad first row would be taken for one.
    first = 0 if header else 1
    bad_row = draw(st.integers(min_value=first, max_value=len(rows) - 1)) if bad_cell else None
    lines = [delimiter.join(f"c{i}" for i in range(width))] if header else []
    bad_line = None
    for i, (row, blank) in enumerate(zip(rows, blank_before)):
        if blank:
            lines.append("")
        if i == bad_row:
            row = row[:index] + ["1.5x"] + row[index + 1:]
            bad_line = len(lines) + 1
        lines.append(delimiter.join(row))
    return "\n".join(lines) + "\n", delimiter, index, header, bad_line


class TestReadSeriesCsvMatchesCsvModule:
    @given(case=csv_files(bad_cell=False))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_values_are_bit_identical(self, tmp_path, case):
        text, delimiter, index, header, _ = case
        path = tmp_path / "series.csv"
        path.write_text(text)
        rows = [row for row in csv.reader(io.StringIO(text, newline=""), delimiter=delimiter) if row]
        expected = np.array([float(row[index]) for row in rows[int(header):]])
        got = read_series_csv(path, column=str(index), delimiter=delimiter).values
        assert got.tobytes() == expected.tobytes()

    @given(case=csv_files(bad_cell=True))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_cell_names_its_line(self, tmp_path, case):
        text, delimiter, index, _, bad_line = case
        path = tmp_path / "series.csv"
        path.write_text(text)
        message = f"{path}:{bad_line}: cannot read column '{index}': could not convert string to float"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_series_csv(path, column=str(index), delimiter=delimiter)


class TestDetectCommand:
    def test_sine_csv(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 960)
        cutoff = 0.2 * 2 * math.pi / 24
        code = main(["detect", "--input", str(path), "--cutoff", str(cutoff)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unscaled_length"] == pytest.approx(24, rel=0.05)
        assert payload["trend_degree"] in (1, 2)
        assert payload["zeros"] > 0

    def test_delta_scaling(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 960)
        cutoff = 0.2 * 2 * math.pi / 24
        code = main(
            ["detect", "--input", str(path), "--cutoff", str(cutoff), "--delta", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["season_length"] == pytest.approx(payload["unscaled_length"] * 0.5)

    def test_order_4_at_default_cutoff(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 1000, 8000)
        code = main(["detect", "--input", str(path), "--order", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "season_length", "unscaled_length", "trend_degree", "zeros", "interval_size"
        }
        assert payload["unscaled_length"] == pytest.approx(1000, rel=0.05)

    def test_too_short_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        code = main(["detect", "--input", str(path)])
        assert code == 2
        assert "TooShort" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["detect", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_bad_delimiter_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        code = main(["detect", "--input", str(path), "--delimiter", ";;"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: delimiter must be one character other than a line break, got ';;'\n"
        )

    def test_white_noise_reports_null(self, tmp_path, capsys):
        path = tmp_path / "noise.csv"
        noise = np.random.default_rng(4).normal(0, 1, 600)
        path.write_text("value\n" + "\n".join(repr(float(v)) for v in noise) + "\n")
        code = main(["detect", "--input", str(path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["season_length"] is None


class TestGenCommand:
    def test_family_layout(self, tmp_path, capsys):
        code = main(["gen", "NoSeason", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        manifest = tmp_path / "manifest.jsonl"
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert len(entries) == 10
        assert all(entry["reference"] is None for entry in entries)
        assert all((tmp_path / entry["path"]).exists() for entry in entries)

    def test_regeneration_is_byte_identical(self, tmp_path):
        out = tmp_path / "suite"
        generate_suite("Noise", 7, out)
        first = {p.name: p.read_bytes() for p in (out / "Noise").iterdir()}
        first["manifest"] = (out / "manifest.jsonl").read_bytes()
        generate_suite("Noise", 7, out)
        second = {p.name: p.read_bytes() for p in (out / "Noise").iterdir()}
        second["manifest"] = (out / "manifest.jsonl").read_bytes()
        assert first == second

    def test_all_families_count(self, tmp_path):
        manifest = generate_suite("all", 7, tmp_path)
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert len(entries) == 110
        families = {entry["family"] for entry in entries}
        assert len(families) == 7

    def test_unknown_family_exits_2(self, tmp_path, capsys):
        code = main(["gen", "Mystery", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ValueError: unknown family 'Mystery'")


def test_seed7_records_keep_golden_detections(tmp_path):
    # Golden values: the per-case "detected" field of `seasonlen gen all
    # --seed 7` followed by `seasonlen eval`, recorded with the
    # normal-equation trend fit. Any implementation must reproduce them to
    # 1e-9 relative and keep every no-season case a no-season case.
    golden = json.loads((Path(__file__).parent / "data" / "seed7_detected.json").read_text())
    assert golden["seed"] == 7
    records, _ = evaluate_manifest(generate_suite("all", 7, tmp_path), margin=0.2)
    detected = {record.case: record.detected for record in records}
    assert detected.keys() == golden["detected"].keys()
    for case, expected in golden["detected"].items():
        if expected is None:
            assert detected[case] is None, case
        else:
            assert detected[case] == pytest.approx(expected, rel=1e-9), case


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    return generate_suite("NoSeason", 7, out)


class TestEvalCommand:
    def test_round_trip_records_every_case(self, suite):
        records, summary = evaluate_manifest(suite, margin=0.2)
        assert len(records) == 10
        assert summary["total"]["cases"] == 10
        assert {r.case for r in records} == {
            json.loads(line)["case"] for line in suite.read_text().splitlines()
        }

    def test_parallel_matches_serial(self, suite):
        serial, _ = evaluate_manifest(suite, margin=0.2, jobs=1)
        parallel, _ = evaluate_manifest(suite, margin=0.2, jobs=2)
        assert serial == parallel

    def test_margin_zero_keeps_exact_and_no_season_passes(self, suite):
        records, _ = evaluate_manifest(suite, margin=0.0)
        for record in records:
            expected = (record.detected is None) == (record.reference is None) and (
                record.relative_error in (None, 0.0)
            )
            assert record.passed == expected

    def test_cli_writes_records_and_summary(self, suite, tmp_path, capsys):
        records_path = tmp_path / "records.jsonl"
        code = main(["eval", str(suite), "--out", str(records_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "NoSeason" in out and "total" in out
        lines = records_path.read_text().splitlines()
        assert len(lines) == 10
        payload = json.loads(lines[0])
        assert {"case", "family", "detected", "reference", "passed"} <= payload.keys()

    def test_empty_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        code = main(["eval", str(manifest)])
        assert code == 0
        assert "0" in capsys.readouterr().out

    def test_malformed_manifest_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("not json\n")
        assert main(["eval", str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ValueError: ")

    def test_unwritable_records_path_exits_2(self, suite, tmp_path, capsys):
        out = tmp_path / "missing" / "records.jsonl"
        code = main(["eval", str(suite), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ")
        assert err.count("\n") == 1


def test_format_summary_shape():
    records = [
        EvalRecord("a", "Fam", 10.0, 10.0, 0.0, True, 5.0, 0.5, False),
        EvalRecord("b", "Fam", None, None, None, True, 7.0, None, False),
    ]
    summary = {
        "families": {"Fam": {"cases": 2, "detector_passed": 2, "baseline_passed": 0}},
        "total": {"cases": 2, "detector_passed": 2, "baseline_passed": 0},
    }
    text = format_summary(summary)
    assert "Fam" in text and "total" in text and "100.0%" in text
