"""Command line surface: detect, gen, eval."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from seasonlen.cli import (
    EvalRecord,
    _score,
    evaluate_manifest,
    format_summary,
    generate_suite,
    main,
    read_series_csv,
)


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

    def test_too_short_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        code = main(["detect", "--input", str(path)])
        assert code == 2
        assert "TooShort" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["detect", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

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
