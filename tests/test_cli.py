"""Command line surface: detect, gen, eval."""

import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import seasonlen.cli
from seasonlen.cli import (
    EvalRecord,
    _config_from_args,
    _score,
    build_parser,
    evaluate_manifest,
    format_summary,
    generate_suite,
    main,
    read_series_csv,
)
from seasonlen.core import NonFiniteError, TooShortError


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

    @pytest.mark.parametrize(
        "text, column",
        [("1.5\n2.5\n3.5\n4.5\n5.5\n", "0"), ("value\n1.5\n2.5\n3.5\n4.5\n5.5\n", "0"),
         ("value,other\n1.5,0\n2.5,0\n3.5,0\n4.5,0\n5.5,0\n", "value")],
        ids=["no-header", "header", "column-by-name"],
    )
    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, text, column):
        # Excel's "CSV UTF-8" starts the file with U+FEFF.
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_series_csv(path, column=column).values.tolist() == [1.5, 2.5, 3.5, 4.5, 5.5]

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

    @pytest.mark.parametrize(
        "text, line",
        [("1.5x\n0\n0\n0\n0\n", 1), ("\n-.5.5\n0\n0\n0\n0\n", 2), ("+2e\n0\n0\n0\n0\n", 1)],
        ids=["trailing-letter", "after-blank-line", "bare-exponent"],
    )
    def test_malformed_first_number_is_not_a_header(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.csv:{line}: cannot read column '0'"):
            read_series_csv(path)

    @pytest.mark.parametrize("name", ["value", "x1", "-", ".", "+inf_count"])
    def test_first_cell_that_does_not_start_like_a_number_is_a_header(self, tmp_path, name):
        path = tmp_path / "named.csv"
        path.write_text(f"{name}\n1\n2\n3\n4\n")
        assert read_series_csv(path).values.tolist() == [1, 2, 3, 4]

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
            ("\nvalue\n\n1_0\n2\n\n\n3\n4\n\n", "0", [10, 2, 3, 4]),
        ],
        ids=["underscore", "bare-carriage-returns", "quoted-delimiter", "ragged-last-column",
             "underscore-and-blank-lines"],
    )
    def test_cells_only_the_csv_module_reads(self, tmp_path, text, column, expected):
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode())
        assert read_series_csv(path, column=column).values.tolist() == expected

    @pytest.mark.parametrize("name", ["series.csv.gz", "series.bz2", "series.xz", "series.lzma"])
    def test_plain_text_named_like_a_compressed_file(self, tmp_path, name):
        # Given a path, loadtxt picks a decompressor by the file's suffix.
        path = tmp_path / name
        path.write_text("value\n1\n2\n3\n4\n")
        assert read_series_csv(path).values.tolist() == [1, 2, 3, 4]

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize(
        "head, column",
        [([], "0"), (["value"], "0"), (["", "", "value", "", ""], "0"), (["time,load,flag"], "load")],
        ids=["no-header", "header", "blank-lines-around-header", "named-column-of-three"],
    )
    def test_loadtxt_values_are_those_of_the_csv_module(self, tmp_path, monkeypatch,
                                                        loadtxt_files, end, head, column):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
        rows = [f"{i},{v!r},{i % 2}" if column == "load" else repr(v)
                for i, v in enumerate(values.tolist())]
        path = tmp_path / "series.csv"
        path.write_bytes(end.join(head + rows + [""]).encode())
        parsed = read_series_csv(path, column=column).values
        # loadtxt parsed the file from its path, which it reads in chunks; from
        # a file object or a buffer it would parse it one line at a time.
        assert loadtxt_files == [str]

        def rejecting(*args, **kwargs):
            raise ValueError("rejected")

        monkeypatch.setattr(np, "loadtxt", rejecting)
        fallback = read_series_csv(path, column=column).values
        assert parsed.tobytes() == fallback.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "text, column, delimiter",
        [
            ('value\n"1.5"\n" 2.5"\n"3.5" \n"4.5"\n', "0", ","),
            ('"a,b",1.5\n"c,d",2.5\n"e,f",3.5\n"g,h",4.5\n', "1", ","),
            ('"time;of;day";"load"\n0;1.5\n1;2.5\n2;3.5\n3;4.5\n', "load", ";"),
            ('"two\nline header"\n1.5\n2.5\n3.5\n4.5\n', "0", ","),
            ('0"1.5\n1"2.5\n2"3.5\n3"4.5\n', "1", '"'),
        ],
        ids=["quoted-numbers", "quoted-delimiter", "quoted-header", "quoted-line-break",
             "quote-delimiter"],
    )
    def test_quoted_files_take_loadtxt(self, tmp_path, loadtxt_files, text, column, delimiter):
        path = tmp_path / "quoted.csv"
        path.write_bytes(text.encode())
        values = read_series_csv(path, column=column, delimiter=delimiter).values
        assert values.tolist() == [1.5, 2.5, 3.5, 4.5]
        # loadtxt cannot take '"' as both delimiter and quote; the csv module reads that file.
        assert loadtxt_files == ([] if delimiter == '"' else [str])

    @pytest.mark.parametrize("cell", ["inf", " -Infinity", "NaN"])
    def test_first_cell_that_float_reads_as_infinite_or_nan_is_data(self, tmp_path, cell):
        path = tmp_path / "inf.csv"
        path.write_text(f"{cell}\n1\n2\n3\n4\n")
        with pytest.raises(NonFiniteError, match="non-finite value at index 0"):
            read_series_csv(path)

    def test_csv_module_error_in_the_header_names_its_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("\n" + "v" * 200_000 + "\n1\n2\n3\n4\n")
        message = f"{path}:2: field larger than field limit (131072)"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_series_csv(path)

    def test_csv_module_error_in_a_data_row_names_its_line(self, tmp_path):
        # The quote opened on line 4 never closes, so the cell runs on over
        # every later line until it passes the csv module's field size limit.
        path = tmp_path / "unclosed.csv"
        path.write_text('value\n1\n2\n"3\n' + "4\n" * 70_000)
        message = f"{path}:{4 + 131072 // 2}: field larger than field limit (131072)"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_series_csv(path)

    def test_peak_memory_is_a_few_times_the_values(self, tmp_path):
        values = np.random.default_rng(2).standard_normal(200_000)
        path = tmp_path / "long.csv"
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        read_series_csv(path)  # so that one-time allocations are not counted
        tracemalloc.start()
        try:
            parsed = read_series_csv(path).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.tobytes() == values.tobytes()
        # The parsed column and the series' own copy of it; the text is never held whole.
        assert peak < 3 * values.nbytes

    def test_a_headerless_file_with_a_byte_order_mark_parses_through_loadtxt(
        self, tmp_path, loadtxt_files
    ):
        values = np.random.default_rng(3).standard_normal(200_000)
        text = "".join(f"{v!r}\n" for v in values.tolist())
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        read_series_csv(marked)  # so that one-time allocations are not counted
        tracemalloc.start()
        try:
            parsed = read_series_csv(marked).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.tobytes() == read_series_csv(plain).values.tobytes() == values.tobytes()
        assert loadtxt_files == [str, str, str]
        assert peak < 3 * values.nbytes


@pytest.fixture
def loadtxt_files(monkeypatch):
    """The type of the file argument of each np.loadtxt call that returned."""
    types = []
    loadtxt = np.loadtxt

    def recording(fname, *args, **kwargs):
        values = loadtxt(fname, *args, **kwargs)
        types.append(type(fname))
        return values

    monkeypatch.setattr(np, "loadtxt", recording)
    return types


PADDING = st.sampled_from(["", " ", "\t"])
PLAIN_CELL = st.builds(lambda pre, value, post: pre + repr(value) + post,
                       PADDING, st.floats(allow_nan=False, allow_infinity=False), PADDING)
CELL = st.one_of(PLAIN_CELL, PLAIN_CELL.map(lambda cell: f'"{cell}"'))


@st.composite
def csv_files(draw, bad_cell):
    """(text, delimiter, column index, has header, physical line of the bad cell or None)."""
    delimiter = draw(st.sampled_from([",", ";"]))
    width = draw(st.integers(min_value=1, max_value=3))
    index = draw(st.integers(min_value=0, max_value=width - 1))
    header = draw(st.booleans())
    rows = draw(st.lists(st.lists(CELL, min_size=width, max_size=width), min_size=4, max_size=30))
    # Some cells of the other columns hold a quoted delimiter.
    rows = [[f'"x{delimiter}y"' if i != index and draw(st.booleans()) else cell
             for i, cell in enumerate(row)] for row in rows]
    blank_before = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    bad_row = draw(st.integers(min_value=0, max_value=len(rows) - 1)) if bad_cell else None
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


#: Extreme cells for the detect property: the float limits, subnormals, and
#: text that float() takes past the float range (inf, and 0 from 1e-400).
EXTREME_CELL = st.sampled_from([
    "1.7976931348623157e308", "-1.7976931348623157e308", "1e308", "5e-324", "-2.2e-308",
    "1e-320", "1e400", "-1e400", "1e-400", "0",
])


def mostly(valid, invalid):
    """A strategy that draws from valid seven times in eight, else from invalid."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 7 else valid)


@st.composite
def detect_invocations(draw):
    """(file bytes, detect flags) for the boundary property of detect.

    The text is a csv_files file, some of whose cells in the selected
    column become EXTREME_CELLs, with a byte-order mark or none and a mix
    of LF, CR LF and CR line ends, in UTF-8 or, rarely, UTF-16 or UTF-32
    (which a UTF-8 read rejects). The column is the file's own, its
    header name, or an index past any index; --delta, --cutoff and
    --interp-factor take valid and invalid values alike.
    """
    bad_cell = draw(mostly(st.just(False), st.just(True)))
    text, delimiter, index, header, _ = draw(csv_files(bad_cell=bad_cell))
    lines = text.split("\n")[:-1]
    for i in range(int(header), len(lines)):
        if lines[i] and '"' not in lines[i] and draw(st.integers(0, 7)) == 7:
            cells = lines[i].split(delimiter)
            cells[index] = draw(EXTREME_CELL)
            lines[i] = delimiter.join(cells)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = "\ufeff" + text
    own = [str(index)] + ([f"c{index}"] if header else [])
    flags = {
        "--column": draw(mostly(st.sampled_from(own), st.sampled_from([10**23, -(10**23)]))),
        "--delimiter": delimiter,
        "--delta": repr(draw(mostly(st.floats(min_value=5e-324, max_value=1e300),
                                    st.one_of(st.floats(), st.just(1e306))))),
        "--cutoff": repr(draw(mostly(st.floats(1e-3, 3.0), st.floats()))),
        "--interp-factor": str(draw(mostly(st.sampled_from([4, 1, 2, 16]),
                                           st.sampled_from([-1, 0, 10**14, 10**400])))),
    }
    encoding = draw(mostly(st.just("utf-8"), st.sampled_from(["utf-16", "utf-32"])))
    return text.encode(encoding), [f"{flag}={value}" for flag, value in flags.items()]


class TestDetectCommand:
    @given(invocation=detect_invocations())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exits_0_with_strict_json_or_2_with_one_error_line(self, tmp_path, capsys,
                                                                invocation):
        data, flags = invocation
        path = tmp_path / "series.csv"
        path.write_bytes(data)
        code = main(["detect", "--input", str(path)] + flags)
        out, err = capsys.readouterr()
        assert code in (0, 2)
        assert len(err.splitlines()) <= 1
        if code == 0:
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
        else:
            assert out == ""

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

    @pytest.mark.parametrize("encoding", ["utf-16", "latin-1"])
    def test_a_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, encoding):
        path = tmp_path / "series.csv"
        path.write_bytes("café\n1\n2\n3\n4\n5\n6\n".encode(encoding))
        code = main(["detect", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: ValueError: {path}: cannot decode the file as ")

    def test_running_out_of_memory_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                              monkeypatch):
        class _ArrayMemoryError(MemoryError):
            """Stands in for numpy's private subclass."""

        message = "Unable to allocate 30.5 MiB for an array with shape (3999997,)"

        def exhausted(*args):
            raise _ArrayMemoryError(message)

        monkeypatch.setattr(seasonlen.cli, "detect_season_length", exhausted)
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        code = main(["detect", "--input", str(path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: MemoryError: {message}\n"

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

    def test_tolerance_of_half_the_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        code = main(["detect", "--input", str(path), "--epsilon", "0.5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: zero_tolerance_rel must lie in [0, 0.5), got 0.5\n"
        )

    def test_undesignable_filter_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        code = main(["detect", "--input", str(path), "--cutoff", "1e-16"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: filter_order, filter_cutoff: order 2 at cutoff 1e-16 has no"
            " steady state: a pole rounds onto the unit circle\n"
        )

    def test_near_pi_cutoff_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        code = main(["detect", "--input", str(path), "--order", "20",
                     "--cutoff", "3.1415926535897927"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: filter_order, filter_cutoff: order 20 at cutoff"
            " 3.1415926535897927 has no steady state: a pole rounds onto the unit circle\n"
        )

    @pytest.mark.parametrize(
        "flag, code, message",
        [
            ("--interp-factor", 2, "error: ValueError: interp_factor upsamples 4 values past"),
            ("--order", 2, "error: ValueError: filter_order, filter_cutoff: order 1000000000"),
            ("--min-zero-count", 0, ""),
        ],
    )
    def test_counts_past_float_range_never_exit_1(self, tmp_path, capsys, flag, code, message):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        assert main(["detect", "--input", str(path), flag, str(10**400)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) if message else err == ""
        assert err.count("\n") <= 1 and len(err) < 200

    @pytest.mark.parametrize(
        "flag, name",
        [("--interp-factor", "interp_factor"), ("--order", "filter_order"),
         ("--min-zero-count", "min_zero_count")],
    )
    def test_a_huge_rejected_count_is_echoed_short(self, tmp_path, capsys, flag, name):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        assert main(["detect", "--input", str(path), flag, str(-(10**400))]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: {name} must be an integer >= 1, got -10000000000..."
            " (402 characters)\n"
        )

    def test_unallocatable_upsampling_prints_one_error_line(self, tmp_path, capsys):
        # 1,999 * 10**14 + 1 values, 1.4 EiB: past any address space.
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 2000)
        assert main(["detect", "--input", str(path), "--interp-factor", str(10**14)]) == 2
        assert capsys.readouterr().err == (
            "error: ValueError: interp_factor 100000000000000 upsamples 2000 values to"
            " 199900000000000001, more than can be allocated\n"
        )

    @pytest.mark.parametrize("column", [str(10**23), str(-(10**23))])
    def test_huge_column_index_prints_one_error_line(self, tmp_path, capsys, column):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        assert main(["detect", "--input", str(path), "--column", column]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: {path}:2: cannot read column '{column}':"
            " cannot fit 'int' into an index-sized integer\n"
        )

    def test_season_length_past_the_float_range_prints_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 250, 2500)
        assert main(["detect", "--input", str(path), "--delta", "1e306"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: ValueError: --delta 1e+306 scales the season length past the float range\n"
        )

    def test_huge_finite_input_detects(self, tmp_path, capsys):
        # Unscaled, the values' sum and the autocorrelation's peak overflow.
        # The suite raises RuntimeWarnings, so a numpy warning on the way
        # fails this test instead of printing lines beside the result.
        path = tmp_path / "huge.csv"
        values = 1e307 * np.sin(2 * np.pi * np.arange(2000) / 100)
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        assert main(["detect", "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
        assert set(payload) == {
            "season_length", "unscaled_length", "trend_degree", "zeros", "interval_size"
        }

    @pytest.mark.parametrize("command", [["detect", "--input", "x.csv"], ["eval", "m.jsonl"]])
    def test_min_zero_count_reaches_the_config(self, command):
        args = build_parser().parse_args(command + ["--min-zero-count", "7"])
        assert _config_from_args(args).min_zero_count == 7

    def test_min_zero_count_of_zero_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sine.csv"
        write_sine_csv(path, 24, 96)
        code = main(["detect", "--input", str(path), "--min-zero-count", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ValueError: min_zero_count must be an integer >= 1, got 0\n"
        )

    @pytest.mark.parametrize("command", [["detect", "--input", "x.csv"], ["eval", "m.jsonl"]])
    def test_fractional_min_zero_count_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--min-zero-count", "2.5"])
        assert exit_info.value.code == 2
        assert "--min-zero-count: invalid int value: '2.5'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [(command, action.option_strings[0])
         for command in ("detect", "eval")
         for action in build_parser()._subparsers._group_actions[0].choices[command]._actions
         if action.option_strings and action.nargs is None],
    )
    def test_an_option_given_as_double_dash_exits_2(self, tmp_path, capsys, command, option):
        # argparse 3.11 hands an option written --name=-- an empty list,
        # which used to end in a traceback or in a message about "[]". The
        # input is valid, so a value that gets past parsing reaches its use.
        write_sine_csv(tmp_path / "sine.csv", 24, 96)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(
            {"path": "sine.csv", "reference": 24, "family": "Sine", "case": "a"}) + "\n")
        args = {"detect": ["detect", "--input", str(tmp_path / "sine.csv")],
                "eval": ["eval", str(manifest), "--out", str(tmp_path / "records.jsonl")]}[command]
        try:
            code = main(args + [f"{option}=--"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        last = err.splitlines()[-1]
        assert "[]" not in err
        assert last == f"seasonlen {command}: error: argument {option}: expected one argument" or (
            last.startswith("error: ")  # where argparse passes "--" on as the value
        )

    def test_an_option_given_as_double_dash_shows_the_subcommand_usage(self, tmp_path, capsys):
        write_sine_csv(tmp_path / "sine.csv", 24, 96)
        with pytest.raises(SystemExit) as exit_info:
            main(["detect", "--input", str(tmp_path / "sine.csv"), "--column=--"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: seasonlen detect")

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

    @pytest.mark.parametrize(
        "args", [["Noise", "--seed", "-1"], ["Mystery"]], ids=["bad-seed", "unknown-family"]
    )
    def test_failed_gen_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "d"
        assert main(["gen", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ValueError: ")
        assert not out.exists()


def suite_digest(root: Path) -> str:
    """SHA-256 over every file under root: sorted relative path, byte length, bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


SUITE_DIGESTS = json.loads((Path(__file__).parent / "data" / "suite_digests.json").read_text())


@pytest.mark.parametrize("seed", sorted(SUITE_DIGESTS["seeds"], key=int))
def test_generated_suite_matches_recorded_digest(tmp_path, seed):
    # The digests pin the bytes `generate_suite("all", seed, dir)` writes:
    # any change to a series, a label, a reference or the file layout
    # shows up here.
    generate_suite("all", int(seed), tmp_path)
    assert suite_digest(tmp_path) == SUITE_DIGESTS["seeds"][seed]


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


@pytest.mark.parametrize("seed", [11, 13, 21, 42])
def test_more_seeds_keep_golden_detections(tmp_path, seed):
    # Golden values as for seed 7, recorded from `seasonlen gen all --seed
    # N` followed by `seasonlen eval` before the trend sums, the zero search
    # and the long autocorrelation ran block by block; one seed alone is
    # too few cases to judge a change to the detector's arithmetic.
    golden = json.loads((Path(__file__).parent / "data" / f"seed{seed}_detected.json").read_text())
    assert golden["seed"] == seed
    records, _ = evaluate_manifest(generate_suite("all", seed, tmp_path), margin=0.2)
    detected = {record.case: record.detected for record in records}
    assert detected.keys() == golden["detected"].keys()
    for case, expected in golden["detected"].items():
        if expected is None:
            assert detected[case] is None, case
        else:
            assert detected[case] == pytest.approx(expected, rel=1e-9), case


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: runs each task when it is submitted."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.tasks.append((fn, args))
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pools(monkeypatch):
    """Every InlineExecutor that evaluate_manifest creates in place of a process pool."""
    pools = []

    def executor(max_workers):
        pools.append(InlineExecutor(max_workers))
        return pools[-1]

    monkeypatch.setattr(seasonlen.cli, "ProcessPoolExecutor", executor)
    return pools


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    return generate_suite("NoSeason", 7, out)


@pytest.fixture(scope="module")
def noise_csv(tmp_path_factory):
    """Absolute path of a clean period-250 sine, which the detector finds."""
    out = tmp_path_factory.mktemp("noise")
    generate_suite("Noise", 7, out)
    return str(out / "Noise" / "Noise-00.csv")


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

    def test_parallel_matches_serial_on_every_family(self, tmp_path):
        manifest = generate_suite("all", 7, tmp_path)
        assert evaluate_manifest(manifest, jobs=2) == evaluate_manifest(manifest, jobs=1)

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_one_share_per_worker(self, suite, inline_pools, jobs):
        assert evaluate_manifest(suite, jobs=jobs) == evaluate_manifest(suite, jobs=1)
        [pool] = inline_pools
        entries = [json.loads(line) for line in suite.read_text().splitlines()]
        shares = [args[1] for _, args in pool.tasks]
        assert pool.max_workers == len(shares) == min(jobs, len(entries))
        assert max(map(len, shares)) - min(map(len, shares)) <= 1
        # Every entry once, in manifest order within its share; dealt largest
        # first, the shares' bytes differ by at most the largest file's.
        assert sorted(entry["case"] for share in shares for entry in share) == sorted(
            entry["case"] for entry in entries)
        for share in shares:
            assert share == sorted(share, key=entries.index)
        size = {entry["case"]: (suite.parent / entry["path"]).stat().st_size for entry in entries}
        totals = [sum(size[entry["case"]] for entry in share) for share in shares]
        assert max(totals) - min(totals) <= max(size.values())

    def test_never_more_workers_than_entries(self, noise_csv, tmp_path, inline_pools):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(
            json.dumps({"path": noise_csv, "reference": 250, "family": "Noise", "case": case}) + "\n"
            for case in "ab"))
        records, _ = evaluate_manifest(manifest, jobs=3)
        assert [record.case for record in records] == ["a", "b"]
        [pool] = inline_pools
        assert pool.max_workers == len(pool.tasks) == 2

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

    @pytest.mark.parametrize(
        "line, jobs",
        [
            ('{"path": "PATH", "family": "Noise", "case": "b"}', "1"),
            ('{"path": "PATH", "family": "Noise", "case": "b"}', "2"),
            ('["PATH", 250]', "1"),
            ('{"path": "PATH", "reference": 0, "family": "Noise", "case": "b"}', "1"),
            ('{"path": "PATH", "reference": -250, "family": "Noise", "case": "b"}', "1"),
            ('{"path": "PATH", "reference": [], "family": "Noise", "case": "b"}', "1"),
            ('{"path": "PATH", "reference": [250, 0], "family": "Noise", "case": "b"}', "1"),
            ('{"path": "PATH", "reference": "250", "family": "Noise", "case": "b"}', "1"),
            ('{"path": "PATH", "reference": true, "family": "Noise", "case": "b"}', "1"),
            ('{"path": 5, "reference": 250, "family": "Noise", "case": "b"}', "1"),
        ],
        ids=["no-reference", "no-reference-2-jobs", "array", "zero-reference",
             "negative-reference", "empty-reference-list", "zero-in-reference-list",
             "string-reference", "bool-reference", "number-path"],
    )
    def test_bad_entry_exits_2_naming_its_line(self, noise_csv, tmp_path, capsys, line, jobs):
        # Line 1 is a valid entry, so the check must run where each line is read.
        good = {"path": noise_csv, "reference": 250, "family": "Noise", "case": "a"}
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(good) + "\n" + line.replace("PATH", noise_csv) + "\n")
        assert main(["eval", str(manifest), "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {manifest}:2: want an object")

    @staticmethod
    def write_nan_csv(path):
        """A sine CSV whose value at index 7 is nan, which the worker reading it rejects."""
        values = np.sin(2 * np.pi * np.arange(2000) / 50)
        values[7] = np.nan
        path.write_text("\n".join(map(repr, values.tolist())) + "\n")

    def test_worker_error_prints_its_message_once(self, tmp_path, capsys):
        # A worker's error reaches the parent pickled; two entries, so the pool runs.
        self.write_nan_csv(tmp_path / "nan.csv")
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(
            json.dumps({"path": "nan.csv", "reference": 50, "family": "Sine", "case": case}) + "\n"
            for case in "ab"))
        assert main(["eval", str(manifest), "--jobs", "2"]) == 2
        assert capsys.readouterr().err == "error: NonFiniteError: non-finite value at index 7\n"

    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "missing-first"])
    def test_parallel_run_reports_the_error_a_serial_run_does(self, tmp_path, capsys, nan_first):
        self.write_nan_csv(tmp_path / "nan.csv")
        paths = ["nan.csv", "missing.csv"] if nan_first else ["missing.csv", "nan.csv"]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(
            json.dumps({"path": path, "reference": 50, "family": "Sine", "case": path}) + "\n"
            for path in paths))
        errors = []
        for jobs in ("1", "2"):
            assert main(["eval", str(manifest), "--jobs", jobs]) == 2
            errors.append(capsys.readouterr().err)
        expected = ("error: NonFiniteError: " if nan_first else "error: FileNotFoundError: ")
        assert errors[0] == errors[1] and errors[0].startswith(expected)
        assert errors[0].count("\n") == 1

    @pytest.mark.parametrize("margin", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_margin_must_be_finite_and_not_negative(self, suite, tmp_path, capsys, margin, jobs):
        out = tmp_path / "records.jsonl"
        code = main(["eval", str(suite), "--margin", margin, "--jobs", jobs, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: ValueError: margin must be a finite number >= 0, got {float(margin)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("entries", [1, 2])
    def test_jobs_below_one_exits_2(self, noise_csv, tmp_path, capsys, jobs, entries):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(
            json.dumps({"path": noise_csv, "reference": 250, "family": "Noise", "case": str(i)}) + "\n"
            for i in range(entries)))
        out = tmp_path / "records.jsonl"
        code = main(["eval", str(manifest), "--jobs", jobs, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: ValueError: jobs must be an integer >= 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [True, np.bool_(True), 2.0, "2", np.int64(0)],
                             ids=["bool", "numpy-bool", "float", "str", "numpy-zero"])
    def test_jobs_must_be_an_integer_and_not_a_bool(self, suite, jobs):
        message = f"jobs must be an integer >= 1, got {jobs!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_manifest(suite, jobs=jobs)

    @pytest.mark.parametrize("jobs", [np.int64(1), np.int64(2), np.int32(3)],
                             ids=["int64-1", "int64-2", "int32-3"])
    def test_numpy_integer_jobs_count_as_their_value(self, suite, inline_pools, jobs):
        assert evaluate_manifest(suite, jobs=jobs) == evaluate_manifest(suite, jobs=1)
        assert [pool.max_workers for pool in inline_pools] == ([int(jobs)] if jobs > 1 else [])

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
