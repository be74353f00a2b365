import filecmp
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibroident import timeseries
from vibroident.errors import AlignmentError, ConfigError, ParseError, SpacingError, WindowError
from vibroident.timeseries import (
    TimeSeries,
    TimeSeriesSet,
    extract_window,
    load_layout,
    parse_timeseries_csv,
    serialize_timeseries_csv,
    synchronize,
    write_timeseries_csv,
)


def make_series(f=5.0, fs=200.0, dur=10.0, t0=0.0, label="a", unit="m/s^2"):
    n = int(dur * fs) + 1
    t = t0 + np.arange(n) / fs
    return TimeSeries(t0, fs, np.sin(2 * np.pi * f * t), unit, label)


def make_set(**kw):
    """One-channel record of :func:`make_series`."""
    ts = make_series(**kw)
    return TimeSeriesSet(ts.start_time, ts.sample_rate, ts.values[None, :], (ts.label,), (ts.unit,))


class TestParse:
    def test_three_row_readback(self, record_file):
        tss = parse_timeseries_csv(record_file("t,a\n0,0\n0.005,1\n0.01,0\n"))
        ts = tss["a"]
        assert ts.sample_rate == 200.0
        assert np.array_equal(ts.values, [0.0, 1.0, 0.0])
        assert ts.start_time == 0.0

    def test_alternating_spacing_rejected(self, record_file):
        text = "t,a\n0,0\n0.005,1\n0.011,0\n0.016,1\n"
        with pytest.raises(SpacingError):
            parse_timeseries_csv(record_file(text))

    def test_rate_and_duration_1024_rows(self, record_file):
        t = np.arange(1024) / 512
        text = "t,a\n" + "\n".join(f"{float(ti)!r},{0.0}" for ti in t)
        ts = parse_timeseries_csv(record_file(text))["a"]
        assert ts.sample_rate == 512.0
        # (1024 - 1) / 512, computed directly
        assert ts.duration == pytest.approx(1023 / 512, abs=0)

    def test_nan_cell_rejected_with_row(self, record_file):
        for cell in ("nan", "inf", "-inf", "1e309"):
            text = f"t,a\n0,0\n0.005,{cell}\n0.01,0\n"
            with pytest.raises(ParseError, match="non-finite cell") as exc:
                parse_timeseries_csv(record_file(text))
            assert exc.value.row == 3

    def test_unparsable_cell_rejected(self, record_file):
        with pytest.raises(ParseError):
            parse_timeseries_csv(record_file("t,a\n0,0\n0.005,oops\n"))

    def test_comments_and_units_line(self, record_file):
        text = "# comment\n# units: a=kN\nt,a\n0,1\n0.5,2\n1.0,3\n"
        ts = parse_timeseries_csv(record_file(text))["a"]
        assert ts.unit == "kN"
        assert ts.sample_rate == 2.0

    def test_roundtrip_at_7_digits(self, record_file):
        rng = np.random.default_rng(7)
        tss = TimeSeriesSet(0.25, 200.0, rng.standard_normal((2, 64)), ("n1", "n2"), ("m/s^2",) * 2)
        text = serialize_timeseries_csv(tss)
        again = parse_timeseries_csv(record_file(text))
        assert again.values.tobytes() == at_7_digits(tss.values).tobytes()
        assert again.start_time == tss.start_time and again.sample_rate == tss.sample_rate
        assert (again.labels, again.units) == (tss.labels, tss.units)
        # a second parse -> serialize -> parse pass is a fixed point, byte for byte and bit for bit
        assert serialize_timeseries_csv(again) == text
        assert parse_timeseries_csv(record_file(text)).values.tobytes() == again.values.tobytes()

    def test_serializer_writes_7_digits_of_every_cell(self):
        values = np.array([
            [0.0, -0.0, 1e-300, 5e-324, 1.0 / 3.0],
            [2.0**53, -1.5e17, 0.1 + 0.2, np.pi, -7.0],
        ])
        tss = TimeSeriesSet(0.1, 3.0, values, ("p", "q"), ("kN", "m"))
        t = tss.times()
        cells = [
            ["0", "-0", "1e-300", "4.940656e-324", "0.3333333"],
            ["9.007199e+15", "-1.5e+17", "0.3", "3.141593", "-7"],
        ]
        rows = [",".join([repr(float(t[i])), cells[0][i], cells[1][i]]) for i in range(values.shape[1])]
        expected = "\n".join(["# units: p=kN,q=m", "t,p,q", *rows]) + "\n"
        assert serialize_timeseries_csv(tss) == expected.encode("ascii")

    @pytest.mark.parametrize("start_time", [0.0, 0.1 + 0.2])
    def test_time_column_of_a_long_fast_record_roundtrips(self, record_file, start_time):
        # 441 s at 512 Hz, the length of the bundled stepped programs; the
        # second start time needs all 17 digits of repr
        n = 441 * 512 + 1
        values = np.sin(np.arange(n) / 37.0)[None, :]
        tss = TimeSeriesSet(start_time, 512.0, values, ("f",), ("kN",))
        again = parse_timeseries_csv(record_file(serialize_timeseries_csv(tss)))
        assert again.start_time == start_time and again.sample_rate == 512.0
        assert again.values.tobytes() == at_7_digits(values).tobytes()


def at_7_digits(values: np.ndarray) -> np.ndarray:
    """Each value as written to a record cell and read back."""
    return np.array([[float("%.7g" % v) for v in row] for row in values.tolist()])


def plain_csv(tss: TimeSeriesSet, cell: str = "%.7g") -> bytes:
    """The record text rendered row by row in plain Python: ``repr`` times
    and ``cell`` cells; with ``'%.7g'``, the reference for the writer's
    kernel."""
    fmt = "%r" + f",{cell}" * len(tss)
    rows = [fmt % (t, *row) for t, row in zip(tss.times().tolist(), tss.values.T.tolist())]
    units = ",".join(f"{label}={unit}" for label, unit in zip(tss.labels, tss.units))
    return "\n".join([f"# units: {units}", ",".join(["t", *tss.labels]), *rows, ""]).encode("utf-8")


def cells_record(values) -> TimeSeriesSet:
    """The values as the cells of a three-channel record, padded with 1.0."""
    values = np.concatenate([np.asarray(values, dtype=float), np.ones(-len(values) % 3)])
    return TimeSeriesSet(0.5, 8.0, values.reshape(-1, 3).T, ("a", "b", "c"), ("m",) * 3)


#: cells at the kernel's edges: decade carries, the fixed/exponent switches
#: at 1e-4 and 1e7, exact binary ties, the ends of its range, and the
#: cells it leaves to '%.7g'
EDGE_CELLS = [
    9.9999995e-05, 9999999.5, 9.999999499999999e-05, 9999999.499999998, 0.99999995,
    1e-4, np.nextafter(1e-4, 0), 9.999994e-05, 1e7, np.nextafter(1e7, 0), 9999999.0,
    1e6, 1e-5, 1.0, 10.0, 0.1, 1e8, 9999999.5e10, 9.9999996e-05, 0.99999996, 9999999.6e-200,
    1.0000005, 1234567.5, 123456.75, 0.00012345675,
    *(k / 2.0**j for j in (1, 2, 5, 9, 14, 20, 30) for k in (1, 3, 5, 12345, 2**22 + 1)),
    12345678.0, 1234567.0, 2.0**24, 2.0**24 + 2, -1.5e17,
    0.0, -0.0, 1e280, -1e280, np.nextafter(1e280, np.inf), 1e-280, -1e-280, np.nextafter(1e-280, 0),
    5e-324, 2.2250738585072014e-308, 1.7976931134623157e308, 1e-300, 1e300,
    math.nan, -math.nan, math.inf, -math.inf,
]


class TestCellKernel:
    """Every written data cell is byte for byte ``'%.7g' % v``."""

    def test_edge_cells(self):
        values = [sign * v for v in EDGE_CELLS for sign in (1.0, -1.0)]
        tss = cells_record(values)
        assert serialize_timeseries_csv(tss) == plain_csv(tss)

    def test_every_power_of_ten_and_its_neighbours(self):
        powers = 10.0 ** np.arange(-323, 309)
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        tss = cells_record(values[np.isfinite(values)])
        assert serialize_timeseries_csv(tss) == plain_csv(tss)

    def test_rounding_ties_and_their_neighbours(self):
        # (m + 0.5) * 10**(X - 6) for every 1009th 7-digit m: exact ties where
        # the product is exact, within an ulp or two of one elsewhere, and
        # the doubles on either side
        m = np.arange(1_000_000, 10_000_000, 1009) + 0.5
        ties = np.concatenate([m * 10.0 ** (x - 6) for x in (-200, -5, -4, -1, 0, 3, 6, 7, 20)])
        tss = cells_record(np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))
        assert serialize_timeseries_csv(tss) == plain_csv(tss)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    def test_any_bit_pattern(self, bits):
        tss = cells_record(np.array(bits, dtype=np.uint64).view(np.float64))
        assert serialize_timeseries_csv(tss) == plain_csv(tss)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=60))
    def test_any_float(self, values):
        tss = cells_record(values)
        assert serialize_timeseries_csv(tss) == plain_csv(tss)

    def test_time_cell_of_24_characters(self):
        start = -1.2345678901234567e-100
        assert len(repr(start)) == 24
        tss = TimeSeriesSet(start, 0.5, np.array([[1.0, -2.5e-7, 3e20]]), ("a",), ("m",))
        assert serialize_timeseries_csv(tss) == plain_csv(tss)

    def test_digit_tables_equal_their_text_construction(self):
        # four[n]: the ASCII of f"{n:04d}" as a little-endian word; zeros[n]:
        # its count of trailing '0', built from the text of each n
        tab = timeseries._cell_tables.__wrapped__()
        text = [f"{n:04d}" for n in range(10_000)]
        four = np.frombuffer("".join(text).encode("ascii"), "<u4").astype(timeseries._U8)
        zeros = np.array([4 - len(s.rstrip("0")) for s in text])
        assert tab.four.dtype == four.dtype and tab.four.tobytes() == four.tobytes()
        assert tab.zeros.dtype == zeros.dtype and tab.zeros.tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_record_matches_plain_python(self, record_io_processes, n):
        values = np.random.default_rng(11).standard_normal((5, 1500)) * np.logspace(-9, 3, 5)[:, None]
        values[2, ::7] = 0.0
        values[3, 100:200] = np.round(values[3, 100:200], 3)
        forks = record_io_processes(n)
        for tss in (worker_record(), TimeSeriesSet(1.75, 512.0, values, tuple("vwxyz"), ("kN",) * 5)):
            assert serialize_timeseries_csv(tss) == plain_csv(tss)
        assert len(forks) == 2 * (n - 1)


class TestRecord:
    def test_rows_are_read_only_views_of_one_matrix(self):
        tss = TimeSeriesSet(0.0, 10.0, np.arange(12.0).reshape(3, 4), ("a", "b", "c"), ("m", "s", "N"))
        assert not tss.values.flags.writeable
        rows = list(tss)
        assert [ts.label for ts in rows] == ["a", "b", "c"]
        assert [ts.unit for ts in rows] == ["m", "s", "N"]
        for c, ts in enumerate(rows):
            assert np.shares_memory(ts.values, tss.values)
            assert np.array_equal(ts.values, tss.values[c])
        assert np.array_equal(tss["b"].values, [4.0, 5.0, 6.0, 7.0])
        assert np.array_equal(tss.times(), rows[0].times())
        assert tss.end_time == rows[0].end_time == 0.3
        with pytest.raises(KeyError):
            tss["z"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate channel label"):
            TimeSeriesSet(0.0, 1.0, np.zeros((2, 3)), ("a", "a"), ("m", "m"))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError):
            TimeSeriesSet(0.0, 1.0, np.zeros((2, 3)), ("a",), ("m",))

    def test_duplicate_column_is_parse_error(self, record_file):
        with pytest.raises(ParseError, match="duplicate channel label"):
            parse_timeseries_csv(record_file("t,a,b,a\n0,1,2,3\n0.5,1,2,3\n"))

    def test_window_of_record_equals_window_of_each_channel(self):
        tss = TimeSeriesSet(0.25, 200.0, np.random.default_rng(2).standard_normal((3, 900)), ("a", "b", "c"), ("m",) * 3)
        out = extract_window(tss, 1.0, 2.5)
        assert out.labels == tss.labels and out.units == tss.units
        for row, ts in zip(out, tss):
            ref = extract_window(ts, 1.0, 2.5)
            assert np.array_equal(row.values, ref.values)
            assert row.start_time == ref.start_time


def ramp_csv(n, fs=200.0):
    return "t,a,b\n" + "".join(f"{i / fs!r},{i},{-i}\n" for i in range(n))


class TestParseEdges:
    """Streaming-parse edge cases: rows are counted as lines of the file."""

    def test_bad_cell_beyond_first_loadtxt_chunk_reports_row(self, record_file):
        lines = ramp_csv(60_000).splitlines()
        lines[55_001] = lines[55_001].replace(",55000,", ",oops,")
        with pytest.raises(ParseError) as exc:
            parse_timeseries_csv(record_file("\n".join(lines)))
        assert exc.value.row == 55_002
        assert "'oops'" in str(exc.value)

    def test_short_row_beyond_first_loadtxt_chunk_reports_row(self, record_file):
        lines = ramp_csv(60_000).splitlines()
        lines[50_500] = lines[50_500].rsplit(",", 1)[0]
        with pytest.raises(ParseError) as exc:
            parse_timeseries_csv(record_file("\n".join(lines)))
        assert exc.value.row == 50_501

    def test_crlf(self, record_file):
        tss = parse_timeseries_csv(record_file("# units: a=kN\r\nt,a\r\n0,1\r\n0.5,2\r\n1.0,3\r\n"))
        assert tss["a"].unit == "kN"
        assert tss["a"].sample_rate == 2.0
        assert np.array_equal(tss["a"].values, [1.0, 2.0, 3.0])

    def test_whitespace_padded_cells(self, record_file):
        tss = parse_timeseries_csv(record_file(" t , a \n 0 , 1 \n0.5,\t2\n 1.0 ,3 \n"))
        assert tss.labels == ("a",)
        assert np.array_equal(tss["a"].values, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("text", ["t,a\n", "# c\nt,a\n\n# units: a=kN\n  \n"])
    def test_header_only_is_parse_error(self, record_file, text):
        with pytest.raises(ParseError, match="no data rows"):
            parse_timeseries_csv(record_file(text))

    def test_nan_after_comments_and_blank_lines_reports_row(self, record_file):
        for cell in ("nan", "inf", "-inf", "1e309"):
            text = f"# c\n\nt,a\n0,0\n# mid\n\n0.005,{cell}\n0.01,0\n"
            with pytest.raises(ParseError) as exc:
                parse_timeseries_csv(record_file(text))
            assert exc.value.row == 7

    def test_spacing_error_row_counts_comment_lines(self, record_file):
        text = "t,a\n0,0\n# gap\n0.005,1\n\n0.011,0\n0.016,1\n"
        with pytest.raises(SpacingError) as exc:
            parse_timeseries_csv(record_file(text))
        assert exc.value.row == 6

    def test_cells_loadtxt_rejects_but_float_accepts(self, record_file):
        # float() reads "1_0" as 10 and "١٢" as 12; the parse has one
        # grammar, np.loadtxt's, so the re-scan names their row
        for cell in ("1_0", "١٢"):
            text = f"# units: a=kN\nt,a\n0,{cell}\n\n0.5,2\n1.0,3\n"
            with pytest.raises(ParseError, match=f"row 3: cannot parse '{cell}'") as exc:
                parse_timeseries_csv(record_file(text))
            assert exc.value.row == 3

    def test_units_comment_after_data_applies(self, record_file):
        ts = parse_timeseries_csv(record_file("t,a\n0,0\n0.5,1\n# units: a=kN\n"))["a"]
        assert ts.unit == "kN"

    def test_utf8_labels_and_units(self, record_file):
        tss = parse_timeseries_csv(record_file("# units: µ=µm/s²\nt,µ\n0,1\n0.5,2\n"))
        assert tss.labels == ("µ",) and tss.units == ("µm/s²",)

    @pytest.mark.parametrize("line", [1, 2, 4, 6])
    def test_bytes_that_are_not_utf8_report_their_row(self, tmp_path, line):
        # the units comment, the header, a data row, a plain comment
        lines = [b"# units: a=kN", b"t,a", b"0,1", b"0.5,2", b"1.0,3", b"# note", b"1.5,4"]
        lines[line - 1] += b"\xff"
        path = tmp_path / "record.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=f"row {line}: not UTF-8 text") as exc:
            parse_timeseries_csv(str(path))
        assert exc.value.row == line

    @pytest.mark.parametrize("n", [1, 3])
    def test_reads_shorter_than_a_line_change_nothing(self, record_file, record_io_processes, monkeypatch, n):
        path = record_file(messy_csv())
        record_io_processes(1)
        whole = parse_timeseries_csv(path)
        monkeypatch.setattr(timeseries, "_READ_BYTES", 7)
        record_io_processes(n)
        again = parse_timeseries_csv(path)
        assert again.values.tobytes() == whole.values.tobytes() and again.units == whole.units
        with pytest.raises(SpacingError) as exc:
            parse_timeseries_csv(record_file(broken_csv("spacing")))
        assert exc.value.row == WORKER_ROWS - 18

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("n", [1, 3])
    def test_blocks_of_a_few_rows_change_nothing(self, record_file, record_io_processes, monkeypatch, rows, n):
        # each process parses and spills its range a block of rows at a
        # time; blocks that end on comments, blanks or the range's end
        # change no value, unit or reported row
        path = record_file(messy_csv())
        record_io_processes(1)
        whole = parse_timeseries_csv(path)
        broken = {kind: parse_outcome(record_file(broken_csv(kind))) for kind in ("bad_cell", "short_row", "nan")}
        monkeypatch.setattr(timeseries, "_FILL_ROWS", rows)
        record_io_processes(n)
        again = parse_timeseries_csv(path)
        assert again.values.tobytes() == whole.values.tobytes() and again.units == whole.units
        for kind, outcome in broken.items():
            assert parse_outcome(record_file(broken_csv(kind))) == outcome


#: 589 samples: not a multiple of 2 or 3, so a split's ranges differ in length
WORKER_ROWS = 2 * 256 + 77


def worker_record() -> TimeSeriesSet:
    """Three channels with awkward cells in the first, middle and last rows."""
    values = np.random.default_rng(5).standard_normal((3, WORKER_ROWS))
    for i in (3, 300, WORKER_ROWS - 2):
        values[:, i] = [-0.0, 5e-324, 2.0**53]
        values[0, i + 1] = 0.1 + 0.2
    return TimeSeriesSet(0.125, 200.0, values, ("a", "b", "c"), ("m/s^2", "kN", "m"))


def messy_csv() -> str:
    """CRLF lines, comments and blank lines among the data, and a units
    line after the last row."""
    lines = ["# units: a=kN", "t,a,b"]
    for i in range(WORKER_ROWS):
        lines.append(f"{i / 200!r},{float(np.sin(i))!r},{-i}")
        if i % 97 == 50:
            lines.append("# a comment")
        if i % 131 == 60:
            lines.append("   ")
    lines.append("# units: b=mm")
    return "\r\n".join(lines) + "\r\n"


def broken_csv(kind: str) -> str:
    """A 589-row ramp with one fault near the end, inside the last range of
    a 2- or 3-way split."""
    lines = ramp_csv(WORKER_ROWS).splitlines()
    k = len(lines) - 20
    t, a, b = lines[k].split(",")
    lines[k] = {
        "bad_cell": f"{t},oops,{b}",
        "short_row": f"{t},{a}",
        "nan": f"{t},nan,{b}",
        "inf": f"{t},{a},-inf",
        "spacing": f"{float(t) + 0.001!r},{a},{b}",
    }[kind]
    return "\n".join(lines) + "\n"


def parse_outcome(path):
    try:
        tss = parse_timeseries_csv(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.row
    return tss.values.tobytes(), tss.labels, tss.units, tss.sample_rate, tss.start_time


class TestRecordIOWorkers:
    """A record written or parsed over forked workers is the same, byte for
    byte, as in one process, on every path."""

    @pytest.mark.parametrize("share, workers", [(0.95, 0), (1.05, 3)])
    def test_fork_threshold_at_its_shipped_value(self, record_file, record_io_processes, share, workers):
        # with 4 CPUs reported and the threshold as shipped, a record 5 %
        # below it is written and parsed in one process, and one 5 % above
        # it over four, with the same bytes either way
        rows = round(share * timeseries._FORK_MIN_CELLS / 5)
        values = np.random.default_rng(7).standard_normal((4, rows))
        tss = TimeSeriesSet(0.0, 200.0, values, ("a", "b", "c", "d"), ("kN",) * 4)
        record_io_processes(1, every_record=False)
        text = serialize_timeseries_csv(tss)
        path = record_file(text)
        serial = parse_timeseries_csv(path).values.tobytes()
        forks = record_io_processes(4, every_record=False)
        assert serialize_timeseries_csv(tss) == text and len(forks) == workers
        assert parse_timeseries_csv(path).values.tobytes() == serial and len(forks) == 2 * workers

    @pytest.mark.parametrize("n", [2, 3])
    def test_writer_bytes_match_one_process(self, record_io_processes, n):
        tss = worker_record()
        record_io_processes(1)
        serial = serialize_timeseries_csv(tss)
        forks = record_io_processes(n)
        assert serialize_timeseries_csv(tss) == serial
        assert len(forks) == n - 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_parse_matches_one_process(self, record_file, record_io_processes, n):
        path = record_file(messy_csv())
        record_io_processes(1)
        serial = parse_timeseries_csv(path)
        assert serial.units == ("kN", "mm")
        forks = record_io_processes(n)
        parallel = parse_timeseries_csv(path)
        assert len(forks) == n - 1
        assert parallel.values.tobytes() == serial.values.tobytes()
        assert (parallel.labels, parallel.units) == (serial.labels, serial.units)
        assert (parallel.sample_rate, parallel.start_time) == (serial.sample_rate, serial.start_time)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_units_line_in_the_last_range_overrides_the_header(self, record_file, record_io_processes, n):
        lines = messy_csv().split("\r\n")
        assert lines[0] == "# units: a=kN" and lines[-2] == "# units: b=mm"
        lines[0], lines[-2] = "# units: a=kN,b=m", "# units: a=N"
        forks = record_io_processes(n)
        assert parse_timeseries_csv(record_file("\r\n".join(lines))).units == ("N", "m")
        assert parse_timeseries_csv(record_file("\r\n".join(lines)), units={"a": "lbf"}).units == ("lbf", "m")
        assert len(forks) == 2 * (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fast_path_reads_the_file_once(self, record_file, record_io_processes, monkeypatch, tmp_path, n):
        # the header's piece and one piece at each cut between two ranges
        # aside, every byte is read once, units lines included
        path = record_file(messy_csv())
        monkeypatch.setattr(timeseries, "_READ_BYTES", 4096)
        log = tmp_path / "reads.log"
        chunks = timeseries._chunks

        def logged(path, start, stop):
            for piece in chunks(path, start, stop):
                with open(log, "a") as fh:
                    fh.write(f"{len(piece)}\n")
                yield piece

        monkeypatch.setattr(timeseries, "_chunks", logged)
        forks = record_io_processes(n)
        assert parse_timeseries_csv(path).units == ("kN", "mm") and len(forks) == n - 1
        read = sum(map(int, log.read_text().split()))
        assert os.path.getsize(path) <= read <= os.path.getsize(path) + n * 4096

    @pytest.mark.parametrize("kind", ["bad_cell", "short_row", "nan", "inf", "spacing"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_error_in_a_worker_range_matches_one_process(self, record_file, record_io_processes, kind, n):
        path = record_file(broken_csv(kind))
        record_io_processes(1)
        serial = parse_outcome(path)
        assert serial[0] in (ParseError, SpacingError) and serial[2] == WORKER_ROWS - 18
        forks = record_io_processes(n)
        assert parse_outcome(path) == serial
        assert len(forks) == n - 1

    @pytest.mark.parametrize("fault", ["exit_1_after_all_bytes", "exit_1_after_half", "sigkill"])
    def test_failed_worker_never_yields_a_partial_result(self, record_file, record_io_processes, failing_workers, fault):
        tss = worker_record()
        record_io_processes(1)
        text = serialize_timeseries_csv(tss)
        path = record_file(text)
        values = parse_timeseries_csv(path).values.tobytes()
        failing_workers(fault)
        forks = record_io_processes(3)
        assert serialize_timeseries_csv(tss) == text
        assert parse_timeseries_csv(path).values.tobytes() == values
        assert len(forks) == 4

    @pytest.mark.parametrize("fault", ["exit_1_after_all_bytes", "exit_1_after_half", "sigkill"])
    def test_parent_formats_and_parses_each_row_once(
        self, record_file, record_io_processes, failing_workers, monkeypatch, fault
    ):
        # a failed worker costs its own range: the parent sends that range
        # again, and no other row, whichever way the worker failed
        tss = worker_record()
        record_io_processes(1)
        text = serialize_timeseries_csv(tss)
        path = record_file(text)
        values = parse_timeseries_csv(path).values.tobytes()
        parent, rows = os.getpid(), {"formatted": 0, "parsed": 0}
        format_cells, row_blocks = timeseries._format_cells, timeseries._row_blocks

        def counted_format(v, sep, out):
            if os.getpid() == parent:
                rows["formatted"] += len(v)
            format_cells(v, sep, out)

        def counted_blocks(*args):
            for block in row_blocks(*args):
                if os.getpid() == parent:
                    rows["parsed"] += len(block)
                yield block

        monkeypatch.setattr(timeseries, "_format_cells", counted_format)
        monkeypatch.setattr(timeseries, "_row_blocks", counted_blocks)
        failing_workers(fault)
        forks = record_io_processes(3)
        assert serialize_timeseries_csv(tss) == text
        assert parse_timeseries_csv(path).values.tobytes() == values
        assert rows == {"formatted": WORKER_ROWS, "parsed": WORKER_ROWS} and len(forks) == 4

    def test_refused_fork_gives_the_one_process_results(self, record_file, record_io_processes, monkeypatch):
        # every range whose fork raised is sent by the parent itself, so
        # the bytes, the values and a bad cell's error and row are those of
        # one process
        tss = worker_record()
        record_io_processes(1)
        text = serialize_timeseries_csv(tss)
        path, broken = record_file(text), record_file(broken_csv("bad_cell"))
        values, serial = parse_timeseries_csv(path).values.tobytes(), parse_outcome(broken)
        assert serial[0] is ParseError and serial[2] == WORKER_ROWS - 18
        record_io_processes(3)
        refused = []

        def refuse():
            refused.append(1)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        assert serialize_timeseries_csv(tss) == text
        assert parse_timeseries_csv(path).values.tobytes() == values
        assert parse_outcome(broken) == serial
        assert len(refused) == 6


def test_record_starting_at_rest_is_sized_from_its_line_lengths(record_file, monkeypatch):
    # 24,000 x 5 cells after a first row of zeros an eighth as long as the
    # others: sized from that row the record would look like 928,000 cells
    # and be split, although it is below the threshold
    rows = ["t,a,b,c,d", "0,0,0,0,0"]
    rng = np.random.default_rng(3)
    rows += [",".join([repr(i / 512), *(f"{v:.14g}" for v in rng.normal(0, 300, 4))]) for i in range(1, 24_000)]
    path = record_file("\n".join(rows) + "\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    tss = parse_timeseries_csv(path)
    assert tss.values.size + len(tss.times()) < timeseries._FORK_MIN_CELLS and forks == []
    # the same record above the threshold is split
    monkeypatch.setattr(timeseries, "_FORK_MIN_CELLS", 100_000)
    assert parse_timeseries_csv(path).values.tobytes() == tss.values.tobytes() and len(forks) == 3


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 24_795, 24_796])
    def test_equals_np_median_bit_for_bit(self, n):
        # the spacings of a 200 Hz time column written to 3 decimals (a few
        # values, many repeats), and values spread over 40 decades
        rng = np.random.default_rng(n)
        dt = np.diff(np.round(0.1 + np.arange(n + 1) / 200, 3))
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        for x in (dt, wide):
            assert np.float64(timeseries._median(x)).tobytes() == np.median(x).tobytes()


@pytest.mark.parametrize("n", [1, 3])
def test_parse_holds_no_copy_of_the_file(record_file, record_io_processes, n):
    # a 5.8 MB file of 8 channels at 14 digits, a finer logger's cells;
    # holding its text took 2x its size
    values = np.random.default_rng(1).standard_normal((8, 40_000))
    path = record_file(plain_csv(TimeSeriesSet(0.0, 200.0, values, tuple("abcdefgh"), ("m",) * 8), "%.14g"))
    forks = record_io_processes(n)
    tracemalloc.start()
    try:
        tss = parse_timeseries_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    at_14_digits = [[float("%.14g" % v) for v in row] for row in values.tolist()]
    assert tss.values.tobytes() == np.array(at_14_digits).tobytes() and len(forks) == n - 1
    assert peak < os.path.getsize(path)


@pytest.mark.parametrize("n", [1, 2])
def test_parse_holds_one_copy_of_the_record(tmp_path, record_io_processes, n):
    # a 24-channel x 60,000-sample record, an 11.5 MB matrix.  Each process
    # spills its rows to a temp file before the matrix exists, and the
    # matrix is filled from them one block at a time, so it is the parse's
    # one large allocation: about 1.04x with the time column, where holding
    # the parsed rows beside it took 2.1x in one process and 1.6x over two
    values = np.random.default_rng(4).standard_normal((24, 60_000))
    path = tmp_path / "record.csv"
    with open(path, "wb") as fh:
        write_timeseries_csv(TimeSeriesSet(0.0, 200.0, values, tuple(f"c{i}" for i in range(24)), ("m",) * 24), fh)
    forks = record_io_processes(n)
    tracemalloc.start()
    try:
        tss = parse_timeseries_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tss.values.nbytes >= 10e6 and len(forks) == n - 1
    assert peak <= 1.3 * tss.values.nbytes, f"peak {peak / tss.values.nbytes:.2f}x the matrix"


def test_writer_holds_no_copy_of_the_text(tmp_path, record_io_processes):
    # a 15 MB text of 24 channels, written in one process, then over two.
    # The peak, about 3.5 MB, is one block's formatting whatever the
    # record's size; a writer that joins the text holds twice the text
    values = np.random.default_rng(2).standard_normal((24, 60_000))
    tss = TimeSeriesSet(0.0, 200.0, values, tuple(f"c{i}" for i in range(24)), ("m",) * 24)
    timeseries._cell_tables()   # built once per process, not per record
    paths = []
    for n in (1, 2):
        forks = record_io_processes(n)
        paths.append(tmp_path / f"record{n}.csv")
        with open(paths[-1], "wb") as fh:
            tracemalloc.start()
            try:
                write_timeseries_csv(tss, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        size = os.path.getsize(paths[-1])
        assert size > 4e6 and peak < size / 4 and len(forks) == n - 1
    assert filecmp.cmp(*paths, shallow=False)


class TestSynchronize:
    def test_overlap_of_different_rates_accepted(self):
        resp = make_set(dur=4.0, label="r")
        force = make_set(fs=512.0, t0=2.5, dur=4.0, label="f")
        assert synchronize(resp, force) is None

    def test_no_overlap_raises(self):
        resp = make_set(t0=0.0, dur=2.0, label="r")
        force = make_set(t0=10.0, dur=2.0, label="f")
        with pytest.raises(AlignmentError):
            synchronize(resp, force)

    def test_short_overlap_raises(self):
        resp = make_set(t0=0.0, dur=2.0, label="r")
        force = make_set(t0=1.5, dur=2.0, label="f")
        with pytest.raises(AlignmentError):
            synchronize(resp, force)


class TestExtractWindow:
    def test_full_span_is_identity(self):
        ts = make_series()
        out = extract_window(ts, ts.start_time, ts.end_time)
        assert np.array_equal(out.values, ts.values)
        assert out.start_time == ts.start_time

    def test_half_window_on_constant(self):
        ts = TimeSeries(0.0, 100.0, np.ones(1001), "mm", "c")
        out = extract_window(ts, 0.0, 0.5 * ts.duration)
        assert np.all(out.values == 1.0)
        assert abs(len(out) - 501) <= 1

    def test_window_past_end_raises(self):
        ts = make_series(dur=1.0)
        with pytest.raises(WindowError):
            extract_window(ts, 5.0, 6.0)

    def test_idempotent(self):
        ts = make_series()
        a = extract_window(ts, 1.0, 3.0)
        b = extract_window(a, 1.0, 3.0)
        assert np.array_equal(a.values, b.values)
        assert a.start_time == b.start_time


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.2, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_extract_window_idempotent_property(t0, width):
    ts = make_series(dur=10.0)
    a = extract_window(ts, t0, t0 + width)
    b = extract_window(a, t0, t0 + width)
    assert np.array_equal(a.values, b.values) and a.start_time == b.start_time


def mask_window(ts, t0, t1):
    """The mask rule extract_window must reproduce: every sample whose
    timestamp lies within 1e-12 s of [t0, t1]."""
    t = ts.times()
    keep = (t >= t0 - 1e-12) & (t <= t1 + 1e-12)
    return np.flatnonzero(keep)


_edge = st.sampled_from([0.0, 1e-12, -1e-12, 2e-12, -2e-12, 5e-13, -5e-13, 1e-9, -1e-9])


@given(
    start=st.floats(min_value=-100.0, max_value=1000.0),
    rate=st.floats(min_value=0.5, max_value=2048.0),
    n=st.integers(min_value=1, max_value=5000),
    i0=st.integers(min_value=-20, max_value=5020),
    width=st.integers(min_value=0, max_value=5000),
    e0=_edge,
    e1=_edge,
    jitter=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_extract_window_matches_mask_rule(start, rate, n, i0, width, e0, e1, jitter):
    ts = TimeSeries(start, rate, np.arange(n, dtype=float))
    # bounds on, next to, or between sample times, inside and outside the record
    t0 = start + i0 / rate + e0
    t1 = start + (i0 + width) / rate + e1 + jitter / rate * (width == 0)
    expected = mask_window(ts, t0, t1)
    if not t0 < t1 or expected.size == 0:
        with pytest.raises(WindowError):
            extract_window(ts, t0, t1)
        return
    out = extract_window(ts, t0, t1)
    assert np.array_equal(out.values, expected.astype(float))
    assert out.start_time == ts.times()[expected[0]]


def test_layout_roundtrip_and_validation():
    doc = """{
      "stations": [
        {"id": "S1", "pos": [1.0, 2.0, 3.0]},
        {"id": "S2", "pos": [-1.0, 0.0, 0.5]}
      ],
      "groups": {"T1": ["S1"], "B1": ["S2"]}
    }"""
    layout = load_layout(doc)
    assert layout.station("S1").position.tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(layout.station("S2").axes, np.eye(3))
    assert layout.groups["T1"] == ("S1",)
    with pytest.raises(ConfigError, match="unknown station missing"):
        load_layout(io.StringIO('{"stations": [{"id": "A", "pos": [0,0,0]}], "groups": {"G": ["missing"]}}'))


def test_layout_group_named_like_a_station_is_config_error():
    doc = '{"stations": [{"id": "S1", "pos": [0,0,0]}, {"id": "S2", "pos": [1,0,0]}], "groups": {"S1": ["S1", "S2"]}}'
    with pytest.raises(ConfigError, match="group S1 has the id of a station"):
        load_layout(doc)
