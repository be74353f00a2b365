"""Multi-channel, multi-rate time series: data model, CSV ingestion,
the overlap check between records, index windows, and sensor layouts.

A record (:class:`TimeSeriesSet`) is one ``(channels, samples)`` matrix
on a uniform time axis, with a label and a unit per row; it is
simulated, written, parsed, filtered and windowed whole.  A parsed
record can also stay in its parse's spill files (:class:`RecordStream`);
both read as a stream of blocks of rows, keyed by row index.

CSV layout (UTF-8): first column ``t`` in seconds, remaining columns are
channel labels; ``#`` lines are comments.  Timestamps must be uniform; the
sample rate is inferred from the median delta.  Records of different rates
are never resampled: each is windowed on its own time axis.  A record file
is written one block of rows at a time and parsed by byte ranges read from
the file in bounded pieces, so its text is never held whole.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import os
import shutil
import signal
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    ParseError,
    SpacingError,
    WindowError,
    check_keys,
    check_real,
)

#: relative tolerance on timestamp spacing uniformity
SPACING_RTOL = 1e-6


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class _UniformAxis:
    """Time axis of a channel or a record: sample i of the last axis of
    ``values`` lives at ``start_time + i / sample_rate``, in seconds from
    the record epoch."""

    @property
    def samples(self) -> int:
        """Samples per channel."""
        return self.values.shape[-1]

    @property
    def duration(self) -> float:
        """(samples - 1) / sample_rate, exactly."""
        return (self.samples - 1) / self.sample_rate

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.samples) / self.sample_rate

    def with_values(self, values: np.ndarray):
        return replace(self, values=values)


@dataclass(frozen=True)
class TimeSeries(_UniformAxis):
    """Uniformly sampled single-channel record."""

    start_time: float
    sample_rate: float
    values: np.ndarray
    unit: str = "1"
    label: str = ""

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "values", _freeze(np.atleast_1d(self.values)))
        if self.values.size == 0:
            raise ValueError("values must not be empty")

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class TimeSeriesSet(_UniformAxis):
    """Channels sharing one time axis, held as one read-only C-ordered
    ``(channels, samples)`` matrix: row c is channel ``labels[c]`` (unique)
    in ``units[c]``.  Iteration and ``tss[label]`` give :class:`TimeSeries`
    views of the rows; filtering and windowing act on the whole matrix."""

    start_time: float
    sample_rate: float
    values: np.ndarray
    labels: tuple[str, ...]
    units: tuple[str, ...]

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        values = _freeze(self.values)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("values must be a non-empty (channels, samples) matrix")
        _check_channels(self, len(values))
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.labels)

    def _row(self, c: int) -> TimeSeries:
        return TimeSeries(self.start_time, self.sample_rate, self.values[c], self.units[c], self.labels[c])

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __getitem__(self, label: str) -> TimeSeries:
        try:
            return self._row(self.labels.index(label))
        except ValueError:
            raise KeyError(label) from None

    def blocks(self):
        """(first row, channels x rows view) of each block of ``_FILL_ROWS``
        rows, in row order: the stream of blocks that
        :meth:`RecordStream.blocks` reads from a parse's spill files."""
        for lo in range(0, self.samples, _FILL_ROWS):
            yield lo, self.values[:, lo : lo + _FILL_ROWS]


def _check_channels(record, channels: int) -> None:
    """Freeze ``record``'s labels and units as tuples; ValueError unless its
    ``channels`` rows have as many labels, all unique, and units."""
    labels, units = tuple(record.labels), tuple(record.units)
    if not len(labels) == len(units) == channels:
        raise ValueError(f"{channels} channels need as many labels and units")
    duplicates = sorted(lab for lab, k in Counter(labels).items() if k > 1)
    if duplicates:
        raise ValueError(f"duplicate channel label(s): {', '.join(duplicates)}")
    object.__setattr__(record, "labels", labels)
    object.__setattr__(record, "units", units)


@dataclass(frozen=True, eq=False)
class RecordStream(_UniformAxis):
    """A parsed record whose rows stay in its parse's spill files
    (:func:`open_timeseries_csv`): the time axis, labels and units of a
    :class:`TimeSeriesSet`, and its rows read back as a stream of blocks
    (:meth:`RecordStream.blocks`) while the parse's ``with`` block is open."""

    start_time: float
    sample_rate: float
    labels: tuple[str, ...]
    units: tuple[str, ...]
    #: (spill file, first row, rows) of each parsed byte range, in row order
    ranges: tuple[tuple[object, int, int], ...]

    def __post_init__(self):
        _check_channels(self, len(self.labels))

    @property
    def samples(self) -> int:
        _, first, rows = self.ranges[-1]
        return first + rows

    def __len__(self) -> int:
        return len(self.labels)

    def blocks(self):
        """(first row, channels x rows block) of each block of
        ``_FILL_ROWS`` rows, in row order, as :meth:`TimeSeriesSet.blocks`
        gives them: a block's rows are read from the spill files that hold
        them, through one buffer, so no block depends on where a byte
        range ends, and transposed into a second.  OSError if a spill file
        reads short."""
        n, channels = self.samples, len(self.labels)
        rows = np.empty((min(_FILL_ROWS, n), channels))
        block = np.empty((channels, len(rows)))
        for lo in range(0, n, _FILL_ROWS):
            hi = min(lo + _FILL_ROWS, n)
            for spill, first, count in self.ranges:
                a, b = max(lo, first), min(hi, first + count)
                if a < b:
                    part = rows[a - lo : b - lo]
                    spill.seek(_SPILL_HEAD + (a - first) * channels * 8)
                    if spill.readinto(part) != part.nbytes:
                        raise OSError("short read from a record parse's temp file")
            out = block[:, : hi - lo]
            out[...] = rows[: hi - lo].T
            yield lo, out


@dataclass(frozen=True)
class Station:
    """Sensor location and the three directions it measures."""

    id: str
    position: np.ndarray          # meters, relative to the reference point P0
    axes: np.ndarray              # rows are unit measurement directions

    def __post_init__(self):
        pos = _freeze(np.asarray(self.position, dtype=float).reshape(3))
        axes = np.asarray(self.axes, dtype=float).reshape(3, 3)
        norms = np.linalg.norm(axes, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError(f"station {self.id}: measurement axes must be unit vectors")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "axes", _freeze(axes))


@dataclass(frozen=True)
class SensorLayout:
    """Station positions plus named station groups (T1, B2, ...)."""

    stations: tuple[Station, ...]
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise ValueError("station ids must be unique")
        known = set(ids)
        for name, members in self.groups.items():
            if name in known:
                raise ValueError(f"group {name} has the id of a station")
            for sid in members:
                if sid not in known:
                    raise ValueError(f"group {name} references unknown station {sid}")
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(self, "groups", {k: tuple(v) for k, v in self.groups.items()})

    def station(self, sid: str) -> Station:
        for s in self.stations:
            if s.id == sid:
                return s
        raise KeyError(sid)


#: records with fewer cells than this are written and parsed in one
#: process.  A fork, spill file and reap cost about 1.7 ms wall and 1.8 ms
#: CPU per worker (2-vCPU Xeon, Linux, 185 MB parent); at 0.08 us per
#: written cell and 0.10 us per parsed one (7-digit cells), three workers'
#: forks cost 21 % of the writing and 17 % of the parsing of 300,000 cells,
#: far less than the half that a second CPU saves.  Below it the split
#: still saves wall time, for more CPU: a 181,820-cell force record parsed
#: in 20 ms wall and 33 ms CPU over two processes, 26 ms and 26 ms in one.
_FORK_MIN_CELLS = 300_000
#: most processes, the parent included, that write or parse one record
_MAX_WORKERS = 4


def _worker_count(cells: int) -> int:
    """Processes to split work on ``cells`` over: one per usable CPU, at
    most ``_MAX_WORKERS``, and one where ``os.fork`` is missing."""
    if cells < _FORK_MIN_CELLS or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)


@contextlib.contextmanager
def _forked(ranges, send, first):
    """Run ``send(lo, hi, out)`` for each ``(lo, hi)`` pair of ``ranges``:
    the first in this process into the binary file ``first``, every other
    in its own forked child into its spill file, an unnamed temp file
    opened before the fork.  A child ends with ``os._exit``: 0 once
    ``send`` returned, 1 if it raised.  Nothing is pickled, and a child
    never waits for a reader.

    One failure rule: a range whose fork raised OSError, or whose child
    did not exit 0, is sent again by this process into its emptied spill
    file, so a failed worker costs its own range only and no byte it wrote
    is read.  An error of ``send`` here, or a temp file that cannot be
    made, propagates.  Yields the spill files, rewound, in ``ranges``
    order; leaving the block kills and reaps every child not yet reaped,
    then closes the spill files.
    """
    spills, pids = [], []
    try:
        for lo, hi in ranges[1:]:
            spills.append(tempfile.TemporaryFile())
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                code = 1
                try:
                    send(lo, hi, spills[-1])
                    spills[-1].flush()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        send(*ranges[0], first)
        for k, ((lo, hi), spill) in enumerate(zip(ranges[1:], spills)):
            failed = pids[k] is None or os.waitpid(pids[k], 0)[1] != 0
            pids[k] = None
            if failed:
                spill.seek(0)
                spill.truncate()
                send(lo, hi, spill)
            spill.seek(0)
        yield spills
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for spill in spills:
            spill.close()


#: bytes per read of a record file
_READ_BYTES = 1 << 18


def _chunks(path, start: int, stop: int):
    """The bytes ``[start, stop)`` of the file at ``path`` in pieces of
    whole lines, read ``_READ_BYTES`` at a time; only the last piece may end
    without a newline, and a line longer than one read is joined whole."""
    with open(path, "rb") as fh:
        fh.seek(start)
        rest = b""
        while start < stop:
            data = fh.read(min(_READ_BYTES, stop - start))
            if not data:
                break
            start += len(data)
            cut = data.rfind(b"\n") + 1
            if cut:
                yield rest + data[:cut]
                rest = data[cut:]
            else:
                rest += data
        if rest:
            yield rest


def _content_lines(path, units: dict[str, str] | None = None, pieces: list[tuple[int, int]] | None = None):
    """(line number, end, stripped line) of every line of the file that is
    neither blank nor a ``#`` comment; ``end`` is the byte offset just past
    the line.  Each line is decoded as UTF-8; ParseError with its line
    number if it is not.  ``# units:`` lines passed on the way are added
    to ``units``, and the (bytes, lines) of each piece read to ``pieces``,
    if given."""
    lineno = end = 0
    for chunk in _chunks(path, 0, os.path.getsize(path)):
        lines = chunk.split(b"\n")
        if chunk.endswith(b"\n"):
            lines.pop()
        if pieces is not None:
            pieces.append((len(chunk), len(lines)))
        for raw in lines:
            lineno += 1
            end += len(raw) + 1
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"row {lineno}: not UTF-8 text ({exc.reason})", row=lineno) from None
            if line.startswith("#"):
                if units is not None:
                    _add_units(units, line)
            elif line:
                yield lineno, end, line


def _add_units(units: dict[str, str], line: str) -> None:
    """Add the pairs of ``line`` to ``units`` if it is a ``# units:
    a=kN,b=m`` comment (stripped)."""
    body = line[1:].strip()
    if line.startswith("#") and body.startswith("units:"):
        for pair in body[len("units:"):].split(","):
            if "=" in pair:
                k, v = pair.split("=", 1)
                units[k.strip()] = v.strip()


def _unit_lines(chunk: bytes) -> list[str]:
    """The stripped lines of a piece of whole lines that hold a ``#`` and
    ``units:``.  They are found by ``bytes.find`` of ``#``, a ``memchr``,
    so a piece without comments costs one fast scan."""
    lines = []
    at = chunk.find(b"#")
    while at >= 0:
        start = chunk.rfind(b"\n", 0, at) + 1
        end = chunk.find(b"\n", at)
        end = len(chunk) if end < 0 else end
        if b"units:" in chunk[start:end]:
            lines.append(chunk[start:end].decode("utf-8").strip())
        at = chunk.find(b"#", end)
    return lines


def _data_row_lineno(path, k: int) -> int:
    """Line number of data row ``k`` (0-based, after the header)."""
    with contextlib.closing(_content_lines(path)) as lines:
        return next(itertools.islice(lines, k + 1, None))[0]


def _bad_row(path, ncol: int) -> ParseError:
    """The ParseError of the first data row that ``np.loadtxt``, the
    parse's one grammar, does not read alone as ``ncol`` cells, with its
    line number and, where one does not parse, its first such cell."""
    with contextlib.closing(_content_lines(path)) as content:
        for lineno, _, line in itertools.islice(content, 1, None):
            try:
                cells = np.loadtxt([line], delimiter=",", ndmin=2).shape[1]
            except ValueError:
                cell = next((c.strip() for c in line.split(",") if not _reads(c)), line)
                return ParseError(f"row {lineno}: cannot parse {cell!r}", row=lineno)
            if cells != ncol:
                return ParseError(f"row {lineno}: expected {ncol} cells, got {cells}", row=lineno)
    return ParseError("data rows do not parse")


def _reads(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads ``cell`` alone as one value."""
    try:
        return bool(cell.strip()) and np.loadtxt([cell], delimiter=",", comments=None).size == 1
    except ValueError:
        return False


#: most data lines that go to one ``np.loadtxt`` call, and rows per block
#: of a record read as a stream (:meth:`TimeSeriesSet.blocks`)
_FILL_ROWS = 1024


def _row_blocks(path, start: int, stop: int, ncol: int, found: list[str]):
    """``np.loadtxt`` of the data lines of the file's bytes ``[start, stop)``,
    as blocks of rows of at most ``_FILL_ROWS`` lines each: each piece is
    decoded, split and stripped in C, one line at a time to the parser,
    which skips ``#`` comments itself.  The ``_unit_lines`` of the pieces
    are added to ``found``, in file order.  ValueError unless the bytes are
    UTF-8 and every row has ``ncol`` cells."""

    def pieces(chunks):
        for chunk in chunks:
            found.extend(_unit_lines(chunk))
            yield chunk.decode("utf-8")

    with contextlib.closing(_chunks(path, start, stop)) as chunks:
        lines = itertools.chain.from_iterable(
            filter(None, map(str.strip, piece.split("\n"))) for piece in pieces(chunks)
        )
        while (first := next((line for line in lines if not line.startswith("#")), None)) is not None:
            block = itertools.chain([first], itertools.islice(lines, _FILL_ROWS - 1))
            rows = np.loadtxt(block, delimiter=",", ndmin=2)
            if rows.shape[1] != ncol:
                raise ValueError("column count mismatch")
            yield rows


#: bytes before a spill file's rows: its row count, then the count of its
#: leading rows whose cells are all finite
_SPILL_HEAD = 16


def _spill_range(path, ncol: int, start: int, stop: int, out) -> None:
    """Parse the data rows of the file's bytes ``[start, stop)``
    (``_row_blocks``) into the binary file ``out``: after ``_SPILL_HEAD``
    bytes, written last, the channel cells row-major, one block at a time,
    then the time column, then the ``units:`` lines, so the channels'
    rows can be read back by row index without the times."""
    found: list[str] = []
    out.write(bytes(_SPILL_HEAD))
    count, finite, times = 0, None, [np.empty(0)]
    for rows in _row_blocks(path, start, stop, ncol, found):
        if finite is None:
            ok = np.isfinite(rows).all(axis=1)
            finite = None if ok.all() else count + int(np.argmin(ok))
        out.write(np.ascontiguousarray(rows[:, 1:]).data)
        times.append(rows[:, 0].copy())
        count += len(rows)
    out.write(np.concatenate(times).data)
    out.write("\n".join(found).encode("utf-8"))
    out.seek(0)
    out.write(count.to_bytes(8, "little") + (count if finite is None else finite).to_bytes(8, "little"))


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, bit for bit (the mean of the two
    middle values of an even count), from ``np.partition``: ``np.median``'s
    NaN check imports ``numpy.ma`` on its first call, 11 ms."""
    h = len(x) // 2
    if len(x) % 2:
        return float(np.partition(x, h)[h])
    lo, hi = np.partition(x, (h - 1, h))[h - 1 : h + 1]
    return float((lo + hi) / 2)


def _data_ranges(path) -> tuple[list[str], dict[str, str], list[tuple[int, int]]]:
    """The header's labels, the units of the ``# units:`` lines read up to
    its first data row, and the data bytes cut at newlines into one
    ``(start, stop)`` range per process (:func:`_worker_count`)."""
    file_units: dict[str, str] = {}
    read: list[tuple[int, int]] = []
    with contextlib.closing(_content_lines(path, file_units, read)) as content:
        first = next(content, None)
        header = None if first is None else [c.strip() for c in first[2].split(",")]
        if header is None or len(header) < 2:
            raise ParseError("header row must name the time column and at least one data column")
        if header[0] != "t":
            raise ParseError(f"first column must be 't', got {header[0]!r}")
        second = next(content, None)
    if second is None:
        raise ParseError("no data rows")

    ncol, start = len(header), first[1]
    size = os.path.getsize(path)
    # cells from the mean line length of the piece that holds the first
    # data row: a record that starts at rest has a first row far shorter
    # than the rest
    nbytes, nlines = read[-1]
    cells = (size - start) * ncol * nlines // nbytes
    parts = _worker_count(cells)
    cuts = [start]
    for k in range(1, parts):
        # the first line boundary at or after an equal share of the bytes,
        # which ends the first piece read from there
        at = start + (size - start) * k // parts
        with contextlib.closing(_chunks(path, at, size)) as pieces:
            nl = next(pieces, b"").find(b"\n")
        cuts.append(size if nl < 0 else max(at + nl + 1, cuts[-1]))
    cuts.append(size)
    return header, file_units, list(zip(cuts, cuts[1:]))


def _time_axis(path, t: np.ndarray, finite: int) -> tuple[float, float]:
    """Start time and rate of the time column ``t``, the median spacing's
    rate snapped to an integer within ``SPACING_RTOL``.  ParseError with its
    line number at the first row with a non-finite cell (data row
    ``finite``, if there is one) or with too few rows; SpacingError at the
    first spacing that is not positive or not uniform."""
    if finite < len(t):
        lineno = _data_row_lineno(path, finite)
        raise ParseError(f"row {lineno}: non-finite cell", row=lineno)
    if len(t) < 2:
        raise ParseError("need at least two samples to infer the sample rate")
    dt = np.diff(t)
    if np.any(dt <= 0):
        bad = int(np.argmax(dt <= 0))
        lineno = _data_row_lineno(path, bad + 1)
        raise SpacingError(f"row {lineno}: timestamps not increasing", row=lineno)
    dt_med = _median(dt)
    if np.any(np.abs(dt - dt_med) > SPACING_RTOL * dt_med):
        bad = int(np.argmax(np.abs(dt - dt_med) > SPACING_RTOL * dt_med))
        lineno = _data_row_lineno(path, bad + 1)
        raise SpacingError(
            f"row {lineno}: non-uniform spacing (dt={dt[bad]:.9g} vs median {dt_med:.9g})",
            row=lineno,
        )
    rate = 1.0 / dt_med
    # snap to an integer rate when the inferred value is within spacing tolerance
    if abs(rate - round(rate)) < SPACING_RTOL * rate:
        rate = float(round(rate))
    return float(t[0]), rate


def _spilled_axis(path, spills, ncol: int, file_units: dict[str, str]) -> tuple[float, float, tuple]:
    """Start time and rate (:func:`_time_axis`) of the rows that the
    ``spills``, rewound, hold in range order, and the (spill file, first
    row, rows) of each; the ``units:`` lines of each are added to
    ``file_units``.  Only the time columns are read.  OSError if a spill
    file reads short."""
    heads = [spill.read(_SPILL_HEAD) for spill in spills]
    if any(len(head) != _SPILL_HEAD for head in heads):
        raise OSError("short row count in a record parse's temp file")
    counts = [int.from_bytes(head[:8], "little") for head in heads]
    t = np.empty(sum(counts))
    finite, ranges, first = len(t), [], 0
    for spill, head, count in zip(spills, heads, counts):
        spill.seek(_SPILL_HEAD + count * (ncol - 1) * 8)
        part = t[first : first + count]
        if spill.readinto(part) != part.nbytes:
            raise OSError("short read from a record parse's temp file")
        # the ranges start after the header; a units line between the
        # header and the first data row, seen twice, gives the same units
        for line in filter(None, spill.read().decode("utf-8").split("\n")):
            _add_units(file_units, line)
        leading = int.from_bytes(head[8:], "little")
        if finite == len(t) and leading < count:
            finite = first + leading
        ranges.append((spill, first, count))
        first += count
    return *_time_axis(path, t, finite), tuple(ranges)


@contextlib.contextmanager
def open_timeseries_csv(path, units: dict[str, str] | None = None):
    """Parse the CSV file at ``path`` (UTF-8) for a stream of its rows: yields
    a :class:`RecordStream`, whose blocks are read while the ``with`` block
    is open.  Units, checks and errors are those of
    :func:`parse_timeseries_csv`, all raised before this yields.

    The file is never held whole: the header is found by reading from the
    start, and the data bytes are cut at newlines into up to
    ``min(CPUs, 4)`` byte ranges.  Each range is read, in bounded pieces,
    by its own process (forked workers and the parent), whose data lines go
    to ``np.loadtxt`` one at a time, in blocks of rows that are spilled to
    a temp file (:func:`_spill_range`) with the count of leading rows whose
    cells are all finite, and which finds the ``units:`` lines of its own
    pieces.  A range whose worker failed is parsed again here
    (:func:`_forked`).  This process then reads the time columns alone and
    checks them; the channels' rows stay in the spill files.  A range that
    does not parse sends the file to a re-scan in this process that gives
    each data line to ``np.loadtxt`` alone, the same grammar, to name the
    first row that does not parse (ParseError); the file is read a second
    time, on that re-scan or to find a row number, on the error paths only.
    OSError if a temp file cannot be made or reads short.
    """
    header, file_units, ranges = _data_ranges(path)
    ncol = len(header)
    with contextlib.ExitStack() as stack:
        mine = stack.enter_context(tempfile.TemporaryFile())
        try:
            spills = stack.enter_context(_forked(ranges, functools.partial(_spill_range, path, ncol), mine))
        except ValueError:
            raise _bad_row(path, ncol) from None
        mine.seek(0)
        start_time, rate, spilled = _spilled_axis(path, [mine, *spills], ncol, file_units)
        units = {**file_units, **(units or {})}
        try:
            record = RecordStream(
                start_time, rate, header[1:], [units.get(h, "1") for h in header[1:]], spilled
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        yield record


def parse_timeseries_csv(path, units: dict[str, str] | None = None) -> TimeSeriesSet:
    """Parse the CSV file at ``path`` (UTF-8) into a record of the data columns.

    ``units`` optionally maps column labels to physical units; a
    ``# units: a=kN,b=m/s^2`` comment line anywhere in the file serves the
    same purpose (later lines win, the explicit argument wins over all).
    Every cell must be finite (ParseError with its row) and the timestamps
    uniform (SpacingError); the sample rate is inferred from the median
    spacing.  The file is parsed by :func:`open_timeseries_csv`, and the
    stream of its rows is filled into the record's matrix one block at a
    time.
    """
    with open_timeseries_csv(path, units) as record:
        values = np.empty((len(record), record.samples))
        for lo, block in record.blocks():
            values[:, lo : lo + block.shape[1]] = block
        return TimeSeriesSet(record.start_time, record.sample_rate, values, record.labels, record.units)


#: cells, the time column's included, that the record writer formats at once
_WRITE_CELLS = 1 << 14
#: significant digits of each written data cell, a data logger's: a 24-bit
#: converter resolves about 7.2, and the default sensor noise of 1e-3 m/s^2
#: is about the size of a typical cell.  The writer's kernel,
#: ``_format_cells``, lays out exactly this many.
_CELL_DIGITS = 7
#: magnitudes whose cells the kernel decides itself: for them the power
#: 10**(6 - X) and the product |v| * 10**(6 - X) are normal doubles.  Zeros
#: are written natively too; nan, inf, subnormals and the extremes by
#: ``'%.7g'``
_KERNEL_RANGE = (1e-280, 1e280)
#: the decimal exponents X of kernel cells lie in [-281, 281]; the tables
#: are indexed by X + _X_OFFSET
_X_OFFSET = 281
_U8 = np.dtype("<u8")


@functools.cache
def _cell_tables() -> SimpleNamespace:
    """The tables of ``_format_cells``, built on the first record write.

    By X + _X_OFFSET: ``power``, 10**(6 - X) correctly rounded; ``keep``,
    the fewest leading digits written; ``dot``, the digit a '.' goes before;
    ``dotted``, whether one may; ``zlen``, the length of the "0.00" prefix
    of fixed notation below 1.  ``four[n]`` is the ASCII of ``f"{n:04d}"``
    as a little-endian word and ``zeros[n]`` its count of trailing '0'.  By
    byte count or position in a 7-digit mantissa: ``mask`` keeps its first
    n bytes, ``point`` is a '.' at byte q.  ``prefix`` is "-" and
    "0.000"[:zlen], by 6 * sign + zlen.
    """
    xs = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    # int -> float and int / int are correctly rounded
    power = np.array([float(10 ** (6 - x)) if x <= 6 else 1 / 10 ** (x - 6) for x in xs.tolist()])
    # the four decimal digits of each n < 10**4, most significant first
    k = np.arange(10_000)[:, None]
    digits = k // np.array([1000, 100, 10, 1]) % 10
    fixed = (xs >= -4) & (xs < _CELL_DIGITS)
    small = fixed & (xs < 0)
    keep = np.where(small, 0, np.where(fixed, xs + 1, 1))
    return SimpleNamespace(
        power=power,
        four=((digits + ord("0")) << np.array([0, 8, 16, 24])).sum(axis=1).astype(_U8),
        zeros=(k % np.array([10, 100, 1000, 10_000]) == 0).sum(axis=1),
        keep=keep, dot=np.where(small, _CELL_DIGITS, keep), dotted=~small,
        zlen=np.where(small, 1 - xs, 0),
        mask=np.array([(1 << 8 * n) - 1 for n in range(8)], _U8),
        point=np.array([ord(".") << 8 * q for q in range(8)], _U8),
        prefix=np.array(
            [int.from_bytes(("-" * neg + "0.000"[:z]).encode(), "little") for neg in (0, 1) for z in range(6)],
            _U8,
        ),
    )


def _format_cells(v: np.ndarray, sep: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.7g' % v`` and the column's separator byte ``sep[c]`` into
    the 16 bytes of ``out[r, c]``, two ``'<u8'`` words, zero-padded.

    ``v`` is a C-ordered ``(rows, C)`` block.  Each cell's decimal exponent
    X comes from ``log10``, corrected wherever the scaled mantissa
    p = |v| * 10**(6 - X) falls outside [1e6, 1e7).  p is one product with
    a correctly rounded power, within 3e-9 of exact, and the 7-digit
    mantissa is p rounded to the nearest integer.  Its digits come from one
    3-digit and one 4-digit lookup, and the text is laid out in the words:
    sign, "0.00" prefix, digits with the dot, trailing zeros trimmed,
    ``e±XX[X]`` and the separator.  Cells the kernel cannot decide exactly
    (outside ``_KERNEL_RANGE`` and not zero, or within 1e-7 of a rounding
    tie) are written by ``'%.7g'``.
    """
    tab = _cell_tables()
    a = np.abs(v)
    zero = a == 0
    native = (a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1])
    a[~native] = 1.0
    xi = (np.floor(np.log10(a)) + _X_OFFSET).astype(np.intp)
    p = a * tab.power[xi]
    off = np.flatnonzero((p < 1e6) | (p >= 1e7))
    if off.size:
        xi.flat[off] += np.where(p.flat[off] < 1e6, -1, 1)
        p.flat[off] = a.flat[off] * tab.power[xi.flat[off]]
    m = np.rint(p)
    # the exact product rounds to another integer than p only where p is
    # within 3e-9 of a tie
    fallback = np.flatnonzero(~(native | zero) | (p < 1e6) | (p > 1e7) | (np.abs(p - m) > 0.5 - 1e-7))
    # a mantissa rounded up to 10**7 is 10**6 of the next decade
    carry = m == 1e7
    xi += carry
    m = (m - 9e6 * carry).astype(np.int64)

    # the 7 digits as ASCII, the first in the lowest byte
    d0 = m // 10**4
    d1 = m - d0 * 10**4
    s = (tab.four[d0] >> 8) | (tab.four[d1] << 24)
    s -= zero   # zero went through as 1.0: its "1" becomes "0"
    k = _CELL_DIGITS - tab.zeros[d1] - (d1 == 0) * tab.zeros[d0]

    # keep max(k, keep) digits, then insert the dot before digit q
    keep = np.maximum(k, tab.keep[xi])
    dot = (k > tab.keep[xi]) & tab.dotted[xi]
    q = tab.dot[xi]
    s &= tab.mask[keep]
    below = tab.mask[q]
    s = (s & below) | ((s & ~below) << 8) | dot * tab.point[q]

    # append "e±XX[X]" in exponent notation, then the separator.  Shifts
    # of a '<u8' by 64 or more bits give 0 in numpy.
    suffix = np.broadcast_to(sep, v.shape).copy()
    expo = np.flatnonzero((xi < _X_OFFSET - 4) | (xi >= _X_OFFSET + _CELL_DIGITS))
    if expo.size:
        ex = xi.flat[expo] - _X_OFFSET
        three = np.abs(ex) >= 100
        e_digits = tab.four[np.abs(ex)] >> (16 - 8 * three).astype(_U8)
        sign = np.where(ex < 0, ord("-"), ord("+")).astype(_U8)
        suffix.flat[expo] = (
            ord("e") | (sign << 8) | (e_digits << 16) | (suffix.flat[expo] << (32 + 8 * three).astype(_U8))
        )
    b = (8 * (keep + dot)).astype(_U8)
    w0 = s | (suffix << b)
    w1 = suffix >> (64 - b)

    # shift right past the sign and "0.00" prefix, and put them in front
    neg = np.signbit(v)
    z = tab.zlen[xi]
    t = (8 * (z + neg)).astype(_U8)
    out[..., 0] = (w0 << t) | tab.prefix[z + 6 * neg]
    out[..., 1] = (w1 << t) | (w0 >> (64 - t))

    if fallback.size:
        rows, cols = np.divmod(fallback, v.shape[1])
        text = b"".join(
            (f"%.{_CELL_DIGITS}g" % v.flat[i]).encode("ascii").ljust(15, b"\0") + bytes([sep[c]])
            for i, c in zip(fallback.tolist(), cols.tolist())
        )
        out[rows, cols] = np.frombuffer(text, _U8).reshape(-1, 2)


#: bytes per piece when a worker's spill file is appended to the record
_COPY_BYTES = 1 << 20


def write_timeseries_csv(tss: TimeSeriesSet, fh) -> None:
    """Write the record into the binary file ``fh`` as UTF-8 CSV,
    the inverse of :func:`parse_timeseries_csv`: the time column as
    ``repr``, so the start time and the inferred rate round-trip exactly,
    and every data cell as ``'%.7g' % v`` (``_CELL_DIGITS``), a data
    logger's resolution.  Parsing the text and writing it again gives the
    same bytes.

    Blocks of about ``_WRITE_CELLS`` cells are laid out by
    ``_format_cells``, each cell in 16 zero-padded bytes after a 32-byte
    time cell; one ``bytes.translate`` drops the padding and the block goes
    straight to its file, so no process holds the text of a record or of a
    range.  A large record is written over up to ``min(CPUs, 4)``
    processes (:func:`_forked`): this one writes the header and the first
    range of rows into ``fh``, forked workers write the other ranges into
    their spill files, a range whose worker failed is written again here,
    and the spill files are appended in range order, ``_COPY_BYTES`` at a
    time; the bytes are the same as from one process.  OSError if a spill
    file cannot be made.
    """
    t, values = tss.times(), tss.values
    channels = len(tss)
    sep = np.full(channels, ord(","), _U8)
    sep[-1] = ord("\n")
    block = max(1, _WRITE_CELLS // (channels + 1))

    def rows(lo: int, hi: int, out) -> None:
        for i in range(lo, hi, block):
            n = min(i + block, hi) - i
            words = np.zeros((n, 4 + 2 * channels), _U8)
            # a list's repr is its floats' reprs joined by ", ", made in C;
            # the longest repr of a double has 24 characters
            times = np.array(repr(t[i : i + n].tolist())[1:-1].split(", "), "S24")
            words[:, :3] = times.view(_U8).reshape(n, 3)
            words[:, 3] = ord(",")
            cells = np.ascontiguousarray(values[:, i : i + n].T)
            _format_cells(cells, sep, words[:, 4:].reshape(n, channels, 2))
            out.write(words.tobytes().translate(None, b"\0"))

    units = ",".join(f"{label}={unit}" for label, unit in zip(tss.labels, tss.units))
    head = (f"# units: {units}\n" + ",".join(["t", *tss.labels]) + "\n").encode("utf-8")
    n = len(t)
    step = -(-n // _worker_count(n + values.size))
    ranges = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    fh.write(head)
    with _forked(ranges, rows, fh) as spills:
        for spill in spills:
            shutil.copyfileobj(spill, fh, _COPY_BYTES)


def serialize_timeseries_csv(tss: TimeSeriesSet) -> bytes:
    """The record as :func:`write_timeseries_csv` writes it, as bytes."""
    buf = io.BytesIO()
    write_timeseries_csv(tss, buf)
    return buf.getvalue()


def synchronize(response: TimeSeriesSet, force: TimeSeriesSet) -> None:
    """Check that the response and force records overlap by more than 1 s.

    Both records keep their own rates; the analysis windows each on its
    own time axis.
    """
    t0 = max(response.start_time, force.start_time)
    t1 = min(response.end_time, force.end_time)
    if t1 - t0 <= 1.0:
        raise AlignmentError(f"streams overlap for {max(t1 - t0, 0.0):.3f} s; need > 1 s")


def window_span(record: TimeSeries | TimeSeriesSet | RecordStream, t0: float, t1: float) -> slice:
    """Sample indices of the timestamps in [t0, t1] of ``record``'s time axis.

    A bound within 1e-12 s of a sample keeps it.  The index ends are
    computed from the bounds, then each is stepped to that exact rule, so
    no time axis is built.
    """
    if not t0 < t1:
        raise WindowError(f"empty window [{t0}, {t1}]")
    start_time, sample_rate, n = record.start_time, record.sample_rate, record.samples
    lo, hi = t0 - 1e-12, t1 + 1e-12

    def time(i: int) -> float:
        return start_time + i / sample_rate

    i0 = math.ceil(min(max((lo - start_time) * sample_rate, 0.0), n))
    while i0 > 0 and time(i0 - 1) >= lo:
        i0 -= 1
    while i0 < n and time(i0) < lo:
        i0 += 1
    i1 = math.floor(min(max((hi - start_time) * sample_rate + 1.0, 0.0), n))
    while i1 < n and time(i1) <= hi:
        i1 += 1
    while i1 > 0 and time(i1 - 1) > hi:
        i1 -= 1
    if i0 >= i1:
        raise WindowError(
            f"window [{t0}, {t1}] selects no samples from "
            f"[{start_time}, {time(n - 1)}]"
        )
    return slice(i0, i1)


def extract_window(record: TimeSeries | TimeSeriesSet, t0: float, t1: float):
    """Samples with timestamps in [t0, t1] of a TimeSeries, or of every
    channel of a TimeSeriesSet (:func:`window_span`); start_time updated."""
    span = window_span(record, t0, t1)
    return replace(
        record,
        start_time=record.start_time + span.start / record.sample_rate,
        values=record.values[..., span],
    )


def load_layout(source) -> SensorLayout:
    """Read a sensor layout document: {stations: [{id, pos, axes?}], groups: {...}};
    every number checked by :func:`~vibroident.errors.check_real`."""
    try:
        doc = json.loads(source) if isinstance(source, (str, bytes)) else json.load(source)
        check_keys(doc, ("stations", "groups"), "layout")
        for i, st in enumerate(doc["stations"]):
            check_keys(st, ("id", "pos", "axes"), f"layout station {i}")
            check_real(st, ("pos", "axes"), f"layout station {i}")
        stations = tuple(
            Station(
                id=st["id"],
                position=np.asarray(st["pos"], dtype=float),
                axes=np.asarray(st.get("axes", np.eye(3).tolist()), dtype=float),
            )
            for st in doc["stations"]
        )
        # .items() raises AttributeError when "groups" is not an object
        groups = {name: tuple(members) for name, members in doc.get("groups", {}).items()}
        return SensorLayout(stations, groups)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad layout document: {exc}") from exc


def dump_layout(layout: SensorLayout) -> str:
    doc = {
        "stations": [
            {"id": s.id, "pos": s.position.tolist(), "axes": s.axes.tolist()}
            for s in layout.stations
        ],
        "groups": {k: list(v) for k, v in layout.groups.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True)
