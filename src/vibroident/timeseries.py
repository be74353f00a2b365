"""Multi-channel, multi-rate time series: data model, CSV ingestion,
the overlap check between records, index windows, and sensor layouts.

A record (:class:`TimeSeriesSet`) is one ``(channels, samples)`` matrix
on a uniform time axis, with a label and a unit per row; it is
simulated, written, parsed, filtered and windowed whole.

CSV layout (UTF-8): first column ``t`` in seconds, remaining columns are
channel labels; ``#`` lines are comments.  Timestamps must be uniform; the
sample rate is inferred from the median delta.  Records of different rates
are never resampled: each is windowed on its own time axis.  A record file
is written one block of rows at a time and parsed by byte ranges read from
the file in bounded pieces, so its text is never held whole.
"""

from __future__ import annotations

import array
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
    def duration(self) -> float:
        """(samples - 1) / sample_rate, exactly."""
        return (self.values.shape[-1] - 1) / self.sample_rate

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.values.shape[-1]) / self.sample_rate

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
        labels, units = tuple(self.labels), tuple(self.units)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("values must be a non-empty (channels, samples) matrix")
        if not len(labels) == len(units) == len(values):
            raise ValueError(f"{len(values)} channels need as many labels and units")
        duplicates = sorted(lab for lab, k in Counter(labels).items() if k > 1)
        if duplicates:
            raise ValueError(f"duplicate channel label(s): {', '.join(duplicates)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "units", units)

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
#: CPU per worker (2-vCPU Xeon, Linux, 185 MB parent); at 0.15 us per
#: written cell and 0.13 us per parsed one, three workers' forks cost 11 %
#: of the writing and 13 % of the parsing of 300,000 cells, far less than
#: the half that a second CPU saves.  Below it the split still saves wall
#: time, for more CPU: a 181,820-cell force record parsed in 20 ms wall and
#: 33 ms CPU over two processes, 26 ms and 26 ms in one.
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
def _forked(ranges, send):
    """Run ``send(lo, hi, out)`` for each ``(lo, hi)`` pair of ``ranges``
    in its own forked child, which writes raw bytes to ``out``, an unnamed
    temp file (its spill file, opened before the fork), and ends with
    ``os._exit``: 0 once ``send`` returned, 1 if it raised.

    Yields ``join``: the caller works on its own share first, then calls
    ``join()``, which reaps every child and returns their spill files,
    rewound, in ``ranges`` order.  Nothing is pickled, and a child never
    waits for a reader.  ``join`` raises ChildProcessError if a child did
    not exit 0, so output of a worker that did not finish is never read; a
    temp file or fork that fails raises OSError.  Leaving the block kills
    and reaps every child not yet joined, then closes the spill files.
    """
    spills, pids = [], []

    def join():
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
        pids.clear()
        if failed:
            raise ChildProcessError(f"{failed} forked worker(s) did not exit 0")
        for spill in spills:
            spill.seek(0)
        return spills

    try:
        for lo, hi in ranges:
            spills.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    send(lo, hi, spills[-1])
                    spills[-1].flush()
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        yield join
    finally:
        for pid in pids:
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


def _parse_cells(rows, ncol: int) -> np.ndarray:
    """Cell-by-cell conversion of ``(line number, end, line)`` rows, raising
    ParseError at the first short row or unparsable cell."""
    data = array.array("d")
    for lineno, _, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != ncol:
            raise ParseError(f"row {lineno}: expected {ncol} cells, got {len(cells)}", row=lineno)
        for cell in cells:
            try:
                data.append(float(cell))
            except ValueError:
                raise ParseError(f"row {lineno}: cannot parse {cell!r}", row=lineno) from None
    return np.array(data, dtype=float).reshape(-1, ncol)


#: most data lines that go to one ``np.loadtxt`` call, and rows that are
#: transposed into the record's matrix at once
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


def _load_columns(path, ranges: list[tuple[int, int]], ncol: int) -> tuple[np.ndarray, list[str]]:
    """The data rows of the file as one C-ordered ``(ncol, rows)`` matrix:
    row 0 the times, row c the channel of column c; and the lines that
    hold ``units:``, in file order.

    Each ``(start, stop)`` byte range is parsed by its own process, the
    first by this one and every other by a forked worker.  Each writes to
    an unnamed temp file of its own (the workers' spill files) its row
    count (written last, into 8 bytes reserved at the start), then its
    rows, row-major, one ``_row_blocks`` block at a time, then its
    ``units:`` lines, so no process holds its range's rows whole.
    Once every worker has exited 0, the matrix is allocated and filled
    from the files in range order, ``_FILL_ROWS`` rows at a time through
    one buffer, each transposed into place.  ValueError as from
    ``_row_blocks``; OSError if a worker or a temp file fails.
    """

    def send(start, stop, out):
        found: list[str] = []
        out.write(bytes(8))
        count = 0
        for rows in _row_blocks(path, start, stop, ncol, found):
            out.write(rows.data)
            count += len(rows)
        out.write("\n".join(found).encode("utf-8"))
        out.seek(0)
        out.write(count.to_bytes(8, "little"))

    with _forked(ranges[1:], send) as join, tempfile.TemporaryFile() as mine:
        send(*ranges[0], mine)
        mine.seek(0)
        spills = [mine, *join()]
        heads = [spill.read(8) for spill in spills]
        if any(len(head) != 8 for head in heads):
            raise ChildProcessError("short row count in a record parse's temp file")
        counts = [int.from_bytes(head, "little") for head in heads]
        cols = np.empty((ncol, sum(counts)))
        buf = np.empty((min(_FILL_ROWS, max(counts)), ncol))
        found = []
        row = 0
        for spill, count in zip(spills, counts):
            for lo in range(row, row + count, _FILL_ROWS):
                part = buf[: row + count - lo]
                if spill.readinto(part) != part.nbytes:
                    raise ChildProcessError("short read from a record parse's temp file")
                cols[:, lo : lo + len(part)] = part.T
            row += count
            found.extend(filter(None, spill.read().decode("utf-8").split("\n")))
    return cols, found


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, bit for bit (the mean of the two
    middle values of an even count), from ``np.partition``: ``np.median``'s
    NaN check imports ``numpy.ma`` on its first call, 11 ms."""
    h = len(x) // 2
    if len(x) % 2:
        return float(np.partition(x, h)[h])
    lo, hi = np.partition(x, (h - 1, h))[h - 1 : h + 1]
    return float((lo + hi) / 2)


def parse_timeseries_csv(path, units: dict[str, str] | None = None) -> TimeSeriesSet:
    """Parse the CSV file at ``path`` (UTF-8) into a record of the data columns.

    ``units`` optionally maps column labels to physical units; a
    ``# units: a=kN,b=m/s^2`` comment line anywhere in the file serves the
    same purpose (later lines win, the explicit argument wins over all).
    The file is never held whole: the header is found by reading from the
    start, and the data bytes are cut at newlines into up to
    ``min(CPUs, 4)`` byte ranges.  Each range is read, in bounded pieces, by
    its own process (forked workers and the parent), whose data lines go to
    ``np.loadtxt`` one at a time, in blocks of rows that are spilled to a
    temp file before the record's matrix is allocated, and which finds the
    ``units:`` lines of its own pieces.  Any failure re-parses the whole
    file in this process; the file is read a second time, to find row
    numbers or on that re-parse, on the error paths only.
    """
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
    cols = None
    if parts > 1:
        # only the fast path is split: any failure re-runs the whole file here
        with contextlib.suppress(ValueError, OSError):
            cols, found = _load_columns(path, list(zip(cuts, cuts[1:])), ncol)
    if cols is None:
        try:
            cols, found = _load_columns(path, [(start, size)], ncol)
        except ValueError:
            # re-scan: report the exact row, or accept what float() accepts
            file_units, found = {}, []
            with contextlib.closing(_content_lines(path, file_units)) as content:
                rows = _parse_cells(itertools.islice(content, 1, None), ncol)
            cols = np.ascontiguousarray(rows.T)
    # the ranges start after the header; a units line between the header
    # and the first data row, seen twice, gives the same units
    for line in found:
        _add_units(file_units, line)
    if not np.isfinite(cols).all():
        lineno = _data_row_lineno(path, int(np.argmin(np.isfinite(cols).all(axis=0))))
        raise ParseError(f"row {lineno}: non-finite cell", row=lineno)

    t = cols[0]
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

    units = {**file_units, **(units or {})}
    try:
        return TimeSeriesSet(
            float(t[0]), rate, cols[1:], header[1:], [units.get(h, "1") for h in header[1:]]
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


#: cells, the time column's included, that the record writer formats at once
_WRITE_CELLS = 1 << 14
#: significant digits of each written data cell.  14 digits are far finer
#: than the 1e-3 m/s^2 sensor noise (real loggers write 7), and they keep
#: CPython's float parser on its exact fast path (Clinger: at most 15
#: digits), which ``repr``'s 17 leave at 1.8x the cost per parsed cell.
#: The writer's kernel, ``_format_cells``, lays out exactly this many.
_CELL_DIGITS = 14
#: magnitudes whose cells the kernel decides itself: for them every term of
#: the double-double product |v| * 10**(13 - X) is a normal double.  Zeros
#: are written natively too; nan, inf, subnormals and the extremes by
#: ``'%.14g'``
_KERNEL_RANGE = (1e-280, 1e280)
#: the decimal exponents X of kernel cells lie in [-281, 281]; the tables
#: are indexed by X + _X_OFFSET
_X_OFFSET = 281
_U8 = np.dtype("<u8")


def _veltkamp(x):
    """Split into a 26-bit head and the exact remainder."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _cell_tables() -> SimpleNamespace:
    """The tables of ``_format_cells``, built on the first record write.

    By X + _X_OFFSET, for p = 13 - X: ``hi + lo`` is 10**p to about
    2**-106, ``hi`` correctly rounded and ``lo`` the correctly rounded rest
    (exact integer arithmetic), and ``hi`` is split into ``head`` and
    ``tail`` by ``_veltkamp``.  ``four[n]`` is the ASCII of ``f"{n:04d}"`` as a
    little-endian word and ``zeros[n]`` its count of trailing '0'.  Also by
    X + _X_OFFSET: ``keep``, the fewest leading digits written; ``dot``, the
    digit a '.' goes before; ``dotted``, whether one may; ``zlen``, the
    length of the "0.00" prefix of fixed notation below 1.  By byte count
    or position in a 14-digit mantissa: ``mask_lo``/``mask_hi`` keep its
    first n bytes, ``dot_lo``/``dot_hi`` are a '.' at byte q.  ``prefix``
    is "-" and "0.000"[:zlen], by 6 * sign + zlen.
    """
    hi, lo = [], []
    for p in range(13 + _X_OFFSET, 12 - _X_OFFSET, -1):
        if p >= 0:
            hi.append(float(10**p))
            lo.append(float(10**p - int(hi[-1])))
        else:
            q = 10**-p
            hi.append(1 / q)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    head, tail = _veltkamp(hi)
    # the four decimal digits of each n < 10**4, most significant first
    k = np.arange(10_000)[:, None]
    digits = k // np.array([1000, 100, 10, 1]) % 10
    xs = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    fixed = (xs >= -4) & (xs < _CELL_DIGITS)
    small = fixed & (xs < 0)
    keep = np.where(small, 0, np.where(fixed, xs + 1, 1))
    return SimpleNamespace(
        hi=hi, head=head, tail=tail, lo=np.array(lo),
        four=((digits + ord("0")) << np.array([0, 8, 16, 24])).sum(axis=1).astype(_U8),
        zeros=(k % np.array([10, 100, 1000, 10_000]) == 0).sum(axis=1),
        keep=keep, dot=np.where(small, _CELL_DIGITS, keep), dotted=~small,
        zlen=np.where(small, 1 - xs, 0),
        mask_lo=np.array([(1 << 8 * min(n, 8)) - 1 for n in range(16)], _U8),
        mask_hi=np.array([(1 << 8 * max(n - 8, 0)) - 1 for n in range(16)], _U8),
        dot_lo=np.array([ord(".") << 8 * q if q < 8 else 0 for q in range(16)], _U8),
        dot_hi=np.array([ord(".") << 8 * (q - 8) if q >= 8 else 0 for q in range(16)], _U8),
        prefix=np.array(
            [int.from_bytes(("-" * neg + "0.000"[:z]).encode(), "little") for neg in (0, 1) for z in range(6)],
            _U8,
        ),
    )


def _correction(a: np.ndarray, xi: np.ndarray, p: np.ndarray, tab: SimpleNamespace) -> np.ndarray:
    """What to add to ``p = a * tab.hi[xi]`` for the exact product
    a * 10**(13 - X), X = xi - _X_OFFSET, to about 2**-104 of it: the
    rounding error of ``p`` (Dekker's product) plus a * ``lo``."""
    head, tail = tab.head[xi], tab.tail[xi]
    ah, al = _veltkamp(a)
    return (((ah * head - p) + ah * tail + al * head) + al * tail) + a * tab.lo[xi]


def _format_cells(v: np.ndarray, sep: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.14g' % v`` and the column's separator byte ``sep[c]`` into
    the 24 bytes of ``out[r, c]``, three ``'<u8'`` words, zero-padded.

    ``v`` is a C-ordered ``(rows, C)`` block.  Each cell's decimal exponent
    X comes from ``log10``, corrected wherever the scaled mantissa falls
    outside [1e13, 1e14); the 14-digit mantissa is the double-double
    product rounded to the nearest integer, its digits come from a 4-digit
    table, and the text is laid out in the words: sign, "0.00" prefix,
    digits with the dot, trailing zeros trimmed, ``e±XX[X]`` and the
    separator.  Cells the kernel cannot decide exactly (outside
    ``_KERNEL_RANGE`` and not zero, or within 1e-7 of a rounding tie) are
    written by ``'%.14g'``.
    """
    tab = _cell_tables()
    a = np.abs(v)
    zero = a == 0
    native = (a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1])
    a[~native] = 1.0
    xi = (np.floor(np.log10(a)) + _X_OFFSET).astype(np.intp)
    p = a * tab.hi[xi]
    off = np.flatnonzero((p < 1e13) | (p >= 1e14))
    if off.size:
        xi.flat[off] += np.where(p.flat[off] < 1e13, -1, 1)
        p.flat[off] = a.flat[off] * tab.hi[xi.flat[off]]
    bad = ~(native | zero) | (p < 1e13) | (p > 1e14)
    m = np.rint(p)
    # p is within 0.02 of the exact product, which therefore rounds to
    # another integer than p only where p is within 0.05 of a tie
    near = np.flatnonzero(np.abs(p - m) > 0.45)
    if near.size:
        pn, mn = p.flat[near], m.flat[near]
        frac = (pn - mn) + _correction(a.flat[near], xi.flat[near], pn, tab)
        m.flat[near] = mn + (frac > 0.5) - (frac < -0.5)
        bad.flat[near[np.abs(np.abs(frac) - 0.5) < 1e-7]] = True
    fallback = np.flatnonzero(bad)
    # a mantissa rounded up to 10**14 is 10**13 of the next decade
    carry = m == 1e14
    xi += carry
    m = (m - 9e13 * carry).astype(np.int64)

    # the 14 digits as ASCII, first digit in the lowest byte of `lo`
    d0 = m // 10**12
    m -= d0 * 10**12
    d1 = m // 10**8
    m -= d1 * 10**8
    d2 = m // 10**4
    d3 = m - d2 * 10**4
    four = tab.four
    f2 = four[d2]
    lo = (four[d0] >> 16) | (four[d1] << 16) | (f2 << 48)
    lo -= zero   # zero went through as 1.0: its "1" becomes "0"
    hi = (f2 >> 16) | (four[d3] << 16)
    k = _CELL_DIGITS - tab.zeros[d3]
    more = np.flatnonzero(d3 == 0)
    if more.size:
        d0, d1, d2 = d0.flat[more], d1.flat[more], d2.flat[more]
        k.flat[more] -= tab.zeros[d2] + (d2 == 0) * (tab.zeros[d1] + (d1 == 0) * (d0 % 10 == 0))

    # keep max(k, keep) digits, then insert the dot before digit q
    keep = np.maximum(k, tab.keep[xi])
    dot = (k > tab.keep[xi]) & tab.dotted[xi]
    q = tab.dot[xi]
    lo &= tab.mask_lo[keep]
    hi &= tab.mask_hi[keep]
    q_lo, q_hi = tab.mask_lo[q], tab.mask_hi[q]
    up = lo & ~q_lo
    s_lo = (lo & q_lo) | (up << 8) | dot * tab.dot_lo[q]
    s_hi = (hi & q_hi) | ((hi & ~q_hi) << 8) | (up >> 56) | dot * tab.dot_hi[q]

    # append "e±XX[X]" in exponent notation, then the separator.  Shifts
    # of a '<u8' by 64 or more bits, and the wrapped "negative" counts
    # below, give 0 in numpy.
    suffix = np.broadcast_to(sep, v.shape).copy()
    expo = np.flatnonzero((xi < _X_OFFSET - 4) | (xi >= _X_OFFSET + _CELL_DIGITS))
    if expo.size:
        ex = xi.flat[expo] - _X_OFFSET
        three = np.abs(ex) >= 100
        e_digits = four[np.abs(ex)] >> (16 - 8 * three).astype(_U8)
        sign = np.where(ex < 0, ord("-"), ord("+")).astype(_U8)
        suffix.flat[expo] = (
            ord("e") | (sign << 8) | (e_digits << 16) | (suffix.flat[expo] << (32 + 8 * three).astype(_U8))
        )
    b = (8 * (keep + dot)).astype(_U8)
    w0 = s_lo | (suffix << b)
    w1 = s_hi | (suffix << (b - 64)) | (suffix >> (64 - b))
    w2 = suffix >> (128 - b)

    # shift right past the sign and "0.00" prefix, and put them in front
    neg = np.signbit(v)
    z = tab.zlen[xi]
    t = (8 * (z + neg)).astype(_U8)
    out[..., 0] = (w0 << t) | tab.prefix[z + 6 * neg]
    out[..., 1] = (w1 << t) | (w0 >> (64 - t))
    out[..., 2] = (w2 << t) | (w1 >> (64 - t))

    if fallback.size:
        rows, cols = np.divmod(fallback, v.shape[1])
        text = b"".join(
            (f"%.{_CELL_DIGITS}g" % v.flat[i]).encode("ascii").ljust(23, b"\0") + bytes([sep[c]])
            for i, c in zip(fallback.tolist(), cols.tolist())
        )
        out[rows, cols] = np.frombuffer(text, _U8).reshape(-1, 3)


#: bytes per piece when a worker's spill file is appended to the record
_COPY_BYTES = 1 << 20


def write_timeseries_csv(tss: TimeSeriesSet, fh) -> None:
    """Write the record into the seekable binary file ``fh`` as UTF-8 CSV,
    the inverse of :func:`parse_timeseries_csv`: the time column as
    ``repr``, so the start time and the inferred rate round-trip exactly,
    and every data cell as ``'%.14g' % v`` (``_CELL_DIGITS``).  Parsing the
    text and writing it again gives the same bytes.

    Blocks of about ``_WRITE_CELLS`` cells are laid out by
    ``_format_cells``, each cell in 24 zero-padded bytes after a 32-byte
    time cell; one ``bytes.translate`` drops the padding and the block goes
    straight to its file, so no process holds the text of a record or of a
    range.  A large record is written over up to ``min(CPUs, 4)``
    processes: this one writes the header and the first range of rows into
    ``fh``, forked workers write the other ranges into their spill files,
    and once every worker has exited 0 those are appended in range order,
    ``_COPY_BYTES`` at a time; the bytes are the same as from one process.
    If a worker fails, ``fh`` is truncated back to where the record started
    and the whole record is written here, so no partial text is left.
    """
    t, values = tss.times(), tss.values
    channels = len(tss)
    sep = np.full(channels, ord(","), _U8)
    sep[-1] = ord("\n")
    block = max(1, _WRITE_CELLS // (channels + 1))

    def rows(lo: int, hi: int, out) -> None:
        for i in range(lo, hi, block):
            n = min(i + block, hi) - i
            words = np.zeros((n, 4 + 3 * channels), _U8)
            # a list's repr is its floats' reprs joined by ", ", made in C;
            # the longest repr of a double has 24 characters
            times = np.array(repr(t[i : i + n].tolist())[1:-1].split(", "), "S24")
            words[:, :3] = times.view(_U8).reshape(n, 3)
            words[:, 3] = ord(",")
            cells = np.ascontiguousarray(values[:, i : i + n].T)
            _format_cells(cells, sep, words[:, 4:].reshape(n, channels, 3))
            out.write(words.tobytes().translate(None, b"\0"))

    units = ",".join(f"{label}={unit}" for label, unit in zip(tss.labels, tss.units))
    head = (f"# units: {units}\n" + ",".join(["t", *tss.labels]) + "\n").encode("utf-8")
    n = len(t)
    step = -(-n // _worker_count(n + values.size))
    ranges = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    start = fh.tell()
    try:
        with _forked(ranges[1:], rows) as join:
            fh.write(head)
            rows(*ranges[0], fh)
            for spill in join():
                shutil.copyfileobj(spill, fh, _COPY_BYTES)
    except OSError:
        # a worker failed: the whole record in this process, never a partial text
        fh.seek(start)
        fh.truncate()
        fh.write(head)
        rows(0, n, fh)


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


def window_span(record: TimeSeries | TimeSeriesSet, t0: float, t1: float) -> slice:
    """Sample indices of the timestamps in [t0, t1] of ``record``'s time axis.

    A bound within 1e-12 s of a sample keeps it.  The index ends are
    computed from the bounds, then each is stepped to that exact rule, so
    no time axis is built.
    """
    if not t0 < t1:
        raise WindowError(f"empty window [{t0}, {t1}]")
    start_time, sample_rate = record.start_time, record.sample_rate
    n = record.values.shape[-1]
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
