"""Multi-channel, multi-rate time series: data model, CSV ingestion,
the overlap check between records, index windows, and sensor layouts.

A record (:class:`TimeSeriesSet`) is one ``(channels, samples)`` matrix
on a uniform time axis, with a label and a unit per row; it is
simulated, written, parsed, filtered and windowed whole.

CSV layout (UTF-8): first column ``t`` in seconds, remaining columns are
channel labels; ``#`` lines are comments.  Timestamps must be uniform; the
sample rate is inferred from the median delta.  Records of different rates
are never resampled: each is windowed on its own time axis.  A record file
is parsed by byte ranges read from the file in bounded pieces, so its text
is never held whole.
"""

from __future__ import annotations

import array
import contextlib
import itertools
import json
import math
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    ParseError,
    SpacingError,
    WindowError,
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
        duplicates = sorted({lab for lab in labels if labels.count(lab) > 1})
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


#: records with fewer cells than this are written and parsed, and windows
#: with fewer response cells fitted, in one process.  A fork, pipe and reap
#: cost about 2.2 ms per worker (2-vCPU Xeon, Linux, 185 MB parent); at
#: 0.31 us per written cell and 0.15 us per parsed one, three workers'
#: forks cost 7 % of the writing and 14 % of the parsing that they split,
#: far less than the half that a second CPU saves.
_FORK_MIN_CELLS = 300_000
#: most processes, the parent included, that write or parse one record or
#: fit the windows of one analysis
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
    in its own forked child, which writes raw bytes to the binary stream
    ``out`` and ends with ``os._exit``: 0 once ``send`` returned, 1 if it
    raised.

    Yields the read ends of the children's pipes, in ``ranges`` order; the
    caller works on its own share first, then reads them.  Nothing is
    pickled.  Leaving the block closes the pipes and reaps every child,
    killing them first if the block raised.  A pipe or fork that fails
    raises OSError, and a child that does not exit 0 ChildProcessError, so
    output of a worker that did not finish is never kept.
    """
    pipes, pids = [], []
    try:
        for lo, hi in ranges:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        for pipe in pipes:
                            os.close(pipe.fileno())
                        send(lo, hi, out)
                        out.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        yield pipes
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid in pids)
    if failed:
        raise ChildProcessError(f"{failed} forked worker(s) did not exit 0")


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


def _content_lines(path):
    """(line number, end, stripped line) of every line of the file that is
    neither blank nor a ``#`` comment; ``end`` is the byte offset just past
    the line.  Each line is decoded as UTF-8; ParseError with its line
    number if it is not."""
    lineno = end = 0
    for chunk in _chunks(path, 0, os.path.getsize(path)):
        lines = chunk.split(b"\n")
        if chunk.endswith(b"\n"):
            lines.pop()
        for raw in lines:
            lineno += 1
            end += len(raw) + 1
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ParseError(f"row {lineno}: not UTF-8 text ({exc.reason})", row=lineno) from None
            if line and not line.startswith("#"):
                yield lineno, end, line


def _file_units(path) -> dict[str, str]:
    """Units of every ``# units: a=kN,b=m`` comment line of the file, later
    lines winning; found with ``bytes.find`` on each piece of the file, so
    a long record costs one C-level scan."""
    units: dict[str, str] = {}
    for chunk in _chunks(path, 0, os.path.getsize(path)):
        at = chunk.find(b"units:")
        while at >= 0:
            start = chunk.rfind(b"\n", 0, at) + 1
            end = chunk.find(b"\n", at)
            end = len(chunk) if end < 0 else end
            line = chunk[start:end].decode("utf-8").strip()
            body = line[1:].strip()
            if line.startswith("#") and body.startswith("units:"):
                for pair in body[len("units:"):].split(","):
                    if "=" in pair:
                        k, v = pair.split("=", 1)
                        units[k.strip()] = v.strip()
            at = chunk.find(b"units:", end)
    return units


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


def _load_rows(path, start: int, stop: int, ncol: int) -> np.ndarray:
    """``np.loadtxt`` of the data lines of the file's bytes ``[start, stop)``,
    each piece decoded, split and stripped in C, one line at a time to the
    parser, which skips ``#`` comments itself; ValueError unless the bytes
    are UTF-8 and every row has ``ncol`` cells."""
    with contextlib.closing(_chunks(path, start, stop)) as chunks:
        lines = itertools.chain.from_iterable(
            filter(None, map(str.strip, chunk.decode("utf-8").split("\n"))) for chunk in chunks
        )
        first = next((line for line in lines if not line.startswith("#")), None)
        if first is None:
            return np.empty((0, ncol))
        data = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2)
    if data.shape[1] != ncol:
        raise ValueError("column count mismatch")
    return data


def _load_columns(path, ranges: list[tuple[int, int]], ncol: int) -> np.ndarray:
    """The data rows of the file as one C-ordered ``(ncol, rows)`` matrix:
    row 0 the times, row c the channel of column c.

    The first ``(start, stop)`` byte range is parsed here and transposed
    into place; every other range is parsed by a forked worker, which opens
    the file, reads its own range, sends its row count and then its rows
    column by column, each read straight into its segment of the matrix.
    ValueError as from ``_load_rows``; OSError if a worker fails.
    """

    def send(start, stop, out):
        rows = _load_rows(path, start, stop, ncol)
        out.write(len(rows).to_bytes(8, "little"))
        for column in rows.T:
            out.write(np.ascontiguousarray(column).data)

    with _forked(ranges[1:], send) as pipes:
        own = _load_rows(path, *ranges[0], ncol)
        heads = [pipe.read(8) for pipe in pipes]
        if any(len(head) != 8 for head in heads):
            raise ChildProcessError("short row count from a record parse worker")
        counts = [int.from_bytes(head, "little") for head in heads]
        cols = np.empty((ncol, len(own) + sum(counts)))
        cols[:, : len(own)] = own.T
        row = len(own)
        del own
        for pipe, count in zip(pipes, counts):
            for segment in cols[:, row : row + count]:
                if pipe.readinto(segment) != segment.nbytes:
                    raise ChildProcessError("short read from a record parse worker")
            row += count
    return cols


def parse_timeseries_csv(path, units: dict[str, str] | None = None) -> TimeSeriesSet:
    """Parse the CSV file at ``path`` (UTF-8) into a record of the data columns.

    ``units`` optionally maps column labels to physical units; a
    ``# units: a=kN,b=m/s^2`` comment line anywhere in the file serves the
    same purpose (later lines win, the explicit argument wins over all).
    The file is never held whole: the header is found by reading from the
    start, and the data bytes are cut at newlines into up to
    ``min(CPUs, 4)`` byte ranges.  Each range is read, in bounded pieces, by
    its own process (forked workers and the parent), whose data lines go to
    ``np.loadtxt`` one at a time.  Any failure re-parses the whole file in
    this process; row numbers are found by a re-scan of the file on the
    error paths only.
    """
    with contextlib.closing(_content_lines(path)) as content:
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
    cells = (size - start) * ncol // (len(second[2]) + 1)
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
            cols = _load_columns(path, list(zip(cuts, cuts[1:])), ncol)
    if cols is None:
        try:
            cols = _load_columns(path, [(start, size)], ncol)
        except ValueError:
            # re-scan: report the exact row, or accept what float() accepts
            with contextlib.closing(_content_lines(path)) as content:
                rows = _parse_cells(itertools.islice(content, 1, None), ncol)
            cols = np.ascontiguousarray(rows.T)
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
    dt_med = float(np.median(dt))
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

    units = {**_file_units(path), **(units or {})}
    try:
        return TimeSeriesSet(
            float(t[0]), rate, cols[1:], header[1:], [units.get(h, "1") for h in header[1:]]
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


#: samples per block the CSV writer turns into Python floats at once
_WRITE_BLOCK = 256
#: significant digits of each written data cell.  14 is the most that
#: keeps both fast paths: CPython's float formatter (Gay's dtoa) rounds at
#: most 14 digits in floating point, and its parser (Clinger) converts at
#: most 15 exactly.  ``repr``'s 17 digits cost 2.3x the writing and 1.8x
#: the parsing; 14 digits are far finer than the 1e-3 m/s^2 sensor noise,
#: and real loggers write 7.
_CELL_DIGITS = 14


def serialize_timeseries_csv(tss: TimeSeriesSet) -> str:
    """Inverse of :func:`parse_timeseries_csv`: the time column as ``repr``,
    so the start time and the inferred rate round-trip exactly, and every
    data cell as ``'%.14g' % v`` (``_CELL_DIGITS``), one format string per
    row applied to row blocks of the transposed matrix.  Parsing the text
    and writing it again gives the same bytes.

    A large record is formatted over up to ``min(CPUs, 4)`` processes:
    forked workers format whole ranges of row blocks and send them as
    ASCII; the text is the same, byte for byte, as from one process.
    """
    t, values = tss.times(), tss.values
    row_format = "%r" + f",%.{_CELL_DIGITS}g" * len(tss)

    def rows(lo: int, hi: int) -> str:
        lines = []
        for i in range(lo, hi, _WRITE_BLOCK):
            block = np.vstack([t[i : i + _WRITE_BLOCK], values[:, i : i + _WRITE_BLOCK]])
            lines.extend(map(row_format.__mod__, map(tuple, block.T.tolist())))
        return "\n".join(lines)

    def send(lo: int, hi: int, out) -> None:
        out.write(rows(lo, hi).encode("ascii"))

    n = len(t)
    blocks = -(-n // _WRITE_BLOCK)
    step = _WRITE_BLOCK * -(-blocks // _worker_count(n + values.size))
    ranges = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    try:
        with _forked(ranges[1:], send) as pipes:
            parts = [rows(*ranges[0]), *(pipe.read().decode("ascii") for pipe in pipes)]
    except OSError:
        # a worker failed: the whole record in this process, never a partial text
        parts = [rows(0, n)]
    units = ",".join(f"{label}={unit}" for label, unit in zip(tss.labels, tss.units))
    return "\n".join([f"# units: {units}", ",".join(["t", *tss.labels]), *parts, ""])


def synchronize(response: TimeSeriesSet, force: TimeSeriesSet) -> None:
    """Check that the response and force records overlap by more than 1 s.

    Both records keep their own rates; the analysis windows each on its
    own time axis.
    """
    t0 = max(response.start_time, force.start_time)
    t1 = min(response.end_time, force.end_time)
    if t1 - t0 <= 1.0:
        raise AlignmentError(f"streams overlap for {max(t1 - t0, 0.0):.3f} s; need > 1 s")


def extract_window(record: TimeSeries | TimeSeriesSet, t0: float, t1: float):
    """Samples with timestamps in [t0, t1] of a TimeSeries, or of every
    channel of a TimeSeriesSet; start_time updated.

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
    return replace(record, start_time=time(i0), values=record.values[..., i0:i1])


def load_layout(source) -> SensorLayout:
    """Read a sensor layout document: {stations: [{id, pos, axes?}], groups: {...}}."""
    try:
        doc = json.loads(source) if isinstance(source, (str, bytes)) else json.load(source)
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
