"""Frequency response curves, rigid-body motion, damping and strain estimates.

Everything downstream of the per-channel phasors: force-amplitude
estimation, force-normalized FRC construction with group averaging,
least-squares rigid-body motion, SDOF amplification matching for the
damping ratio, linearity comparison, and the bending-strain estimate.
The force rows of a window are read through the window's one estimator
(:func:`~vibroident.dsp.hann_basis`), the same one its response rows go
through.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, replace
from typing import NoReturn

import numpy as np

# fit_sine stays importable from here: the benchmark tracer wraps modal.fit_sine
from .dsp import fit_sine
from .errors import (
    BuildError,
    ComparisonError,
    DomainError,
    FitError,
    ForceEstimationError,
    GeometryError,
    InfinityError,
    NormalizationError,
    ParseError,
    RankError,
)
from .simulator.model import DOF_NAMES, influence_matrix
from .simulator.sensors import AXIS_NAMES
from .timeseries import SensorLayout, TimeSeriesSet, _freeze

GENERALIZED_AXES = DOF_NAMES


@dataclass(frozen=True)
class ForceEstimate:
    """The measured generalized force at one forcing frequency: kN along
    dx, dy, dz and kN*m about rx, ry, rz."""

    frequency_hz: float
    #: complex (6,): the force channels' phasors times their
    #: :func:`~vibroident.simulator.model.influence_matrix` rows, summed
    generalized: np.ndarray

    @property
    def resultant(self) -> float:
        """Magnitude of the force resultant across X/Y/Z components; inf
        where its square overflows."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(np.abs(self.generalized[:3])))

    @property
    def torque(self) -> float:
        """Magnitude of the torque about Z."""
        return abs(self.generalized[5])


def estimate_force_amplitude(
    force: TimeSeriesSet,
    geometry: dict[str, tuple[np.ndarray, np.ndarray]],
    f: float,
    estimator,
) -> ForceEstimate:
    """The generalized force of the channels named by ``geometry``: each
    channel's phasor times the
    :func:`~vibroident.simulator.model.influence_matrix` row of its
    (location, direction), summed in geometry order.

    ``estimator(t)`` builds the window's one basis on the samples ``t``
    (:func:`~vibroident.dsp.hann_basis` in the analysis); its
    ``phasors(U)`` (:meth:`~vibroident.dsp.HannBasis.phasors`) are the
    rows' complex amplitudes (kN).
    ForceEstimationError names the first channel, in geometry order, that
    is missing or whose estimate fails.
    """
    labels = list(geometry)
    index = {label: c for c, label in enumerate(force.labels)}
    # the channels before the first missing one are estimated, and their
    # errors raised, first
    present = list(itertools.takewhile(index.__contains__, labels))
    phasors = np.zeros(0, dtype=complex)
    if present:
        U = force.values[[index[label] for label in present]]
        try:
            basis = estimator(force.times())
        except FitError as exc:
            raise ForceEstimationError(f"estimate failed on channel {present[0]!r}: {exc}") from exc
        phasors = basis.phasors(U)
    if len(present) < len(labels):
        raise ForceEstimationError(f"force channel {labels[len(present)]!r} missing")
    pairs = np.reshape([geometry[label] for label in labels], (-1, 2, 3))
    rows = influence_matrix(pairs[:, 0], pairs[:, 1])
    with np.errstate(all="ignore"):   # NaN where an amplitude overflows
        generalized = np.sum(phasors[:, None] * rows, axis=0)
    return ForceEstimate(frequency_hz=f, generalized=generalized)


@dataclass(frozen=True)
class FrcPoint:
    f_hz: float
    id: str                  # station id, group name, or "rbm"
    axis: str                # x | y | z (stations), dx..rz (rigid motion)
    u_scaled_mm: float
    f_measured: float        # kN (or kN*m for yaw programs)
    f_ref: float


@dataclass(frozen=True)
class FrequencyResponseCurve:
    """Force-scaled amplitudes on one frequency grid, read-only: column s of
    ``u_mm`` is the series ``keys[s]``, an (id, axis) of a station, a group
    or "rbm"."""

    frequencies: np.ndarray                 # (F,) Hz, strictly increasing
    keys: tuple[tuple[str, str], ...]       # (S,)
    u_mm: np.ndarray                        # (F, S) mm at the reference force
    f_measured: np.ndarray                  # (F,) kN (or kN*m for yaw programs)
    f_ref: float
    dof_excited: str = "X"

    def __post_init__(self):
        # read-only copies: the curve does not change with the arrays it was built from
        for name in ("frequencies", "u_mm", "f_measured"):
            object.__setattr__(self, name, _freeze(np.array(getattr(self, name), dtype=float)))
        object.__setattr__(self, "keys", tuple((sid, axis) for sid, axis in self.keys))
        F, S = len(self.frequencies), len(self.keys)
        if self.u_mm.shape != (F, S) or self.f_measured.shape != (F,) or len(set(self.keys)) < S:
            raise BuildError("FRC arrays disagree in shape, or a series repeats")
        if np.any(np.diff(self.frequencies) <= 0):
            raise BuildError("FRC frequencies must strictly increase")

    def series(self, sid: str, axis: str) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, amplitudes) of one series; KeyError if absent."""
        return self.frequencies, self.select([(sid, axis)]).u_mm[:, 0]

    def __eq__(self, other) -> bool:
        """Equal when :func:`frc_to_csv` writes the same text."""
        return isinstance(other, FrequencyResponseCurve) and frc_to_csv(self) == frc_to_csv(other)

    def select(self, keys) -> "FrequencyResponseCurve":
        """The curve restricted to the given series, in that order; KeyError if one is absent."""
        column = {key: s for s, key in enumerate(self.keys)}
        return replace(self, keys=tuple(keys), u_mm=self.u_mm[:, [column[key] for key in keys]])

    @property
    def points(self) -> tuple[FrcPoint, ...]:
        """One point per (frequency, series), in CSV order: frequency-major."""
        rows = zip(self.frequencies.tolist(), self.f_measured.tolist(), self.u_mm.tolist())
        return tuple(
            FrcPoint(f, sid, axis, u, fm, self.f_ref)
            for f, fm, row in rows
            for (sid, axis), u in zip(self.keys, row)
        )


def build_frc(
    freqs,
    channels,
    amplitudes: np.ndarray,
    forces,
    f_ref: float,
    dof_excited: str = "X",
    layout: SensorLayout | None = None,
) -> FrequencyResponseCurve:
    """Scale displacement amplitudes (meters) to the reference force.

    ``amplitudes`` is frequencies x channels, ``channels`` the (id, axis)
    of each column and ``forces`` the measured force per frequency;
    amplitudes scale by f_ref / force.  The series are the channels in
    column order, then the mean of each layout group's members per axis,
    in (group, axis) order.
    """
    forces = np.asarray(forces, dtype=float)
    if len(forces) != len(freqs):
        raise BuildError(f"{len(forces)} measured forces for {len(freqs)} frequencies")
    if np.any(forces <= 0):
        raise BuildError(f"non-positive measured force at {freqs[int(np.argmax(forces <= 0))]} Hz")
    u_mm = np.asarray(amplitudes, dtype=float) * 1e3 * (f_ref / forces)[:, None]
    by_group: dict[tuple[str, str], list[int]] = {}
    for gname, members in (layout.groups if layout is not None else {}).items():
        for c, (sid, axis) in enumerate(channels):
            if sid in members:
                by_group.setdefault((gname, axis), []).append(c)
    groups = sorted(by_group)
    # means along the rows of a C-ordered copy round as the mean of each
    # row on its own does
    means = [np.ascontiguousarray(u_mm[:, by_group[key]]).mean(axis=1) for key in groups]
    return FrequencyResponseCurve(
        freqs, tuple(channels) + tuple(groups), np.column_stack([u_mm, *means]),
        forces, f_ref, dof_excited,
    )


FRC_CSV_HEADER = ("f_hz", "station", "axis", "u_scaled_mm", "F_measured", "F_ref")


def frc_to_csv(frc: FrequencyResponseCurve) -> str:
    buf = io.StringIO()
    buf.write(f"# dof_excited: {frc.dof_excited}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRC_CSV_HEADER)
    f_ref = repr(float(frc.f_ref))
    for f, fm, row in zip(frc.frequencies.tolist(), frc.f_measured.tolist(), frc.u_mm.tolist()):
        writer.writerows(
            (repr(f), sid, axis, repr(u), repr(fm), f_ref) for (sid, axis), u in zip(frc.keys, row)
        )
    return buf.getvalue()


def frc_from_csv(text: str) -> FrequencyResponseCurve:
    """Inverse of :func:`frc_to_csv`.

    The rows must form the table it writes: blocks of strictly increasing
    frequency, each listing the first block's series in its order under
    one F_measured, one F_ref in the file, and finite numbers.  A malformed
    header or row raises :class:`ParseError` carrying the file line number.
    """

    def fail(lineno: int, problem: str) -> NoReturn:
        raise ParseError(f"row {lineno}: {problem}", row=lineno)

    dof = "X"
    header = None
    rows = []          # (line number, f, (station, axis), u, F_measured, F_ref)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#") or not line.strip():
            if "dof_excited:" in line:
                dof = line.split("dof_excited:", 1)[1].strip()
            continue
        cells = next(csv.reader([line]))
        if header is None:
            header = tuple(cells)
            if header != FRC_CSV_HEADER:
                fail(lineno, f"unexpected FRC csv header: {cells}")
            continue
        if len(cells) != len(FRC_CSV_HEADER):
            fail(lineno, f"expected {len(FRC_CSV_HEADER)} cells, got {len(cells)}")
        try:
            f, u, fm, fr = (float(cells[k]) for k in (0, 3, 4, 5))
        except ValueError as exc:
            fail(lineno, str(exc))
        if not all(map(math.isfinite, (f, u, fm, fr))):
            fail(lineno, "non-finite cell")
        rows.append((lineno, f, (cells[1], cells[2]), u, fm, fr))
    if not rows:
        raise ParseError("FRC csv has no data rows")
    # the first block fixes the series; every row must repeat its block
    # head's frequency and F_measured and the first row's F_ref
    S = next((i for i, row in enumerate(rows) if row[1] != rows[0][1]), len(rows))
    keys = [row[2] for row in rows[:S]]
    for i, (lineno, f, key, _, fm, fr) in enumerate(rows):
        head = rows[i - i % S]
        expected = (head[1], keys[i % S], head[4], rows[0][5])
        if (f, key, fm, fr) != expected:
            fail(lineno, f"expected f_hz, (station, axis), F_measured, F_ref = {expected}")
        if i % S == 0 and i > 0 and f <= rows[i - S][1]:
            fail(lineno, f"frequency {f!r} Hz follows {rows[i - S][1]!r} Hz")
        if i < S and key in keys[:i]:
            fail(lineno, f"series {key} repeats in the first block")
    if len(rows) % S:
        fail(rows[-1][0], f"the last block lacks {keys[len(rows) % S]}")
    table = np.array([(f, u, fm) for _, f, _, u, fm, _ in rows]).reshape(-1, S, 3)
    return FrequencyResponseCurve(table[:, 0, 0], keys, table[:, :, 1], table[:, 0, 2], rows[0][5], dof)


# --- rigid body motion ------------------------------------------------------


#: :func:`rigid_rows` is affine in the position: its maps at the origin and
#: their change per metre along x, y and z, from influence_matrix.  Callers
#: go station by station, and a product with these takes 1.3 us a position
#: against 20 us for an influence_matrix call (2-vCPU Xeon, numpy 2.4)
_ROWS_AT_ORIGIN = influence_matrix(np.zeros(3), np.eye(3))
_ROWS_PER_METRE = (influence_matrix(np.eye(3)[:, None, :], np.eye(3)) - _ROWS_AT_ORIGIN).reshape(3, 18)


def rigid_rows(position: np.ndarray) -> np.ndarray:
    """3x6 map from {dx,dy,dz,rx,ry,rz} to station displacement (small angles),

        [[1, 0, 0,  0,  z, -y],
         [0, 1, 0, -z,  0,  x],
         [0, 0, 1,  y, -x,  0]]:

    the :func:`~vibroident.simulator.model.influence_matrix` rows of the
    position along x, y and z.  A ``(..., 3)`` stack of positions gives the
    ``(..., 3, 6)`` stack of maps from one product."""
    p = np.asarray(position, dtype=float)
    return _ROWS_AT_ORIGIN + (p @ _ROWS_PER_METRE).reshape(p.shape[:-1] + (3, 6))


AXIS_ROW = {axis: row for row, axis in enumerate(AXIS_NAMES)}


def rigid_map(channels, layout: SensorLayout) -> np.ndarray:
    """channels x 6 map from {dx,dy,dz,rx,ry,rz} to each (station id, axis)
    channel: the :func:`~vibroident.simulator.model.influence_matrix` row
    of the station's position and its measurement direction for that axis,
    as the simulator's sensors read it."""
    stations = [layout.station(sid) for sid, _ in channels]
    positions = np.reshape([st.position for st in stations], (-1, 3))
    directions = np.reshape([st.axes[AXIS_ROW[axis]] for st, (_, axis) in zip(stations, channels)], (-1, 3))
    return influence_matrix(positions, directions)


def fit_rigid_body(A: np.ndarray, phasors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares 6-parameter rigid motion explaining each row of the
    frequencies x channels ``phasors`` through the channel map ``A``.

    Returns the complex frequencies x 6 motion and the residual rms per
    frequency, meters.
    """
    if len(A) < 6:
        raise RankError(f"only {len(A)} measured components; need at least 6")
    _, sv, vt = np.linalg.svd(A)
    if sv[-1] <= 1e-10 * sv[0]:
        direction = GENERALIZED_AXES[int(np.argmax(np.abs(vt[-1])))]
        raise RankError(
            f"station set cannot observe the {direction} direction", direction=direction
        )
    delta = np.empty((len(phasors), 6), dtype=complex)
    # identical real operator for the real and imaginary parts; one solve
    # per frequency and part, as a batched solve rounds differently
    for i, b in enumerate(phasors):
        sol_re, *_ = np.linalg.lstsq(A, b.real, rcond=None)
        sol_im, *_ = np.linalg.lstsq(A, b.imag, rcond=None)
        delta[i] = sol_re + 1j * sol_im
    resid = delta @ A.T - phasors
    with np.errstate(over="ignore"):   # inf where a residual's square overflows
        return delta, np.sqrt(np.mean(np.abs(resid) ** 2, axis=1))


def rbm_contribution(
    channels,
    A: np.ndarray,
    phasors: np.ndarray,
    delta: np.ndarray,
    floor_ratio: float = 1e-3,
) -> np.ndarray:
    """Percent of measured motion explained by the rigid prediction
    ``A @ delta``, per frequency (row) and axis x/y/z (column).

    Channels whose measured amplitude sits below floor_ratio x (largest
    measured amplitude at that frequency) are left out; an axis with no
    usable channel reads NaN.
    """
    # hypot, as abs() of one complex is; np.abs can differ in the last bit
    measured = np.hypot(phasors.real, phasors.imag)
    axis_of = np.array([AXIS_ROW[axis] for _, axis in channels])
    out = np.full((len(phasors), 3), np.nan)
    for i, d in enumerate(delta):
        # one product per frequency: a batched one rounds differently
        predicted = A @ d
        predicted = np.hypot(predicted.real, predicted.imag)
        usable = measured[i] >= floor_ratio * measured[i].max()
        for k in range(3):
            sel = usable & (axis_of == k)
            if sel.any():
                out[i, k] = (
                    100.0 * float(np.mean(predicted[sel])) / float(np.mean(measured[i, sel]))
                )
    return out


# --- SDOF amplification and damping -----------------------------------------


def rd_curve(xi, r) -> np.ndarray | float:
    """Dynamic amplification of an SDOF oscillator: peak of ~1/(2 xi) near r=1.

    ``xi`` and ``r`` broadcast; a float comes back when both are scalars."""
    xi_arr = np.asarray(xi, dtype=float)
    if not np.all((xi_arr >= 0.0) & (xi_arr < 1.0)):
        raise DomainError(f"damping ratio {xi} outside [0, 1)")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("frequency ratio must be non-negative")
    if np.any((xi_arr == 0.0) & (r_arr == 1.0)):
        raise InfinityError("undamped oscillator at resonance")
    out = 1.0 / np.sqrt((1.0 - r_arr**2) ** 2 + (2.0 * xi_arr * r_arr) ** 2)
    return float(out) if np.isscalar(r) and np.isscalar(xi) else out


DEFAULT_XI_GRID = tuple(np.arange(0.05, 0.95 + 1e-9, 0.025))


@dataclass(frozen=True)
class DampingEstimate:
    xi_lo: float
    xi_hi: float
    per_station: dict[tuple[str, str], float]
    normalization_freq_hz: float          # the assumed natural frequency
    boundary: bool = False                # best xi pinned at a grid end somewhere
    poor_fit: bool = False                # some curve matches no oscillator shape

#: relative rms misfit beyond which a curve is not credibly SDOF-shaped
POOR_FIT_MISFIT = 0.15


def _normalization(u: np.ndarray) -> float:
    """Static-displacement proxy: mean of the two lowest-frequency amplitudes."""
    return float(np.mean(u[:2]))


def estimate_damping(
    frc: FrequencyResponseCurve,
    fn_hint: float,
    xi_grid=DEFAULT_XI_GRID,
    fit_range: tuple[float, float] = (0.3, 1.5),
) -> DampingEstimate:
    """Match normalized station curves against the SDOF amplification family.

    The response at the lowest frequencies stands in for the static
    displacement; the grid value minimizing the L2 distance over
    r in fit_range wins, reported as a min/max interval across stations.
    """
    if fn_hint <= 0:
        raise NormalizationError("need a positive natural-frequency hint")
    xi_grid = np.asarray(xi_grid, dtype=float)
    # every series shares the frequency grid, and so the fit range and the
    # amplification family on it: one row per grid value
    if np.count_nonzero(frc.frequencies < 0.5 * fn_hint) < 2:
        raise NormalizationError(f"the curve lacks two points below {0.5 * fn_hint:.3g} Hz")
    r = frc.frequencies / fn_hint
    sel = (r >= fit_range[0]) & (r <= fit_range[1])
    if np.count_nonzero(sel) < 3:
        raise NormalizationError("the curve has fewer than 3 points in the fit range")
    family = rd_curve(xi_grid[:, None], r[sel])
    per_station: dict[tuple[str, str], float] = {}
    boundary = False
    poor_fit = False
    for (sid, axis), u in zip(frc.keys, frc.u_mm.T):
        norm = _normalization(u)
        if norm <= 0:
            raise NormalizationError(f"series {sid}/{axis} has a non-positive normalization")
        target = u[sel] / norm
        errs = np.sum((target - family) ** 2, axis=1)
        best = int(np.argmin(errs))
        if best in (0, len(xi_grid) - 1):
            boundary = True
        misfit = math.sqrt(errs[best] / len(target)) / float(np.mean(np.abs(target)))
        if misfit > POOR_FIT_MISFIT:
            poor_fit = True
        per_station[(sid, axis)] = float(xi_grid[best])
    if not per_station:
        raise NormalizationError("no station series in the curve")
    values = list(per_station.values())
    return DampingEstimate(
        xi_lo=min(values),
        xi_hi=max(values),
        per_station=per_station,
        normalization_freq_hz=fn_hint,
        boundary=boundary,
        poor_fit=poor_fit,
    )


def amplification_factor(frc: FrequencyResponseCurve) -> float:
    """Peak scaled amplitude over the low-frequency (static proxy) amplitude,
    averaged across station series."""
    if len(frc.frequencies) < 3:
        raise NormalizationError("the curve is too short to normalize")
    ratios = []
    for (sid, axis), u in zip(frc.keys, frc.u_mm.T):
        norm = _normalization(u)
        if norm <= 0:
            raise NormalizationError(f"series {sid}/{axis} has a non-positive normalization")
        ratios.append(float(np.max(u)) / norm)
    if not ratios:
        raise NormalizationError("no station series in the curve")
    return float(np.mean(ratios))


def frc_peak(frc: FrequencyResponseCurve, sid: str, axis: str) -> tuple[float, float, bool]:
    """(frequency, amplitude, flat_flag) of a series' maximum; the flag marks
    a peak whose runner-up sits within 5 %."""
    f, u = frc.series(sid, axis)
    order = np.argsort(u)
    peak_idx = order[-1]
    flat = len(u) > 1 and (u[order[-1]] - u[order[-2]]) < 0.05 * u[order[-1]]
    return float(f[peak_idx]), float(u[peak_idx]), bool(flat)


def _shared_amplitudes(
    frc_a: FrequencyResponseCurve, frc_b: FrequencyResponseCurve, exclude_below: float
) -> tuple[np.ndarray, np.ndarray]:
    """Both curves' amplitudes at each series and frequency above
    ``exclude_below`` that they share, in sorted (id, axis, f) order."""
    keys = sorted(set(frc_a.keys) & set(frc_b.keys))
    freqs = sorted(set(frc_a.frequencies.tolist()) & set(frc_b.frequencies.tolist()))
    freqs = [f for f in freqs if f > exclude_below]
    if not keys or not freqs:
        raise ComparisonError("curves share no frequencies above the exclusion limit")
    a, b = (frc.select(keys).u_mm[np.searchsorted(frc.frequencies, freqs)] for frc in (frc_a, frc_b))
    return a.T.ravel(), b.T.ravel()


def linearity_rms(
    frc_a: FrequencyResponseCurve,
    frc_b: FrequencyResponseCurve,
    exclude_below: float = 2.0,
) -> float:
    """RMS difference of scaled amplitudes over the shared grid, in mm."""
    a, b = _shared_amplitudes(frc_a, frc_b, exclude_below)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def curvature_strain(x_positions, deflections_m, fiber_distance_m: float) -> float:
    """Bending strain from a parabola through three (x, w) samples.

    Curvature is the parabola's second derivative, 2a; strain = curvature
    times the fiber distance.
    """
    x = np.asarray(x_positions, dtype=float).reshape(3)
    w = np.asarray(deflections_m, dtype=float).reshape(3)
    if len(set(x.tolist())) != 3:
        raise GeometryError("parabola needs three distinct x positions")
    a = np.polyfit(x, w, 2)[0]
    curvature = 2.0 * a
    return float(curvature * fiber_distance_m)
