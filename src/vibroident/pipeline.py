"""End-to-end analysis: records in, identified dynamics out.

Two steps.  :func:`analyze` reads each dwell (or sweep crossing) through
one estimator, the window's basis (:func:`~vibroident.dsp.window_phasors`):
on the native-rate force record, and, filtered by the transpose of the
band-pass filter, on the raw response.  It reads each record as a stream
of blocks of rows, so that neither parsed record becomes a matrix.
:func:`identify` turns that frequencies x channels phasor matrix and the
forces into the force-scaled FRCs, rigid-body motion, natural frequency,
damping, amplification and strain; it runs as well on phasors from any
other source, such as the exact steady-state response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, modal
from .errors import FitError, ForceEstimationError, ParseError, WindowError
from .modal import (
    GENERALIZED_AXES,
    DampingEstimate,
    ForceEstimate,
    FrequencyResponseCurve,
)
from .simulator.excitation import ExcitationProgram
from .simulator.sensors import AXIS_NAMES
# extract_window stays importable from here: the benchmark tracer wraps pipeline.extract_window
from .timeseries import RecordStream, SensorLayout, TimeSeriesSet, extract_window

#: rigid-motion FRC axis measured for each excited DOF
EXCITED_AXIS = {"X": "dx", "Y": "dy", "Z": "dz", "YAW": "rz"}

#: distance from the neutral axis to the strained fibre, metres
STRAIN_FIBER_M = 2.9


@dataclass(frozen=True)
class AnalysisPolicy:
    """Knobs of the identification chain; defaults follow the test campaign.
    ``skip_cycles`` and ``max_window_s`` set the stepped windows
    (:func:`analysis_windows`)."""

    filter_order: int = 5
    f_low: float = 1.0
    f_high: float = 25.0
    skip_cycles: float = 2.0
    max_window_s: float = 40.0
    f_ref_force_kn: float = 6800.0
    f_ref_torque_knm: float = 117000.0
    rotation_lever_m: float = 16.5
    damping_channel_floor: float = 0.2

    def f_ref(self, dof: str) -> float:
        return self.f_ref_torque_knm if dof.upper() == "YAW" else self.f_ref_force_kn


@dataclass(frozen=True)
class AnalysisResult:
    """Identified dynamics; every array has one row per frequency."""

    dof_excited: str
    frequencies: np.ndarray                   # Hz
    channels: tuple[tuple[str, str], ...]     # (station id, axis), sorted
    phasors: np.ndarray                       # complex displacement per channel, m
    rigid: np.ndarray                         # complex {dx,dy,dz,rx,ry,rz}, m and rad
    rigid_residual_rms: np.ndarray            # m
    contributions: np.ndarray                 # % per x/y/z; NaN where undefined
    frc_stations: FrequencyResponseCurve
    frc_rigid: FrequencyResponseCurve
    damping: DampingEstimate
    natural_frequency_hz: float
    peak_flat: bool
    amplification: float
    strain: float | None = None
    #: per-frequency force fits; set by :func:`analyze`
    force_estimates: tuple[ForceEstimate, ...] = ()


def _channel_keys(labels, layout: SensorLayout) -> list[tuple[str, str]]:
    """(station id, axis) of each response channel; a label that is not
    ``<station>_<x|y|z>`` for a station of the layout is a ParseError."""
    stations = {st.id for st in layout.stations}
    keys = []
    for label in labels:
        sid, _, axis = label.rpartition("_")
        if sid not in stations or axis not in AXIS_NAMES:
            raise ParseError(f"response column {label!r} is not <layout station>_<x|y|z>")
        keys.append((sid, axis))
    return keys


#: sweep analysis points sit on this frequency grid, Hz
SWEEP_GRID_STEP_HZ = 1.0
#: a sweep window spans the time the sweep takes to cross this band, Hz,
#: centred on its grid frequency
SWEEP_WINDOW_HZ = 2.0


def analysis_windows(program: ExcitationProgram, policy: AnalysisPolicy) -> list[tuple[float, float, float]]:
    """(f, t0, t1) per analysis point, from the program's own schedule.

    A stepped window starts ``skip_cycles`` into its dwell and ends where
    the dwell does, or ``max_window_s`` after it starts if that is
    sooner; it must hold at least 3 cycles (WindowError).  The Hann
    window of the estimator (:func:`~vibroident.dsp.hann_basis`) weighs
    the dwell's start and stop down itself, the stop's echo that the
    backward pass of :func:`~vibroident.dsp.filtfilt` carries back into
    the dwell included.

    A sweep window is the span in which the sweep crosses the
    ``SWEEP_WINDOW_HZ`` band centred on a 1 Hz grid point,
    ``SWEEP_WINDOW_HZ / rate`` seconds centred on the time it crosses
    that point, and is kept where it lies inside the run.
    """
    out = []
    if program.kind == "stepped":
        for t_on, t_off, f in program.stepped.schedule():
            t0 = t_on + policy.skip_cycles / f
            t1 = min(t_off, t0 + policy.max_window_s)
            if (t1 - t0) * f < 3.0:
                raise WindowError(
                    f"dwell at {f} Hz leaves {(t1 - t0) * f:.2f} cycles after the transient skip"
                )
            out.append((f, t0, t1))
        return out
    sw = program.sweep
    half = 0.5 * SWEEP_WINDOW_HZ / sw.rate
    f = math.ceil(sw.f0 / SWEEP_GRID_STEP_HZ) * SWEEP_GRID_STEP_HZ
    while f <= sw.f1 + 1e-9:
        tc = sw.time_at_frequency(f)
        t0, t1 = tc - half, tc + half
        # a window that ends on the run's edge, as the band's ends can, is inside it
        if t0 >= -1e-9 and t1 <= sw.duration + 1e-9:
            out.append((float(f), t0, t1))
        f += SWEEP_GRID_STEP_HZ
    if not out:
        raise WindowError("no sweep analysis window fits inside the run")
    return out


def analyze(
    response: TimeSeriesSet | RecordStream,
    force: TimeSeriesSet | RecordStream,
    program: ExcitationProgram,
    layout: SensorLayout,
    policy: AnalysisPolicy = AnalysisPolicy(),
    strain_stations: tuple[str, str, str] | None = None,
    strain_fiber_m: float = STRAIN_FIBER_M,
) -> AnalysisResult:
    """Estimate the records' phasors and forces, then :func:`identify`.

    Each window gives one row of displacement phasors and one
    :class:`~vibroident.modal.ForceEstimate` through one estimator, the
    window's (n, 2) Hann basis at 2*pi*f relative to the program's unit
    drive (:func:`~vibroident.dsp.hann_basis`), which its force rows and
    its response rows both go through, stepped dwell or sweep crossing
    alike.  A response to the drive reads its transfer function times the
    force, and every channel of the window shares one phase reference.

    Both records are read alike by :func:`~vibroident.dsp.window_phasors`,
    each in one pass over its blocks of rows, a record in memory or a
    :class:`~vibroident.timeseries.RecordStream` of a parse's spill files,
    of which no channels x samples matrix is made: the force with no
    filter, each window's force phasors mapped to its force estimate
    (:func:`~vibroident.modal.estimate_force_amplitude`), all before the
    response's pass; the response through the band-pass's transpose, so
    that its raw rows read what the filtered rows would.

    A window that a record does not cover whole raises FitError, on the
    force as ForceEstimationError naming the first force channel; a force
    record that lacks a force point's channel raises ForceEstimationError
    naming it.  An estimate that is not finite raises FitError (exit code
    4): the first window's force with one, else the first window's
    response, whose error names the first channel that has one.  A record
    that lacks the z column of a strain station raises ParseError before
    any window is estimated.

    The filter gain and the -1/omega^2 that takes acceleration to
    displacement are evaluated at f.  Every window is estimated in this
    process.
    """
    dof = program.dof_excited.upper()
    keys = _channel_keys(response.labels, layout)
    missing = [f"{sid}_z" for sid in strain_stations or () if (sid, "z") not in keys]
    if missing:
        raise ParseError(f"response record lacks strain column(s) {', '.join(map(repr, missing))}")
    windows = analysis_windows(program, policy)
    coeffs = dsp.design_bandpass(policy.filter_order, policy.f_low, policy.f_high, response.sample_rate)

    geometry = {fp.id: (fp.location, fp.direction) for fp in program.force_points}
    try:
        # the force's estimator has no filter
        force_phasors = dsp.window_phasors(force, program.drive, windows)
    except FitError as exc:
        raise ForceEstimationError(f"estimate failed on channel {next(iter(geometry))!r}: {exc}") from exc
    forces, force_estimates = [], []
    for (f, _, _), phasors in zip(windows, force_phasors):
        est = modal.estimate_force_amplitude(force.labels, phasors, geometry, f)
        scale = est.torque if dof == "YAW" else est.resultant
        if not np.all(np.isfinite([*est.generalized, scale])):
            # as below, only a record whose values overflow the estimate's
            # sums, or the force's magnitude, gets here
            raise FitError(f"force fit at {f} Hz is not finite")
        forces.append(scale)
        force_estimates.append(est)

    rows = []
    for (f, _, _), row in zip(windows, dsp.window_phasors(response, program.drive, windows, coeffs)):
        if not np.all(np.isfinite(row)):
            # only a record whose values overflow the estimate's sums gets here
            label = response.labels[int(np.argmin(np.isfinite(row)))]
            raise FitError(f"phasor of channel {label!r} at {f} Hz is not finite")
        omega = 2.0 * math.pi * f
        # forward+backward filtering scales amplitudes by |H|^2; undo it
        rows.append(-row / dsp.filter_gain(coeffs, f) ** 2 / (omega * omega))

    result = identify(
        [f for f, _, _ in windows], keys, np.array(rows), forces, dof, layout, policy,
        strain_stations, strain_fiber_m,
    )
    return replace(result, force_estimates=tuple(force_estimates))


def identify(
    freqs,
    channels,
    phasors: np.ndarray,
    forces,
    dof: str,
    layout: SensorLayout,
    policy: AnalysisPolicy = AnalysisPolicy(),
    strain_stations: tuple[str, str, str] | None = None,
    strain_fiber_m: float = STRAIN_FIBER_M,
) -> AnalysisResult:
    """Identified dynamics from station displacement phasors.

    ``phasors`` is frequencies x channels (m) and ``channels`` holds the
    (station id, axis) tuple of each column.  ``forces`` holds the measured
    force (kN) or, for YAW, torque (kN*m) per frequency; every response is
    scaled to the policy's reference.  The columns are put in (station id,
    axis) order first, so no output depends on the order of the channels.
    """
    dof = dof.upper()
    freqs = np.asarray(freqs, dtype=float)
    order = sorted(range(len(channels)), key=channels.__getitem__)
    channels = tuple(channels[c] for c in order)
    X = np.asarray(phasors, dtype=complex)[:, order]
    f_ref = policy.f_ref(dof)
    frc_stations = modal.build_frc(
        freqs, channels, np.hypot(X.real, X.imag), forces, f_ref, dof, layout
    )

    A = modal.rigid_map(channels, layout)
    rigid, residual = modal.fit_rigid_body(A, X)
    contributions = modal.rbm_contribution(channels, A, X, rigid)
    # rotations scaled to displacements at the lever arm
    rigid_amp = np.hypot(rigid.real, rigid.imag)
    rigid_amp[:, 3:] *= policy.rotation_lever_m
    frc_rigid = modal.build_frc(
        freqs, [("rbm", axis) for axis in GENERALIZED_AXES], rigid_amp, forces, f_ref, dof
    )

    fn, _, flat = modal.frc_peak(frc_rigid, "rbm", EXCITED_AXIS[dof])

    # damping: every station channel that meaningfully responded
    peaks = frc_stations.u_mm[:, : len(channels)].max(axis=0)
    floor = policy.damping_channel_floor * peaks.max()
    relevant = [key for key, peak in zip(channels, peaks) if peak >= floor]
    damping = modal.estimate_damping(frc_stations.select(relevant), fn)
    amplification = modal.amplification_factor(frc_rigid.select([("rbm", EXCITED_AXIS[dof])]))

    strain = None
    if strain_stations is not None:
        strain = deformational_strain(
            freqs, channels, X, rigid, layout, strain_stations, fn, strain_fiber_m
        )

    return AnalysisResult(
        dof_excited=dof,
        frequencies=freqs,
        channels=channels,
        phasors=X,
        rigid=rigid,
        rigid_residual_rms=residual,
        contributions=contributions,
        frc_stations=frc_stations,
        frc_rigid=frc_rigid,
        damping=damping,
        natural_frequency_hz=fn,
        peak_flat=flat,
        amplification=amplification,
        strain=strain,
    )


def deformational_strain(
    freqs: np.ndarray,
    channels,
    phasors: np.ndarray,
    rigid: np.ndarray,
    layout: SensorLayout,
    station_ids: tuple[str, str, str],
    f_peak: float,
    fiber_m: float,
) -> float:
    """Bending strain from the deformational (rigid-subtracted) vertical
    displacement of three stations, at the frequency nearest the peak."""
    i = int(np.argmin(np.abs(freqs - f_peak)))
    xs = []
    ws = []
    for sid in station_ids:
        st = layout.station(sid)
        meas = phasors[i, channels.index((sid, "z"))]
        pred = (modal.rigid_rows(st.position) @ rigid[i])[2]
        deform = meas - pred
        xs.append(float(st.position[0]))
        # real part relative to the strongest component's phase
        ws.append(abs(deform) * math.copysign(1.0, (deform * np.exp(-1j * np.angle(meas))).real or 1.0))
    return modal.curvature_strain(xs, ws, fiber_m)
