"""End-to-end analysis: records in, identified dynamics out.

Two steps.  :func:`analyze` band-pass filters the response, windows each
dwell (or sweep crossing), sine-fits every channel into one row of
displacement phasors and estimates the force amplitude from the
native-rate force records.  :func:`identify` turns that frequencies x
channels phasor matrix and the forces into the force-scaled FRCs,
rigid-body motion, natural frequency, damping, amplification and strain;
it runs as well on phasors from any other source, such as the exact
steady-state response.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, modal, timeseries
from .errors import FitError, ParseError, VibroidentError, WindowError
from .modal import (
    GENERALIZED_AXES,
    DampingEstimate,
    ForceEstimate,
    ForceGeometry,
    FrequencyResponseCurve,
)
from .simulator.excitation import ExcitationProgram
from .simulator.sensors import AXIS_NAMES
from .timeseries import SensorLayout, TimeSeriesSet, extract_window

#: rigid-motion FRC axis measured for each excited DOF
EXCITED_AXIS = {"X": "dx", "Y": "dy", "Z": "dz", "YAW": "rz"}

#: distance from the neutral axis to the strained fibre, metres
STRAIN_FIBER_M = 2.9


@dataclass(frozen=True)
class AnalysisPolicy:
    """Knobs of the identification chain; defaults follow the test campaign."""

    filter_order: int = 5
    f_low: float = 1.0
    f_high: float = 25.0
    skip_cycles: float = 10.0
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
    #: (window frequency, channel label) of every fit whose polish did not
    #: converge; only swept response rows are polished
    unconverged: tuple[tuple[float, str], ...] = ()


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
#: a sweep window spans 3.5 cycles, clipped to these bounds, seconds
SWEEP_WINDOW_MIN_S = 2.0
SWEEP_WINDOW_MAX_S = 5.0


def analysis_windows(program: ExcitationProgram, policy: AnalysisPolicy) -> list[tuple[float, float, float]]:
    """(f, t0, t1) per analysis point, from the program's own schedule.

    A stepped window starts ``skip_cycles`` into its dwell and ends one
    cycle before the dwell does, or ``max_window_s`` after it starts if
    that is sooner; it must hold at least 3 cycles (WindowError).  The
    cycle at the end keeps out the drive's stop, which the backward pass
    of :func:`~vibroident.dsp.filtfilt` carries back into the dwell: a
    fit at the drive's fixed frequency cannot absorb that echo.  On the
    noise-free default stepped-X record (``f_low`` 1 Hz), the rigid dx
    amplitude at 1 Hz is 2.84 % off with the window ending at the dwell's
    end, and 0.08 % off with this rule.  A sweep window spans 3.5 cycles (2-5 s) centred on the time
    the sweep crosses each 1 Hz grid point, and is kept where it lies
    inside the run.
    """
    out = []
    if program.kind == "stepped":
        for t_on, t_off, f in program.stepped.schedule():
            t0 = t_on + policy.skip_cycles / f
            t1 = min(t_off - 1.0 / f, t0 + policy.max_window_s)
            if (t1 - t0) * f < 3.0:
                raise WindowError(
                    f"dwell at {f} Hz leaves {(t1 - t0) * f:.2f} cycles after the transient skip"
                )
            out.append((f, t0, t1))
        return out
    sw = program.sweep
    f = math.ceil(sw.f0 / SWEEP_GRID_STEP_HZ) * SWEEP_GRID_STEP_HZ
    while f <= sw.f1 + 1e-9:
        width = min(max(3.5 / f, SWEEP_WINDOW_MIN_S), SWEEP_WINDOW_MAX_S)
        tc = sw.time_at_frequency(f)
        t0, t1 = tc - width / 2.0, tc + width / 2.0
        if t0 >= 0.0 and t1 <= sw.duration:
            out.append((float(f), t0, t1))
        f += SWEEP_GRID_STEP_HZ
    if not out:
        raise WindowError("no sweep analysis window fits inside the run")
    return out


def analyze(
    response: TimeSeriesSet,
    force: TimeSeriesSet,
    program: ExcitationProgram,
    layout: SensorLayout,
    policy: AnalysisPolicy = AnalysisPolicy(),
    strain_stations: tuple[str, str, str] | None = None,
    strain_fiber_m: float = STRAIN_FIBER_M,
) -> AnalysisResult:
    """Fit the records into a phasor matrix and forces, then :func:`identify`.

    Every window is fitted by one function, ``fit_window``, into one
    fixed-size raw row: the displacement phasors, the converged flags, the
    force phasors, the z torque and the drive frequency.  A window's force
    rows are fitted first (:func:`~vibroident.modal.estimate_force_amplitude`),
    and its drive frequency is their fits' omega, weighted by amplitude.
    A force fit that is not finite raises FitError, as a response fit does.

    - In a stepped dwell the block and its actuators move at the one drive
      frequency.  The force rows are fitted at the omega of their phase
      drift (:func:`~vibroident.dsp.fit_sines_drift`), and every response
      row at that omega, in one linear solve per window
      (:func:`~vibroident.dsp.fit_sines_at`): no row searches or polishes
      its own frequency, and none can fail to converge.
    - In a sweep window the response's instantaneous frequency follows
      the phase slope of the transfer function, which one fixed omega
      misfits, so the force and response rows keep their free fits
      (:func:`~vibroident.dsp.fit_sines`); ``unconverged`` lists the
      response rows whose polish ran out of iterations.

    The filter gain and the -1/omega^2 that takes acceleration to
    displacement are evaluated at each row's fitted omega.

    A sweep's windows are split round-robin over up to ``min(CPUs, 4)``
    processes (sized by their response cells, as record I/O is), forked
    workers sending their rows back through pipes; nothing is pickled.
    Any failure (a worker that does not exit 0, a short read, an OSError,
    or an error in this process's own share) re-runs every window here,
    in window order, so the result and any exception are the one-process
    ones.  Stepped windows, which run no search and no polish, are fitted
    in this process alone.  Split over two processes, the benchmark's
    stepped_x ``analyze`` was no faster (median 0.68 s wall against 0.68
    s) and used more CPU (1.02 s against 0.99 s; 8 alternating runs each
    on a 2-vCPU Xeon).
    """
    dof = program.dof_excited.upper()
    keys = _channel_keys(response.labels, layout)
    windows = analysis_windows(program, policy)
    coeffs = dsp.design_bandpass(policy.filter_order, policy.f_low, policy.f_high, response.sample_rate)
    filtered = dsp.filtfilt(coeffs, response)

    geometry = {
        fp.id: ForceGeometry(fp.location, fp.direction) for fp in program.force_points
    }

    channels = len(response)
    fitted = np.zeros(len(windows), np.dtype([
        ("phasors", complex, (channels,)),
        ("converged", bool, (channels,)),
        ("force", complex, (3,)),
        ("torque", complex),
        ("omega", float),
    ]))

    stepped = program.kind == "stepped"

    def fit_window(k: int) -> None:
        f, t0, t1 = windows[k]
        force_fit = dsp.fit_sines_drift if stepped else None
        est = modal.estimate_force_amplitude(extract_window(force, t0, t1), geometry, f, force_fit)
        if not np.all(np.isfinite([*est.component_phasors, est.torque_z_phasor, est.omega])):
            # as below, only a record whose values overflow the fit's sums
            raise FitError(f"force fit at {f} Hz is not finite")
        window = extract_window(filtered, t0, t1)
        if stepped:
            fits = dsp.fit_sines_at(window.times(), window.values, est.omega)
        else:
            fits = dsp.fit_sines(window.times(), window.values, f)
        if not np.all(np.isfinite(fits.amplitude)):
            # only a record whose values overflow the fit's sums gets here
            label = response.labels[int(np.argmin(np.isfinite(fits.amplitude)))]
            raise FitError(f"sine fit of channel {label!r} at {f} Hz is not finite")
        # forward+backward filtering scales amplitudes by |H|^2; undo it
        accel_phasors = fits.phasor / dsp.filter_gain(coeffs, fits.frequency) ** 2
        fitted[k] = (
            -accel_phasors / fits.omega**2, fits.converged, est.component_phasors, est.torque_z_phasor, est.omega
        )

    def send(first: int, step: int, out) -> None:
        for k in range(first, len(windows), step):
            fit_window(k)
            out.write(fitted[k : k + 1].tobytes())

    cells = int(channels * response.sample_rate * sum(t1 - t0 for _, t0, t1 in windows))
    parts = 1 if stepped else min(timeseries._worker_count(cells), len(windows))
    done = False
    if parts > 1:
        # the low-frequency windows come first and cost the most: deal them out
        with contextlib.suppress(OSError, VibroidentError):
            with timeseries._forked([(w, parts) for w in range(1, parts)], send) as pipes:
                for k in range(0, len(windows), parts):
                    fit_window(k)
                for w, pipe in enumerate(pipes, start=1):
                    for k in range(w, len(windows), parts):
                        row = fitted[k : k + 1].view(np.uint8)
                        if pipe.readinto(row) != row.nbytes:
                            raise ChildProcessError("short read from a window fit worker")
            done = True
    if not done:
        for k in range(len(windows)):
            fit_window(k)

    freqs = [f for f, _, _ in windows]
    # swept channels with no coherent response (noise-only) may run out of
    # polish iterations; their best iterate is kept and reported
    unconverged = tuple(
        (f, response.labels[c]) for f, ok in zip(freqs, fitted["converged"]) for c in np.flatnonzero(~ok)
    )
    force_estimates = tuple(
        ForceEstimate(f, row["force"].copy(), complex(row["torque"]), float(row["omega"]))
        for f, row in zip(freqs, fitted)
    )
    forces = [est.torque if dof == "YAW" else est.resultant for est in force_estimates]
    result = identify(
        freqs, keys, fitted["phasors"], forces, dof, layout, policy, strain_stations, strain_fiber_m
    )
    return replace(result, force_estimates=force_estimates, unconverged=unconverged)


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
