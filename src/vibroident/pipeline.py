"""End-to-end analysis: records in, identified dynamics out.

Two steps.  :func:`analyze` band-pass filters the response, windows each
dwell (or sweep crossing), sine-fits every channel into a station
displacement phasor and estimates the force amplitude from the
native-rate force records.  :func:`identify` turns those phasors and
forces into the force-scaled FRCs, rigid-body motion, natural frequency,
damping, amplification and strain; it runs as well on phasors from any
other source, such as the exact steady-state response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsp, modal
from .errors import ParseError, WindowError
from .modal import (
    DampingEstimate,
    ForceEstimate,
    ForceGeometry,
    FrcPoint,
    FrequencyResponseCurve,
    RigidMotion,
    StationPhasors,
)
from .simulator.excitation import ExcitationProgram
from .simulator.sensors import AXIS_NAMES
from .timeseries import SensorLayout, TimeSeriesSet, extract_window

#: rigid-motion FRC axis measured for each excited DOF
EXCITED_AXIS = {"X": "dx", "Y": "dy", "Z": "dz", "YAW": "rz"}

#: distance from the neutral axis to the strained fibre, metres
STRAIN_FIBER_M = 2.9

#: station phasors per frequency: {f_hz: {station id: {axis: phasor, m}}}
Phasors = dict[float, dict[str, dict[str, complex]]]


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
    dof_excited: str
    frc_stations: FrequencyResponseCurve
    frc_rigid: FrequencyResponseCurve
    rigid_motions: dict[float, RigidMotion]
    contributions: dict[float, dict[str, float | None]]
    damping: DampingEstimate
    natural_frequency_hz: float
    peak_flat: bool
    amplification: float
    station_phasors: Phasors = field(default_factory=dict)
    strain: float | None = None
    #: per-frequency force fits; set by :func:`analyze`
    force_estimates: dict[float, ForceEstimate] = field(default_factory=dict)
    #: (window frequency, channel label) of every fit whose polish did not converge
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
    """(f, t0, t1) per analysis point, from the program's own schedule."""
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
    """Fit the records into station phasors and forces, then :func:`identify`."""
    dof = program.dof_excited.upper()
    keys = _channel_keys(response.labels, layout)
    windows = analysis_windows(program, policy)
    coeffs = dsp.design_bandpass(policy.filter_order, policy.f_low, policy.f_high, response.sample_rate)
    filtered = dsp.filtfilt(coeffs, response)

    geometry = {
        fp.id: ForceGeometry(fp.location, fp.direction) for fp in program.force_points
    }

    phasors: Phasors = {}
    force_estimates: dict[float, ForceEstimate] = {}
    unconverged: list[tuple[float, str]] = []

    for f, t0, t1 in windows:
        window = extract_window(filtered, t0, t1)
        fits = dsp.fit_sines(window.times(), window.values, f)
        # channels with no coherent response (noise-only) may run out of
        # polish iterations; their best iterate is kept and reported
        unconverged.extend((f, window.labels[c]) for c in np.flatnonzero(~fits.converged))
        # forward+backward filtering scales amplitudes by |H|^2; undo it
        accel_phasors = fits.phasor / dsp.filter_gain(coeffs, fits.frequency) ** 2
        disp_phasors = -accel_phasors / fits.omega**2
        by_station: dict[str, dict[str, complex]] = {}
        for (sid, axis), disp in zip(keys, disp_phasors):
            by_station.setdefault(sid, {})[axis] = complex(disp)
        phasors[f] = by_station

        force_estimates[f] = modal.estimate_force_amplitude(extract_window(force, t0, t1), geometry, f)

    forces = {
        f: est.torque if dof == "YAW" else est.resultant for f, est in force_estimates.items()
    }
    result = identify(phasors, forces, dof, layout, policy, strain_stations, strain_fiber_m)
    return replace(result, force_estimates=force_estimates, unconverged=tuple(unconverged))


def identify(
    phasors: Phasors,
    forces: dict[float, float],
    dof: str,
    layout: SensorLayout,
    policy: AnalysisPolicy = AnalysisPolicy(),
    strain_stations: tuple[str, str, str] | None = None,
    strain_fiber_m: float = STRAIN_FIBER_M,
) -> AnalysisResult:
    """Identified dynamics from station displacement phasors.

    ``forces`` holds the measured force (kN) or, for YAW, torque (kN*m)
    per frequency; every response is scaled to the policy's reference.
    """
    dof = dof.upper()
    amplitudes = {
        f: {(sid, axis): abs(p) for sid, axes in by_station.items() for axis, p in axes.items()}
        for f, by_station in phasors.items()
    }
    f_ref = policy.f_ref(dof)
    frc_stations = modal.build_frc(amplitudes, forces, f_ref, dof, layout)

    rigid_motions: dict[float, RigidMotion] = {}
    contributions: dict[float, dict[str, float | None]] = {}
    rigid_points: list[FrcPoint] = []
    for f in sorted(phasors):
        stations = [
            StationPhasors(sid, layout.station(sid).position, axes)
            for sid, axes in sorted(phasors[f].items())
        ]
        rm = modal.fit_rigid_body(stations, f)
        rigid_motions[f] = rm
        contributions[f] = modal.rbm_contribution(stations, rm)
        scale = f_ref / forces[f]
        for k, axis in enumerate(modal.GENERALIZED_AXES):
            value = abs(rm.delta[k])
            if axis.startswith("r"):
                value *= policy.rotation_lever_m
            rigid_points.append(
                FrcPoint(f, "rbm", axis, value * 1e3 * scale, forces[f], f_ref)
            )
    frc_rigid = FrequencyResponseCurve(tuple(rigid_points), dof)

    fn, _, flat = modal.frc_peak(frc_rigid, "rbm", EXCITED_AXIS[dof])

    # damping: every station channel that meaningfully responded
    peaks = {}
    for sid, axis in frc_stations.ids():
        if sid in layout.groups:
            continue
        _, u = frc_stations.series(sid, axis)
        peaks[(sid, axis)] = float(np.max(u))
    peak_max = max(peaks.values())
    relevant = {
        key for key, p in peaks.items() if p >= policy.damping_channel_floor * peak_max
    }
    frc_damping = frc_stations.subset(lambda p: (p.id, p.axis) in relevant)
    damping = modal.estimate_damping(frc_damping, fn)
    amplification = modal.amplification_factor(
        frc_rigid.subset(lambda p: p.axis == EXCITED_AXIS[dof])
    )

    strain = None
    if strain_stations is not None:
        strain = deformational_strain(
            phasors, rigid_motions, layout, strain_stations, fn, strain_fiber_m
        )

    return AnalysisResult(
        dof_excited=dof,
        frc_stations=frc_stations,
        frc_rigid=frc_rigid,
        rigid_motions=rigid_motions,
        contributions=contributions,
        damping=damping,
        natural_frequency_hz=fn,
        peak_flat=flat,
        amplification=amplification,
        station_phasors=phasors,
        strain=strain,
    )


def deformational_strain(
    phasors: Phasors,
    rigid_motions: dict[float, RigidMotion],
    layout: SensorLayout,
    station_ids: tuple[str, str, str],
    f_peak: float,
    fiber_m: float,
) -> float:
    """Bending strain from the deformational (rigid-subtracted) vertical
    displacement of three stations, at the frequency nearest the peak."""
    f = min(phasors, key=lambda ff: abs(ff - f_peak))
    rm = rigid_motions[f]
    xs = []
    ws = []
    for sid in station_ids:
        st = layout.station(sid)
        meas = phasors[f][sid]["z"]
        pred = rm.predict(st.position)[2]
        deform = meas - pred
        xs.append(float(st.position[0]))
        # real part relative to the strongest component's phase
        ws.append(abs(deform) * math.copysign(1.0, (deform * np.exp(-1j * np.angle(meas))).real or 1.0))
    return modal.curvature_strain(xs, ws, fiber_m)
