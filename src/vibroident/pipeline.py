"""End-to-end analysis: records in, identified dynamics out.

Two steps.  :func:`analyze` reads each dwell (or sweep crossing) through
one estimator, the window's basis: on the native-rate force records, and,
filtered by the transpose of the band-pass filter and cut to the support
where its weight lies, on the raw response, which it reads once as a
stream of blocks of rows, so that a parsed response never becomes a
matrix.  :func:`identify` turns that frequencies x channels phasor matrix
and the forces into the force-scaled FRCs, rigid-body motion, natural
frequency, damping, amplification and strain; it runs as well on phasors
from any other source, such as the exact steady-state response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dsp, modal
from .errors import FitError, ParseError, WindowError
from .modal import (
    GENERALIZED_AXES,
    DampingEstimate,
    ForceEstimate,
    FrequencyResponseCurve,
)
from .simulator.excitation import ExcitationProgram
from .simulator.sensors import AXIS_NAMES
from .timeseries import RecordStream, SensorLayout, TimeSeriesSet, extract_window, window_span

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


#: a response kernel is kept on the shortest index range outside which its
#: weight is at most this share of the whole (:func:`~vibroident.dsp.kernel_support`).
#: The bundled programs' lowest windows, whose accelerations are small
#: beside the rest of the record, need 1e-19 to stay within ``CUT_BOUND``;
#: each decade lower widens a support by about 2 s at the 1 Hz corner
KERNEL_CUT = 1e-20
#: the most a cut may drop, as a share of its window's largest phasor: its
#: dropped weight times the largest |value| of the blocks outside its
#: support.  A window past it is projected again with its whole kernel
CUT_BOUND = 1e-16


def _estimator(program: ExcitationProgram, f: float, t0: float, t1: float):
    """The window's one basis, for its force rows and its response rows."""
    omega = 2.0 * math.pi * f
    return lambda t: dsp.hann_basis(t, program.drive(t), omega, t0, t1)


def _response_kernel(response, coeffs, program, f: float, t0: float, t1: float) -> tuple[complex, np.ndarray]:
    """The reference of the window's basis on the response, and its (n, 2)
    kernel zero-embedded in the record's length and filtered by the
    transpose of the band-pass filter."""
    span = window_span(response, t0, t1)
    rate = response.sample_rate
    # extract_window(response, t0, t1).times(), with no copy of the window
    t = (response.start_time + span.start / rate) + np.arange(span.stop - span.start) / rate
    basis = _estimator(program, f, t0, t1)(t)
    kernel = np.zeros((2, response.samples))
    kernel[:, span] = basis.basis.T
    # <filtfilt(x), k> = <x, filtfilt_transpose(k)>: the raw rows read the
    # kernel filtered in place of themselves
    return basis.reference, dsp.filtfilt_transpose(coeffs, kernel).T


def analyze(
    response: TimeSeriesSet | RecordStream,
    force: TimeSeriesSet,
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

    Every force estimate comes before any response estimate, window by
    window (:func:`~vibroident.modal.estimate_force_amplitude`).  Then each
    window's basis on its index span in the response
    (:func:`~vibroident.timeseries.window_span`) is zero-embedded in the
    record's length and filtered by
    :func:`~vibroident.dsp.filtfilt_transpose`: applied to the raw rows,
    it reads what the basis reads from the rows filtered by
    :func:`~vibroident.dsp.filtfilt`, so no filtered row is made.  Each
    filtered kernel is kept on its cut support
    (:func:`~vibroident.dsp.kernel_support`, ``KERNEL_CUT``), and one pass
    over the response's blocks of rows (:func:`~vibroident.dsp.project_blocks`)
    reads every window's phasors; ``response`` is a record in memory or a
    :class:`~vibroident.timeseries.RecordStream` of a parse's spill files,
    and no channels x samples matrix is made of the latter.  After the
    pass, a window whose dropped weight times the largest |value| of the
    blocks outside its support exceeds ``CUT_BOUND`` of its largest
    phasor, or is not finite, is projected again with its whole kernel by
    a second pass.  A row never shares a product with another, so no
    phasor depends on the other channels.

    An estimate that is not finite raises FitError (exit code 4): the
    first window's force with one, in the force's turn, else the first
    window's response, whose error names the first channel that has one.  A window that the force or response
    record does not cover whole raises ForceEstimationError or FitError.
    A record that lacks the z column of a strain station raises
    ParseError before any window is estimated.

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
    forces, force_estimates = [], []
    for f, t0, t1 in windows:
        est = modal.estimate_force_amplitude(
            extract_window(force, t0, t1), geometry, f, _estimator(program, f, t0, t1)
        )
        scale = est.torque if dof == "YAW" else est.resultant
        if not np.all(np.isfinite([*est.generalized, scale])):
            # as below, only a record whose values overflow the estimate's
            # sums, or the force's magnitude, gets here
            raise FitError(f"force fit at {f} Hz is not finite")
        forces.append(scale)
        force_estimates.append(est)

    references, kernels, dropped = [], [], []
    for window in windows:
        reference, kernel = _response_kernel(response, coeffs, program, *window)
        a, b, weight = dsp.kernel_support(kernel, KERNEL_CUT)
        references.append(reference)
        kernels.append((a, kernel[a:b].copy()))
        dropped.append(weight)
        del kernel   # the whole-length kernel, before the next one is filtered
    sums, peaks = dsp.project_blocks(response, kernels)
    first, end, peak = peaks.T
    redo = []
    with np.errstate(all="ignore"):
        for j, (a, k) in enumerate(kernels):
            # the largest |value| of the blocks that hold a sample outside the support
            outside = np.max(peak[(first < a) | (end > a + len(k))], initial=0.0)
            if not dropped[j] * outside <= CUT_BOUND * np.max(np.hypot(*sums[:, j].T)):
                redo.append(j)
    if redo:
        whole = [(0, _response_kernel(response, coeffs, program, *windows[j])[1].copy()) for j in redo]
        sums[:, redo] = dsp.project_blocks(response, whole)[0]

    rows = []
    for (f, _, _), reference, s in zip(windows, references, sums.transpose(1, 0, 2)):
        with np.errstate(all="ignore"):
            row = (s[:, 0] + 1j * s[:, 1]) / reference
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
