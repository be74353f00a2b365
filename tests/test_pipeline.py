import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vibroident import dsp, timeseries
from vibroident.errors import FitError, ForceEstimationError, WindowError
from vibroident.cli import _contribution_csv, _deformation_figures, _load_text, _rbm_csv
from vibroident.modal import frc_to_csv, linearity_rms, rigid_map, rigid_rows
from vibroident.pipeline import AnalysisPolicy, analysis_windows, analyze, identify
from vibroident.simulator import (
    BlockSpec,
    ExcitationProgram,
    ForcePoint,
    NoiseSpec,
    SteppedSpec,
    SweepSpec,
    assemble_system,
    build_block_model,
    force_timeseries,
    integrate,
    load_model,
    load_program,
    sensor_kinematics,
    steady_state_response,
)
from vibroident.timeseries import SensorLayout, Station, extract_window, load_layout


@pytest.fixture(scope="module")
def small_setup():
    # x mode ~8 Hz, z ~12 Hz: cheap to integrate, representative dynamics
    spec = BlockSpec(
        length=8.0, width=4.0, height=2.0, mass=2e5,
        kv_total=2e5 * (2 * math.pi * 12.0) ** 2,
        kh_x_total=2e5 * (2 * math.pi * 8.0) ** 2,
        kh_y_total=2e5 * (2 * math.pi * 9.0) ** 2,
        nx_bottom=5, ny_bottom=3, n_end=3, n_side=5,
        zeta=0.3, trib_shares=(0.8, 0.5, 0.3),
    )
    model = build_block_model(spec)
    sys = assemble_system(model)
    stations = []
    for sid, (x, y, z) in {
        "TA": (3.5, 0.0, 1.0), "TB": (-3.5, 0.0, 1.0), "TC": (0.0, 1.8, 1.0),
        "TD": (3.5, -1.8, 1.0), "BA": (3.5, 0.0, -0.9), "BB": (-3.5, 0.0, -0.9),
        "BC": (0.0, -1.8, -0.9), "MA": (0.0, 1.8, 0.0),
    }.items():
        stations.append(Station(sid, np.array([x, y, z]), np.eye(3)))
    layout = SensorLayout(tuple(stations), {"T": ("TA", "TB", "TC", "TD"), "B": ("BA", "BB", "BC")})
    return model, sys, layout


def v_shape_program(freqs, amp=5e4, dur=8.0, rest=2.0):
    c, s = math.cos(math.radians(15)), math.sin(math.radians(15))
    points = (
        ForcePoint("a1", [-2.0, -1.0, 0.6], [c, s, 0.0], amp),
        ForcePoint("a2", [-2.0, 1.0, 0.6], [c, -s, 0.0], amp),
        ForcePoint("a3", [2.0, -1.0, 0.6], [c, -s, 0.0], amp),
        ForcePoint("a4", [2.0, 1.0, 0.6], [c, s, 0.0], amp),
    )
    return ExcitationProgram(
        kind="stepped", force_points=points,
        stepped=SteppedSpec(frequencies=freqs, duration_per_step=dur, rest_gap=rest),
        dof_excited="X",
    )


@pytest.fixture(scope="module")
def stepped_run(small_setup):
    model, sys, layout = small_setup
    freqs = (1.5, 2.5, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0)
    prog = v_shape_program(freqs)
    hist = integrate(sys, prog, dt=1.0 / 480)
    resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.0), output_rate=240.0)
    force = force_timeseries(prog, fs=512.0)
    policy = AnalysisPolicy(f_low=1.0, f_high=25.0, skip_cycles=6.0)
    return analyze(resp, force, prog, layout, policy), prog, sys, layout


@pytest.fixture(scope="module")
def split_run(small_setup):
    """Six dwells with sensor noise."""
    _, sys, layout = small_setup
    prog = v_shape_program((1.5, 3.0, 5.0, 8.0, 10.0, 12.0), dur=8.0, rest=1.0)
    hist = integrate(sys, prog, dt=1.0 / 480)
    resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.01, seed=133), output_rate=240.0)
    return resp, force_timeseries(prog, fs=512.0), prog, layout, AnalysisPolicy(skip_cycles=6.0)


@pytest.fixture(scope="module")
def noisy_sweep(small_setup):
    """A 1.5-13.5 Hz sweep with sensor noise."""
    _, sys, layout = small_setup
    prog = ExcitationProgram(
        kind="sweep", force_points=v_shape_program((1.0,)).force_points,
        sweep=SweepSpec(f0=1.5, f1=13.5, rate=0.5), dof_excited="X",
    )
    hist = integrate(sys, prog, dt=1.0 / 480)
    resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.01, seed=127), output_rate=240.0)
    return resp, force_timeseries(prog, fs=512.0), prog, layout, AnalysisPolicy()


class TestSteppedAnalysis:
    def test_frc_matches_steady_state(self, stepped_run):
        res, prog, sys, layout = stepped_run
        bf = prog.generalized_amplitude().astype(complex)
        for f, est in zip(res.frequencies, res.force_estimates):
            u6 = steady_state_response(sys, bf, 2 * math.pi * f)
            for st in layout.stations:
                truth = rigid_rows(st.position) @ u6
                for k, ax in enumerate("xyz"):
                    if abs(truth[k]) < 0.1 * np.max(np.abs(truth)):
                        continue
                    f_arr, u_arr = res.frc_stations.series(st.id, ax)
                    meas_mm = u_arr[np.argmin(np.abs(f_arr - f))]
                    scale = 6800.0 / est.resultant
                    assert meas_mm / 1e3 == pytest.approx(abs(truth[k]) * scale, rel=0.02)

    def test_displacement_phasor_matches_transfer_function(self, stepped_run):
        # u = -a/w^2 in sign and size: H = phasor / x force phasor on every
        # channel at >= 30 % of the strongest is within 5e-3 of the
        # steady-state transfer function at every dwell
        res, prog, sys, layout = stepped_run
        bf = prog.generalized_amplitude().astype(complex)
        for f, row, est in zip(res.frequencies, res.phasors, res.force_estimates):
            u6 = steady_state_response(sys, bf, 2 * math.pi * f)
            truth = np.array([
                rigid_rows(layout.station(sid).position)["xyz".index(ax)] @ u6 / bf[0]
                for sid, ax in res.channels
            ])
            gated = np.abs(truth) >= 0.3 * np.max(np.abs(truth))
            h = row[gated] / (est.generalized[0] * 1e3)
            assert np.max(np.abs(h / truth[gated] - 1.0)) <= 5e-3, f

    def test_response_rows_take_no_search_or_polish(self, split_run, record_io_processes, monkeypatch):
        # the force rows and the noisy response rows of every window go
        # through its one basis, all in this process, though three CPUs
        # would split the records' I/O
        record_io_processes(3)
        monkeypatch.setattr(timeseries, "_forked", lambda *args: pytest.fail("a window fit was forked"))
        res = analyze(*split_run)
        assert [est.frequency_hz for est in res.force_estimates] == list(res.frequencies)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("peak", [1e160, 1e303, 1e308])
    def test_force_fit_that_is_not_finite_raises(self, split_run, peak):
        # a force channel whose values overflow the fit's sums
        resp, force, prog, layout, policy = split_run
        values = force.values.copy()
        values[0] *= peak / np.abs(values[0]).max()
        with pytest.raises(FitError, match="force fit at 1.5 Hz is not finite"):
            analyze(resp, force.with_values(values), prog, layout, policy)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("response_window, force_window, match", [
        (0, 2, "force fit at 5.0 Hz is not finite"),
        (0, 0, "force fit at 1.5 Hz is not finite"),
        (2, None, "phasor of channel 'TA_x' at 5.0 Hz is not finite"),
    ])
    def test_first_window_with_a_fault_raises(self, split_run, response_window, force_window, match):
        # a channel whose values overflow its window's sums, in the response
        # and in the force: every force estimate comes before the response's
        # stream, so a force with a fault raises first, in any window
        resp, force, prog, layout, policy = split_run
        windows = analysis_windows(prog, policy)

        def overflow(record, w):
            _, t0, t1 = windows[w]
            span = timeseries.window_span(record, t0, t1)
            values = record.values.copy()
            values[0, span] = values[0, span] / np.abs(values[0, span]).max() * 1e308
            return record.with_values(values)

        if force_window is not None:
            force = overflow(force, force_window)
        with pytest.raises(FitError, match=match):
            analyze(overflow(resp, response_window), force, prog, layout, policy)

    def test_identify_reproduces_analysis(self, stepped_run):
        res, _, _, layout = stepped_run
        forces = [est.resultant for est in res.force_estimates]
        policy = AnalysisPolicy(f_low=1.0, f_high=25.0, skip_cycles=6.0)
        again = identify(res.frequencies, res.channels, res.phasors, forces, "X", layout, policy)
        assert again.frc_stations == res.frc_stations
        assert again.frc_rigid == res.frc_rigid
        assert again.damping == res.damping
        assert again.natural_frequency_hz == res.natural_frequency_hz
        assert again.force_estimates == ()

    def test_identify_ignores_the_channel_order(self, stepped_run):
        res, _, _, layout = stepped_run
        forces = [est.resultant for est in res.force_estimates]
        policy = AnalysisPolicy(f_low=1.0, f_high=25.0, skip_cycles=6.0)
        perm = np.random.default_rng(3).permutation(len(res.channels))
        shuffled = identify(
            res.frequencies, [res.channels[c] for c in perm], res.phasors[:, perm], forces, "X",
            layout, policy, strain_stations=("TA", "MA", "TB"),
        )
        again = identify(
            res.frequencies, res.channels, res.phasors, forces, "X",
            layout, policy, strain_stations=("TA", "MA", "TB"),
        )
        assert shuffled.channels == again.channels == res.channels
        for name in ("phasors", "rigid", "rigid_residual_rms", "contributions"):
            assert getattr(shuffled, name).tobytes() == getattr(again, name).tobytes()
        assert frc_to_csv(shuffled.frc_stations) == frc_to_csv(again.frc_stations)
        assert frc_to_csv(shuffled.frc_rigid) == frc_to_csv(again.frc_rigid)
        assert _rbm_csv(shuffled) == _rbm_csv(again)
        assert _contribution_csv(shuffled) == _contribution_csv(again)
        assert _deformation_figures(shuffled, layout) == _deformation_figures(again, layout)
        assert shuffled.damping == again.damping
        assert again.strain is not None and shuffled.strain == again.strain

    def test_force_estimate_matches_injected(self, stepped_run):
        # the V-shape actuator resultant must reproduce the generalized
        # force driving the integration
        res, prog, _, _ = stepped_run
        bf = prog.generalized_amplitude()
        expected_kn = abs(bf[0]) / 1e3
        for est in res.force_estimates:
            assert est.resultant == pytest.approx(expected_kn, rel=0.005)

    def test_rigid_motion_matches_direct_solution(self, stepped_run):
        res, prog, sys, _ = stepped_run
        bf = prog.generalized_amplitude().astype(complex)
        for f, delta in zip(res.frequencies, res.rigid):
            u6 = steady_state_response(sys, bf, 2 * math.pi * f)
            floor = 1e-3 * np.max(np.abs(u6))
            assert np.allclose(np.abs(delta), np.abs(u6), rtol=0.02, atol=floor)

    def test_contributions_near_100_for_rigid_model(self, stepped_run):
        res, *_ = stepped_run
        defined = res.contributions[~np.isnan(res.contributions)]
        assert defined.size > 0
        assert np.all(np.abs(defined - 100.0) <= 1.0)

    def test_peak_near_x_mode(self, stepped_run):
        res, *_ = stepped_run
        assert 6.0 <= res.natural_frequency_hz <= 9.0


def single_dwell(f, duration):
    return v_shape_program((f,), dur=duration, rest=1.0)


class TestAnalysisWindows:
    """A stepped window starts ``skip_cycles`` (2 by default) into its
    dwell and runs to the dwell's end, or ``max_window_s`` after it
    starts if that is sooner."""

    def test_long_dwell_capped_at_40s(self):
        assert analysis_windows(single_dwell(10.0, 60.0), AnalysisPolicy()) == [(10.0, 0.2, 40.2)]

    def test_short_dwell_capped_by_end(self):
        assert AnalysisPolicy().skip_cycles == 2.0
        assert analysis_windows(single_dwell(10.0, 3.0), AnalysisPolicy()) == [(10.0, 0.2, 3.0)]

    def test_too_short_dwell_raises(self):
        with pytest.raises(WindowError):
            analysis_windows(single_dwell(10.0, 0.2), AnalysisPolicy())

    def test_below_three_cycles_after_the_skip_raises(self):
        # 4.5 cycles, 2.5 of them after the skip
        with pytest.raises(WindowError, match="2.50 cycles"):
            analysis_windows(single_dwell(10.0, 0.45), AnalysisPolicy())

    def test_zero_skip_short_window_policy(self):
        policy = AnalysisPolicy(skip_cycles=0.0, max_window_s=2.0)
        assert analysis_windows(single_dwell(10.0, 30.0), policy) == [(10.0, 0.0, 2.0)]


def bundled_noise_free(name, **changes):
    """The bundled program ``name`` with its spec's ``changes``, simulated
    noise-free at the default rates: (response, force, program, layout,
    system)."""
    program = load_program(_load_text(f"default:{name}", "program"))
    spec = getattr(program, program.kind)
    return noise_free(replace(program, **{program.kind: replace(spec, **changes)}))


def noise_free(program):
    """``program`` simulated noise-free on the default model and layout at
    the default rates: (response, force, program, layout, system)."""
    layout = load_layout(_load_text("default", "layout"))
    sys = assemble_system(load_model(_load_text("default", "model")))
    hist = integrate(sys, program, dt=1.0 / (200.0 * math.ceil(40.0 * program.f_max / 200.0)))
    resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.0), output_rate=200.0)
    return resp, force_timeseries(program, fs=512.0), program, layout, sys


#: the bounds of the comparison of a bundled program with truth, each a
#: share of the window's largest channel or of the channel's own transfer
#: function
RIGID_RESIDUAL = 1e-3
H_ERROR = 1e-2


def assert_matches_the_steady_state_response(name: str) -> None:
    # the bundled program, noise-free at the default rates, the sweeps at
    # 0.4 Hz/s: on a rigid block the rigid-body fit leaves no residual, and
    # every channel at >= 30 % of the strongest reads the steady-state
    # transfer function over the measured force, in size and phase.
    # Measured: residuals at most 7e-15 of the largest channel, H errors at
    # most 6.6e-3 (stepped) and 7.2e-3 (sweeps); below 6 Hz at most 1.5e-3
    # on the stepped programs, where a rectangular fit at the force's phase
    # drift read 1.1e-2
    resp, force, program, layout, sys = bundled_noise_free(name, **({"rate": 0.4} if "sweep" in name else {}))
    res = analyze(resp, force, program, layout)
    assert list(res.frequencies) == [f for f, _, _ in analysis_windows(program, AnalysisPolicy())]
    excited = {"X": 0, "Y": 1, "Z": 2, "YAW": 5}[res.dof_excited]
    bf = program.generalized_amplitude().astype(complex)
    A = rigid_map(res.channels, layout)
    for f, row, residual, est in zip(res.frequencies, res.phasors, res.rigid_residual_rms, res.force_estimates):
        assert residual <= RIGID_RESIDUAL * np.max(np.abs(row)), f
        truth = A @ steady_state_response(sys, bf, 2 * math.pi * f) / bf[excited]
        gated = np.abs(truth) >= 0.3 * np.max(np.abs(truth))
        h = row[gated] / (est.generalized[excited] * 1e3)
        assert np.max(np.abs(h / truth[gated] - 1.0)) <= H_ERROR, f


class TestSweepAnalysis:
    def test_force_record_that_ends_inside_a_window_raises(self, noisy_sweep):
        # the force record ends 1.5 cycles into the last window, whose
        # clipped Hann window would be projected all the same
        resp, force, prog, layout, policy = noisy_sweep
        f, t0, _ = analysis_windows(prog, policy)[-1]
        cut = int((t0 + 1.5 / f - force.start_time) * force.sample_rate)
        short = force.with_values(force.values[:, :cut])
        with pytest.raises(ForceEstimationError, match="channel 'a1'.*does not cover the window"):
            analyze(resp, short, prog, layout, policy)

    def test_response_record_that_starts_inside_a_window_raises(self, noisy_sweep):
        resp, force, prog, layout, policy = noisy_sweep
        # the response record starts half a second into the first window
        _, t0, _ = analysis_windows(prog, policy)[0]
        late = extract_window(resp, t0 + 0.5, resp.end_time)
        with pytest.raises(FitError, match="does not cover the window"):
            analyze(late, force, prog, layout, policy)

    @pytest.mark.parametrize("dof", ["x", "y", "z", "yaw"])
    def test_bundled_sweep_matches_the_steady_state_response(self, dof):
        assert_matches_the_steady_state_response(f"sweep_{dof}")

    def test_windows_inside_run(self, small_setup):
        prog = ExcitationProgram(
            kind="sweep",
            force_points=(ForcePoint("a", [0, 0, 0.5], [1, 0, 0], 5e4),),
            sweep=SweepSpec(f0=2.0, f1=12.0, rate=0.25),
            dof_excited="X",
        )
        wins = analysis_windows(prog, AnalysisPolicy())
        assert all(0.0 <= t0 < t1 <= prog.sweep.duration for _, t0, t1 in wins)
        freqs = [w[0] for w in wins]
        assert freqs == sorted(freqs)

    def test_linearity_of_scaled_sweeps(self, small_setup):
        model, sys, layout = small_setup
        prog1 = ExcitationProgram(
            kind="sweep",
            force_points=(ForcePoint("a", [0.0, 0.0, 0.6], [1.0, 0.0, 0.0], 4e4),),
            sweep=SweepSpec(f0=1.0, f1=12.0, rate=0.4),
            dof_excited="X",
        )
        prog4 = prog1.scaled(4.0)
        results = []
        for prog in (prog1, prog4):
            hist = integrate(sys, prog, dt=1.0 / 480)
            resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.0), output_rate=240.0)
            force = force_timeseries(prog, fs=512.0)
            results.append(analyze(resp, force, prog, layout, AnalysisPolicy()))
        rms = linearity_rms(results[0].frc_stations, results[1].frc_stations, exclude_below=2.0)
        assert rms < 1e-6

    def test_sweep_amplitudes_track_steady_state(self, small_setup):
        model, sys, layout = small_setup
        prog = ExcitationProgram(
            kind="sweep",
            force_points=(ForcePoint("a", [0.0, 0.0, 0.6], [1.0, 0.0, 0.0], 4e4),),
            sweep=SweepSpec(f0=1.0, f1=12.0, rate=0.2),
            dof_excited="X",
        )
        hist = integrate(sys, prog, dt=1.0 / 480)
        resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.0), output_rate=240.0)
        force = force_timeseries(prog, fs=512.0)
        res = analyze(resp, force, prog, layout, AnalysisPolicy())
        bf = prog.generalized_amplitude().astype(complex)
        for f, est in zip(res.frequencies, res.force_estimates):
            if f < 3.0:   # sweep start transient region
                continue
            truth = abs(steady_state_response(sys, bf, 2 * math.pi * f)[0])
            f_arr, u_arr = res.frc_rigid.series("rbm", "dx")
            meas = u_arr[np.argmin(np.abs(f_arr - f))] / 1e3
            scale = 6800.0 / est.resultant
            assert meas == pytest.approx(truth * scale, rel=0.05)


class TestBundledPrograms:
    """Every bundled program, noise-free at the default rates, against the
    steady-state response (the sweeps' in :class:`TestSweepAnalysis`)."""

    @pytest.mark.parametrize("dof", ["x", "y", "z", "yaw"])
    def test_bundled_stepped_matches_the_steady_state_response(self, dof):
        assert_matches_the_steady_state_response(f"stepped_{dof}")

    def test_drive_off_its_nominal_frequency_moves_the_frc_little(self):
        # records of a stepped program whose drive runs 100 ppm fast, read
        # as the nominal program: every FRC point moves by less than 1e-3
        # of the curve's peak from the nominal records' reading (measured
        # 2.5e-4)
        changes = dict(frequencies=(2.0, 4.0, 7.0, 9.5, 11.0, 14.0), duration_per_step=8.0, rest_gap=2.0)
        resp, force, program, layout, _ = bundled_noise_free("stepped_x", **changes)
        nominal = analyze(resp, force, program, layout)
        fast = replace(program, stepped=replace(program.stepped, frequencies=tuple(
            f * (1.0 + 1e-4) for f in program.stepped.frequencies
        )))
        resp, force, *_ = noise_free(fast)
        off = analyze(resp, force, program, layout)
        for frc in ("frc_stations", "frc_rigid"):
            u0, u1 = getattr(nominal, frc).u_mm, getattr(off, frc).u_mm
            assert np.max(np.abs(u1 - u0)) < 1e-3 * np.max(u0), frc


class TestWindowFitWorkers:
    """Sweep windows are estimated in this process however many CPUs are
    usable: the error of a window the force record does not cover is the
    one-process error, and no worker is forked."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_error_in_a_worker_window_matches_one_process(self, noisy_sweep, record_io_processes, n):
        resp, force, prog, layout, policy = noisy_sweep
        # the force record ends 1.5 cycles into the last window
        f, t0, _ = analysis_windows(prog, policy)[-1]
        cut = int((t0 + 1.5 / f - force.start_time) * force.sample_rate)
        short = force.with_values(force.values[:, :cut])
        record_io_processes(1)
        with pytest.raises(ForceEstimationError, match="channel 'a1'") as serial:
            analyze(resp, short, prog, layout, policy)
        forks = record_io_processes(n)
        with pytest.raises(ForceEstimationError) as split:
            analyze(resp, short, prog, layout, policy)
        assert str(split.value) == str(serial.value)
        assert forks == []


@pytest.fixture(scope="module")
def long_stepped():
    """The bundled stepped X program at its full length (441 s, 21 dwells
    with 5 s rests), noise-free."""
    return bundled_noise_free("stepped_x")


def spied_projections(monkeypatch) -> list[list[tuple[int, int]]]:
    """The (first sample, samples) of the kernels of each call of
    :func:`~vibroident.dsp.project_blocks` from here on."""
    calls = []
    project = dsp.project_blocks

    def spy(record, kernels):
        calls.append([(a, len(k)) for a, k in kernels])
        return project(record, kernels)

    monkeypatch.setattr(dsp, "project_blocks", spy)
    return calls


class TestKernelCut:
    """Each window's filtered kernel is kept on a cut support, and a window
    whose cut could have dropped more than its bound is projected again
    with its whole kernel."""

    def test_kernels_cover_under_half_of_a_long_record(self, long_stepped, monkeypatch):
        # measured 0.107 of the record, per window on average
        resp, force, program, layout, _ = long_stepped
        calls = spied_projections(monkeypatch)
        analyze(resp, force, program, layout)
        assert len(calls) == 1, "a noise-free bundled record needs no second pass"
        assert sum(m for _, m in calls[0]) / (len(calls[0]) * resp.samples) < 0.5

    def test_spike_far_from_a_window_is_read_again_by_its_whole_kernel(self, long_stepped, monkeypatch):
        # one 1e9 cell in the rest gap after the 10 Hz dwell: every window
        # more than 30 s from it is projected again with its whole kernel,
        # and its phasors are those of the record filtered by filtfilt and
        # projected by hann_basis.  The two paths round apart by up to
        # 2.4e-15 of the window's largest phasor on this record, 2.0e-15
        # from the whole kernel applied in one product
        resp, force, program, layout, _ = long_stepped
        policy = AnalysisPolicy()
        schedule = list(program.stepped.schedule())
        spike_t = 0.5 * (schedule[10][1] + schedule[11][0])
        i = round((spike_t - resp.start_time) * resp.sample_rate)
        values = resp.values.copy()
        values[0, i] = 1e9
        spiked = resp.with_values(values)
        calls = spied_projections(monkeypatch)
        res = analyze(spiked, force, program, layout, policy)

        coeffs = dsp.design_bandpass(policy.filter_order, policy.f_low, policy.f_high, resp.sample_rate)
        filtered = dsp.filtfilt(coeffs, spiked)
        order = [spiked.labels.index(f"{sid}_{axis}") for sid, axis in res.channels]
        far = [j for j, (_, t0, t1) in enumerate(analysis_windows(program, policy)) if t1 < spike_t - 30 or t0 > spike_t + 30]
        # the second pass takes every window whose support misses the spike
        missed = [j for j, (first, m) in enumerate(calls[0]) if not first <= i < first + m]
        assert len(far) >= 10 and set(far) <= set(missed) and len(calls) == 2
        assert calls[1] == [(0, resp.samples)] * len(missed)
        for j in far:
            f, t0, t1 = analysis_windows(program, policy)[j]
            window = extract_window(filtered, t0, t1)
            t = window.times()
            omega = 2 * math.pi * f
            basis = dsp.hann_basis(t, program.drive(t), omega, t0, t1)
            uncut = (-basis.phasors(window.values) / dsp.filter_gain(coeffs, f) ** 2 / omega**2)[order]
            assert np.max(np.abs(res.phasors[j] - uncut)) <= 5e-15 * np.max(np.abs(uncut)), f


class TestChannelBlocks:
    """Each window's filtered kernel is applied to each raw channel row
    alone: a block of the channels gets the same bits as the whole record."""

    @pytest.mark.parametrize("name, changes", [
        ("stepped_x", dict(frequencies=(2.0, 4.0, 7.0, 9.5, 11.0, 14.0), duration_per_step=8.0, rest_gap=2.0)),
        ("sweep_yaw", dict(rate=0.4)),
    ])
    def test_channel_subset_changes_no_bit(self, name, changes):
        resp, force, program, layout, _ = bundled_noise_free(name, **changes)
        whole = analyze(resp, force, program, layout)
        # every other channel, from the second on
        keep = slice(1, None, 2)
        subset = replace(resp, values=resp.values[keep], labels=resp.labels[keep], units=resp.units[keep])
        part = analyze(subset, force, program, layout)
        assert 6 < len(part.channels) < len(whole.channels)
        for c, key in enumerate(part.channels):
            column = whole.phasors[:, whole.channels.index(key)]
            assert part.phasors[:, c].tobytes() == column.tobytes()
        for est, ref in zip(part.force_estimates, whole.force_estimates, strict=True):
            assert est.generalized.tobytes() == ref.generalized.tobytes()

    def test_peak_within_the_kept_kernels_and_twelve_rows(self, monkeypatch):
        # the benchmark's stepped X record (30 cycles per step, 0.5 s rests;
        # 87 x 24,796): analyze's traced peak is the kernels it keeps on
        # their cut supports (13.0 rows of the record) and one window's
        # kernel being filtered and cut with its scratch (8.6 rows more);
        # filtered copies of a few channels held beside them would pass
        # 12 rows more
        resp, force, program, layout, _ = bundled_noise_free(
            "stepped_x", duration_per_step=None, cycles_per_step=30.0, rest_gap=0.5
        )
        n = resp.values.shape[1]
        analyze(resp, force, program, layout)   # once untraced: caches, such as the filter's operators
        calls = spied_projections(monkeypatch)
        tracemalloc.start()
        try:
            analyze(resp, force, program, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n > 20_000 and len(calls) == 1
        kept = 2 * 8 * sum(m for _, m in calls[0])
        assert peak < kept + 12 * n * 8, f"peak {(peak - kept) / (8 * n):.1f} rows beside the kernels"

    def test_analyze_holds_no_filtered_copy(self, small_setup):
        # a 60-channel x 60,000-sample record (29 MB), several times the
        # filter's block scratch: analyze's peak traced allocation stays
        # below half of it, where a filtered copy alone is all of it
        _, sys, _ = small_setup
        rng = np.random.default_rng(11)
        positions = rng.uniform([-4.0, -2.0, -1.0], [4.0, 2.0, 1.0], size=(20, 3))
        layout = SensorLayout(tuple(Station(f"S{i}", p, np.eye(3)) for i, p in enumerate(positions)), {})
        prog = v_shape_program((2.0, 3.0, 6.0, 7.5, 8.0, 8.5, 11.0), dur=38.0, rest=4.0)
        rate = 200.0
        t = np.arange(60_000) / rate
        bf = prog.generalized_amplitude().astype(complex)
        accel = np.zeros((60, t.size))
        for t_on, t_off, f in prog.stepped.schedule():
            w = 2 * math.pi * f
            on = (t >= t_on) & (t < t_off)
            u6 = steady_state_response(sys, bf, w)
            phasor = np.concatenate([rigid_rows(p) @ u6 for p in positions])
            accel[:, on] = (-w * w * phasor[:, None] * np.exp(1j * w * t[on])).imag
        labels = tuple(f"S{i}_{axis}" for i in range(20) for axis in "xyz")
        resp = timeseries.TimeSeriesSet(0.0, rate, accel, labels, ("m/s^2",) * 60)
        force = force_timeseries(prog, fs=512.0)
        tracemalloc.start()
        try:
            res = analyze(resp, force, prog, layout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(res.frequencies) == list(prog.stepped.frequencies)
        assert peak < 0.5 * resp.values.nbytes, f"peak {peak / 1e6:.1f} MB of a {resp.values.nbytes / 1e6:.1f} MB record"
