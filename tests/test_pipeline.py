import math

import numpy as np
import pytest

from vibroident import dsp
from vibroident.errors import ForceEstimationError, VibroidentError, WindowError
from vibroident.cli import _contribution_csv, _deformation_figures, _rbm_csv
from vibroident.modal import frc_to_csv, linearity_rms, rigid_rows
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
    sensor_kinematics,
    steady_state_response,
)
from vibroident.timeseries import SensorLayout, Station


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
    """Six dwells with sensor noise.  Split over two or three processes,
    the last window (12 Hz) belongs to a forked worker."""
    _, sys, layout = small_setup
    prog = v_shape_program((1.5, 3.0, 5.0, 8.0, 10.0, 12.0), dur=8.0, rest=1.0)
    hist = integrate(sys, prog, dt=1.0 / 480)
    resp = sensor_kinematics(hist, layout, NoiseSpec(rms=0.01, seed=133), output_rate=240.0)
    return resp, force_timeseries(prog, fs=512.0), prog, layout, AnalysisPolicy(skip_cycles=6.0)


@pytest.fixture
def starved_last_window(monkeypatch):
    """Response fits of the 12 Hz window get 3 polish iterations: the fit of
    BB_y there needs 5, so it is the one fit of ``split_run`` that does not
    converge.  Forked workers inherit the patch."""
    fit_sines = dsp.fit_sines

    def starved(t, U, f, max_iter=dsp.MAX_ITER):
        return fit_sines(t, U, f, 3 if f == 12.0 else max_iter)

    monkeypatch.setattr(dsp, "fit_sines", starved)


def analysis_outcome(resp, force, prog, layout, policy):
    """Every array of the fitted windows as bytes, or the error raised."""
    try:
        res = analyze(resp, force, prog, layout, policy)
    except VibroidentError as exc:
        return type(exc), str(exc)
    forces = [
        (est.frequency_hz, est.component_phasors.tobytes(), np.complex128(est.torque_z_phasor).tobytes())
        for est in res.force_estimates
    ]
    return res.phasors.tobytes(), res.rigid.tobytes(), forces, res.unconverged


class TestWindowFitWorkers:
    """The windows fitted over forked workers give, byte for byte, the
    one-process result or error."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_split_matches_one_process(self, split_run, record_io_processes, starved_last_window, n):
        record_io_processes(1)
        serial = analysis_outcome(*split_run)
        assert serial[3] == ((12.0, "BB_y"),) and len(serial[2]) == 6
        forks = record_io_processes(n)
        assert analysis_outcome(*split_run) == serial
        assert len(forks) == n - 1

    @pytest.mark.parametrize("fault", ["exit_1_after_all_bytes", "exit_1_after_half", "sigkill"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_failed_worker_gives_the_one_process_result(
        self, split_run, record_io_processes, failing_workers, starved_last_window, fault, n
    ):
        record_io_processes(1)
        serial = analysis_outcome(*split_run)
        failing_workers(fault)
        forks = record_io_processes(n)
        assert analysis_outcome(*split_run) == serial
        assert len(forks) == n - 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_error_in_a_worker_window_matches_one_process(self, split_run, record_io_processes, n):
        resp, force, prog, layout, policy = split_run
        # the force record ends 1.5 cycles into the last window
        _, t0, _ = analysis_windows(prog, policy)[-1]
        cut = int((t0 + 1.5 / 12.0 - force.start_time) * force.sample_rate)
        short = force.with_values(force.values[:, :cut])
        record_io_processes(1)
        serial = analysis_outcome(resp, short, prog, layout, policy)
        assert serial[0] is ForceEstimationError and "channel 'a1'" in serial[1]
        forks = record_io_processes(n)
        assert analysis_outcome(resp, short, prog, layout, policy) == serial
        assert len(forks) == n - 1


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
        # u = -a/w^2 in sign and size: displacement over the x force is the
        # complex transfer function of the steady-state solution.  Magnitudes
        # agree within 0.6 %; the 1.5 Hz window, six cycles after the dwell
        # starts, lags by 0.02 rad, hence 2.5 % on the complex difference
        res, prog, sys, layout = stepped_run
        bf = prog.generalized_amplitude().astype(complex)
        column = {key: c for c, key in enumerate(res.channels)}
        for f, row, est in zip(res.frequencies, res.phasors, res.force_estimates):
            u6 = steady_state_response(sys, bf, 2 * math.pi * f)
            fx_n = est.component_phasors[0] * 1e3
            truth = {st.id: rigid_rows(st.position) @ u6 / bf[0] for st in layout.stations}
            peak = max(np.max(np.abs(h)) for h in truth.values())
            for sid, h in truth.items():
                for k, ax in enumerate("xyz"):
                    if abs(h[k]) < 0.1 * peak:
                        continue
                    measured = row[column[(sid, ax)]] / fx_n
                    assert abs(measured - h[k]) <= 0.025 * abs(h[k])

    def test_identify_reproduces_analysis(self, stepped_run):
        res, _, _, layout = stepped_run
        forces = [est.resultant for est in res.force_estimates]
        policy = AnalysisPolicy(f_low=1.0, f_high=25.0, skip_cycles=6.0)
        again = identify(res.frequencies, res.channels, res.phasors, forces, "X", layout, policy)
        assert again.frc_stations == res.frc_stations
        assert again.frc_rigid == res.frc_rigid
        assert again.damping == res.damping
        assert again.natural_frequency_hz == res.natural_frequency_hz
        assert again.force_estimates == () and again.unconverged == ()

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
    def test_long_dwell_capped_at_40s(self):
        assert analysis_windows(single_dwell(10.0, 60.0), AnalysisPolicy()) == [(10.0, 1.0, 41.0)]

    def test_short_dwell_capped_by_end(self):
        assert analysis_windows(single_dwell(10.0, 3.0), AnalysisPolicy()) == [(10.0, 1.0, 3.0)]

    def test_too_short_dwell_raises(self):
        with pytest.raises(WindowError):
            analysis_windows(single_dwell(10.0, 0.5), AnalysisPolicy())

    def test_zero_skip_short_window_policy(self):
        policy = AnalysisPolicy(skip_cycles=0.0, max_window_s=2.0)
        assert analysis_windows(single_dwell(10.0, 30.0), policy) == [(10.0, 0.0, 2.0)]


class TestSweepAnalysis:
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
