import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import hann_phasors
from vibroident.cli import _load_text
from vibroident.dsp import hann_basis
from vibroident.errors import (
    BuildError,
    ComparisonError,
    DomainError,
    ForceEstimationError,
    GeometryError,
    InfinityError,
    NormalizationError,
    RankError,
)
from vibroident.modal import (
    AXIS_ROW,
    DEFAULT_XI_GRID,
    FrequencyResponseCurve,
    amplification_factor,
    build_frc,
    curvature_strain,
    estimate_damping,
    estimate_force_amplitude,
    fit_rigid_body,
    frc_from_csv,
    frc_peak,
    frc_to_csv,
    linearity_rms,
    rbm_contribution,
    rd_curve,
    rigid_map,
    rigid_rows,
)
from vibroident.pipeline import AnalysisPolicy, analysis_windows
from vibroident.simulator import assemble_system, load_model, load_program, steady_state_response
from vibroident.simulator.model import influence_matrix
from vibroident.timeseries import SensorLayout, Station, TimeSeriesSet, load_layout


def force_set(channels, fs=512.0, dur=10.0):
    t = np.arange(int(fs * dur) + 1) / fs
    values = [amp * np.sin(2 * np.pi * f * t + ph) for amp, f, ph in channels.values()]
    return TimeSeriesSet(0.0, fs, values, tuple(channels), ("kN",) * len(channels))


def at_f(t):
    """The window's basis on the samples ``t``: the Hann projection at
    8 Hz over all of them, relative to a unit sine at 8 Hz."""
    w = 2 * math.pi * 8.0
    return hann_basis(t, np.sin(w * t), w, t[0], t[-1])


def force_phasors(force):
    """Every channel's phasor through :func:`at_f`'s basis on the record."""
    return hann_phasors(at_f(force.times()), force.values)


class TestForceAmplitude:
    def test_aligned_channels_sum(self):
        chans = {f"a{i}": (100.0, 8.0, 0.0) for i in range(4)}
        geo = {f"a{i}": ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) for i in range(4)}
        force = force_set(chans)
        est = estimate_force_amplitude(force.labels, force_phasors(force), geo, 8.0)
        assert est.resultant == pytest.approx(400.0, rel=1e-9)
        assert est.torque == pytest.approx(0.0, abs=1e-9)

    def test_zero_force_reads_zero(self):
        chans = {f"a{i}": (0.0, 8.0, 0.0) for i in range(2)}
        geo = {f"a{i}": ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) for i in range(2)}
        force = force_set(chans)
        est = estimate_force_amplitude(force.labels, force_phasors(force), geo, 8.0)
        assert est.resultant == 0.0 and est.torque == 0.0

    def test_pure_couple(self):
        chans = {"e": (100.0, 8.0, 0.0), "w": (100.0, 8.0, math.pi)}
        geo = {
            "e": ([5.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            "w": ([-5.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
        }
        force = force_set(chans)
        est = estimate_force_amplitude(force.labels, force_phasors(force), geo, 8.0)
        assert est.resultant == pytest.approx(0.0, abs=1e-6)
        assert est.torque == pytest.approx(1000.0, rel=1e-9)

    def test_missing_channel(self):
        chans = {"a0": (100.0, 8.0, 0.0)}
        geo = {"a1": ([0, 0, 0], [1, 0, 0])}
        force = force_set(chans)
        with pytest.raises(ForceEstimationError, match="force channel 'a1' missing"):
            estimate_force_amplitude(force.labels, force_phasors(force), geo, 8.0)

    def test_generalized_force_matches_the_lever_arm_sums(self):
        # the force path before the one map, kept as the reference: the
        # channels' force vectors summed, the torque about z from their
        # x/y lever arms, and the moments about x and y by np.cross
        rng = np.random.default_rng(12)
        chans = {f"a{i}": (rng.uniform(50.0, 150.0), 8.0, rng.uniform(-3.0, 3.0)) for i in range(6)}
        geo = {}
        for label in chans:
            d = rng.normal(size=3)
            geo[label] = (rng.uniform(-8.0, 8.0, 3), d / np.linalg.norm(d))
        force = force_set(chans)
        phasors = force_phasors(force)
        est = estimate_force_amplitude(force.labels, phasors, geo, 8.0)
        components, torque, moment = np.zeros(3, dtype=complex), 0.0 + 0.0j, np.zeros(3, dtype=complex)
        for phasor, (position, direction) in zip(phasors, geo.values()):
            fvec = phasor * direction
            components += fvec
            torque += position[0] * fvec[1] - position[1] * fvec[0]
            moment += np.cross(position, fvec)
        assert np.all(np.abs(est.generalized[:3] - components) <= 1e-15 * np.max(np.abs(components)))
        assert abs(est.generalized[5] - torque) <= 1e-15 * abs(torque)
        assert np.all(np.abs(est.generalized[3:] - moment) <= 1e-15 * np.max(np.abs(moment)))
        assert est.resultant == np.linalg.norm(np.abs(components)) and est.torque == abs(est.generalized[5])


class TestBuildFrc:
    def test_double_scale(self):
        frc = build_frc([10.0], [("S1", "x")], [[0.1e-3]], [3400.0], f_ref=6800.0)
        assert frc.points[0].u_scaled_mm == pytest.approx(0.2)

    def test_identity_scale(self):
        frc = build_frc([10.0], [("S1", "x")], [[0.1e-3]], [6800.0], f_ref=6800.0)
        assert frc.points[0].u_scaled_mm == pytest.approx(0.1)

    def test_missing_force_rejected(self):
        with pytest.raises(BuildError):
            build_frc([10.0], [("S1", "x")], [[1e-4]], [], f_ref=6800.0)

    def test_non_positive_force_rejected(self):
        with pytest.raises(BuildError):
            build_frc([10.0], [("S1", "x")], [[1e-4]], [0.0], f_ref=6800.0)

    def test_group_average(self):
        layout = SensorLayout(
            stations=(
                Station("S1", np.array([1.0, 0, 0]), np.eye(3)),
                Station("S2", np.array([-1.0, 0, 0]), np.eye(3)),
            ),
            groups={"T1": ("S1", "S2")},
        )
        frc = build_frc(
            [10.0], [("S1", "x"), ("S2", "x")], [[1.0e-3, 3.0e-3]], [6800.0],
            f_ref=6800.0, layout=layout,
        )
        _, u = frc.series("T1", "x")
        assert u[0] == pytest.approx(2.0)

    def test_csv_roundtrip(self):
        frc = build_frc(
            [5.0, 10.0], [("S1", "x"), ("S1", "z")], [[1e-4, 2e-4], [3e-4, 1e-4]],
            [3000.0, 3100.0], f_ref=6800.0, dof_excited="Y",
        )
        again = frc_from_csv(frc_to_csv(frc))
        assert again.dof_excited == "Y"
        assert again.points == frc.points
        assert again.keys == frc.keys and again.f_ref == frc.f_ref
        for name in ("frequencies", "u_mm", "f_measured"):
            assert np.array_equal(getattr(again, name), getattr(frc, name))

    def test_series_are_read_only_columns_by_key(self):
        frc = FrequencyResponseCurve(
            [3.0, 6.0, 8.0], [("S2", "x"), ("S1", "z")], [[1.0, 2.0], [3.0, 5.0], [4.0, 6.0]],
            [1.0, 1.5, 2.0], 1.0,
        )
        f, u = frc.series("S2", "x")
        assert f.tolist() == [3.0, 6.0, 8.0] and u.tolist() == [1.0, 3.0, 4.0]
        assert not f.flags.writeable and not u.flags.writeable
        with pytest.raises(KeyError):
            frc.series("S1", "x")
        picked = frc.select([("S1", "z")])
        assert picked.keys == (("S1", "z"),) and picked.u_mm.tolist() == [[2.0], [5.0], [6.0]]
        # frequency-major, then key order: the rows of frc.csv
        assert [(p.f_hz, p.id, p.u_scaled_mm, p.f_measured) for p in frc.points][:3] == [
            (3.0, "S2", 1.0, 1.0), (3.0, "S1", 2.0, 1.0), (6.0, "S2", 3.0, 1.5),
        ]

    @pytest.mark.parametrize("freqs", [[3.0, 3.0], [6.0, 3.0]])
    def test_frequencies_must_strictly_increase(self, freqs):
        with pytest.raises(BuildError):
            FrequencyResponseCurve(freqs, [("S1", "x")], [[1.0], [2.0]], [1.0, 1.0], 1.0)

    def test_points_equal_the_per_frequency_dict_loop_bit_for_bit(self):
        # reference: the FRC as first written, one python float and one
        # group list per frequency, over dicts keyed by (station, axis)
        rng = np.random.default_rng(4)
        for _ in range(20):
            ids = [f"S{i}" for i in range(30)]
            layout = SensorLayout(
                tuple(Station(sid, rng.uniform(-9, 9, 3), np.eye(3)) for sid in ids),
                {f"G{g}": tuple(rng.choice(ids, size=rng.integers(1, 25))) for g in range(4)},
            )
            channels = sorted((sid, a) for sid in ids for a in "xyz" if rng.random() < 0.8)
            freqs = np.sort(rng.uniform(0.5, 20.0, 21))
            amps = rng.uniform(1e-6, 1e-3, (len(freqs), len(channels)))
            forces = rng.uniform(1e3, 5e3, len(freqs))
            frc = build_frc(freqs, channels, amps, forces, 6800.0, layout=layout)
            ref = []
            for f, fm, row in zip(freqs, forces, amps):
                by_group = {}
                for key, u_m in zip(channels, row.tolist()):
                    u_mm = u_m * 1e3 * (6800.0 / float(fm))
                    ref.append((f, *key, u_mm))
                    for gname, members in layout.groups.items():
                        if key[0] in members:
                            by_group.setdefault((gname, key[1]), []).append(u_mm)
                ref += [(f, *key, float(np.mean(v))) for key, v in sorted(by_group.items())]
            assert [(p.f_hz, p.id, p.axis, p.u_scaled_mm) for p in frc.points] == ref

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_joint_scaling_invariance(self, s):
        amps = np.array([[1e-4], [4e-4], [2e-4]])
        forces = np.array([3000.0, 3200.0, 2900.0])
        freqs = [5.0, 8.0, 12.0]
        frc1 = build_frc(freqs, [("S1", "x")], amps, forces, 6800.0)
        frc2 = build_frc(freqs, [("S1", "x")], s * amps, s * forces, 6800.0)
        for p1, p2 in zip(frc1.points, frc2.points):
            assert p2.u_scaled_mm == pytest.approx(p1.u_scaled_mm, rel=1e-12)


def station_grid():
    pts = []
    for x in (-10.0, 0.0, 10.0):
        for y in (-4.0, 4.0):
            for z in (-2.0, 2.0):
                pts.append(np.array([x, y, z]))
    return pts


def station_layout(positions, axes=None):
    return SensorLayout(tuple(
        Station(f"S{i}", p, np.eye(3) if axes is None else axes[i]) for i, p in enumerate(positions)
    ))


def all_channels(layout):
    return [(st.id, a) for st in layout.stations for a in "xyz"]


def synthesize(positions, delta):
    """Channels, channel map and the one-frequency phasor row of a rigid
    motion, each station's reading taken from its own 3x6 map."""
    layout = station_layout(positions)
    channels = all_channels(layout)
    row = np.concatenate([rigid_rows(p) @ delta for p in positions])
    return channels, rigid_map(channels, layout), row[None, :]


def yaw_axes(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRigidBody:
    def test_rigid_rows_of_one_point_and_of_a_stack(self):
        points = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 0.5]])
        maps = [
            [[1, 0, 0, 0, 3, -2], [0, 1, 0, -3, 0, 1], [0, 0, 1, 2, -1, 0]],
            [[1, 0, 0, 0, 0.5, 0], [0, 1, 0, -0.5, 0, -4], [0, 0, 1, 0, 4, 0]],
        ]
        assert np.array_equal(rigid_rows(points[0]), maps[0])
        assert np.array_equal(rigid_rows(points), maps)
        # the rows of influence_matrix along x, y and z, value for value
        stack = np.random.default_rng(4).uniform(-20.0, 20.0, (50, 3))
        assert np.array_equal(rigid_rows(stack), influence_matrix(stack[:, None, :], np.eye(3)))

    def test_rigid_map_rows_follow_the_station_axes(self):
        rng = np.random.default_rng(5)
        positions = station_grid()
        axes = [yaw_axes(rng.uniform(-1, 1)) for _ in positions]
        layout = station_layout(positions, axes)
        channels = [(st.id, a) for st in reversed(layout.stations) for a in "zxy"]
        A = rigid_map(channels, layout)
        for (sid, a), row in zip(channels, A):
            st = layout.station(sid)
            assert np.allclose(row, st.axes["xyz".index(a)] @ rigid_rows(st.position), rtol=0, atol=1e-15)
        # identity axes give the rows of rigid_rows exactly
        plain = station_layout(positions)
        assert np.array_equal(
            rigid_map(all_channels(plain), plain), rigid_rows(np.array(positions)).reshape(-1, 6)
        )

    def test_pure_translation(self):
        delta = np.array([1e-4 + 2e-5j, 0, 0, 0, 0, 0], dtype=complex)
        _, A, X = synthesize(station_grid(), delta)
        fitted, residual = fit_rigid_body(A, X)
        assert fitted.shape == (1, 6) and residual.shape == (1,)
        assert np.allclose(fitted[0], delta, atol=1e-18)
        assert residual[0] < 1e-18

    def test_small_yaw(self):
        # v_i = (-y, x, 0) * 1e-5 is exactly a 1e-5 rad rotation about z
        theta = 1e-5
        positions = station_grid()
        layout = station_layout(positions)
        X = np.array([[c for p in positions for c in (-p[1] * theta, p[0] * theta, 0.0)]], dtype=complex)
        fitted, _ = fit_rigid_body(rigid_map(all_channels(layout), layout), X)
        assert fitted[0, 5].real == pytest.approx(theta, rel=1e-12)
        assert np.max(np.abs(np.delete(fitted[0], 5))) < 1e-17

    def test_rotated_station_axes_are_used(self):
        # T1C of the bundled layout turned 0.5 rad about z: its x and y
        # channels read the motion along the turned axes, as the sensor
        # kinematics write them, and the fit must return u6 exactly
        base = load_layout(_load_text("default", "layout"))
        layout = SensorLayout(
            tuple(Station(st.id, st.position, yaw_axes(0.5) if st.id == "T1C" else st.axes) for st in base.stations),
            base.groups,
        )
        program = load_program(_load_text("default:stepped_x", "program"))
        sys_m = assemble_system(load_model(_load_text("default", "model")))
        bf = program.generalized_amplitude().astype(complex)
        u6 = np.array([
            steady_state_response(sys_m, bf, 2 * math.pi * f)
            for f, _, _ in analysis_windows(program, AnalysisPolicy())
        ])
        channels = all_channels(layout)
        X = np.array([
            [layout.station(sid).axes["xyz".index(a)] @ rigid_rows(layout.station(sid).position) @ u for sid, a in channels]
            for u in u6
        ])
        fitted, residual = fit_rigid_body(rigid_map(channels, layout), X)
        err = np.max(np.abs(fitted - u6), axis=1) / np.max(np.abs(u6), axis=1)
        assert np.max(err) < 1e-12
        assert np.max(residual / np.max(np.abs(X), axis=1)) < 1e-12

    def test_orthogonal_deformation_goes_to_residual(self):
        # deformation constructed in the orthogonal complement of the 6
        # rigid basis vectors leaves the fit untouched and lands in the
        # residual with its full norm
        rng = np.random.default_rng(21)
        positions = station_grid()
        layout = station_layout(positions)
        A = np.vstack([rigid_rows(p) for p in positions])
        q, _ = np.linalg.qr(A)
        raw = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        deform = raw - q @ (q.conj().T @ raw)
        deform *= 1e-5 / np.linalg.norm(deform)

        delta = np.array([2e-4, -1e-4, 5e-5, 1e-5, -2e-5, 3e-5], dtype=complex)
        noisy = A @ delta + deform
        fitted, residual = fit_rigid_body(rigid_map(all_channels(layout), layout), noisy[None, :])
        assert np.max(np.abs(fitted[0] - delta)) < 1e-9 * np.max(np.abs(delta))
        expected_rms = np.linalg.norm(deform) / math.sqrt(len(deform))
        assert residual[0] == pytest.approx(expected_rms, rel=1e-9)

    def test_rank_deficiency_named(self):
        # collinear stations along x cannot observe rotation about x
        layout = station_layout([np.array([float(x), 0.0, 0.0]) for x in (-5, 0, 5)])
        X = np.array([[1e-4, 0, 0] * 3], dtype=complex)
        with pytest.raises(RankError) as exc:
            fit_rigid_body(rigid_map(all_channels(layout), layout), X)
        assert exc.value.direction == "rx"

    def test_exactness_over_random_small_motions(self):
        rng = np.random.default_rng(31)
        positions = station_grid()
        deltas = []
        for _ in range(200):
            delta = (
                rng.uniform(-1e-4, 1e-4, 6) + 1j * rng.uniform(-1e-4, 1e-4, 6)
            )
            delta[3:] *= 1e-3 / 1e-4  # keep rotations under 1e-3 rad
            deltas.append(delta)
        deltas = np.array(deltas)
        X = np.array([np.concatenate([rigid_rows(p) @ d for p in positions]) for d in deltas])
        layout = station_layout(positions)
        fitted, _ = fit_rigid_body(rigid_map(all_channels(layout), layout), X)
        err = np.max(np.abs(fitted - deltas), axis=1) / np.max(np.abs(deltas), axis=1)
        assert np.max(err) < 1e-12


class TestRbmContribution:
    def test_purely_rigid_field(self):
        delta = np.array([1e-4, 2e-4, -1e-4, 1e-5, 2e-5, -1e-5], dtype=complex)
        channels, A, X = synthesize(station_grid(), delta)
        fitted, _ = fit_rigid_body(A, X)
        out = rbm_contribution(channels, A, X, fitted)
        assert out.shape == (1, 3)
        assert out[0] == pytest.approx([100.0] * 3, rel=1e-9)

    def test_half_prediction_is_fifty_percent(self):
        delta = np.array([1e-4, 0, 0, 0, 0, 0], dtype=complex)
        channels, A, X = synthesize(station_grid(), delta)
        out = rbm_contribution(channels, A, X, delta[None, :] / 2)
        assert out[0, 0] == pytest.approx(50.0, rel=1e-9)

    def test_inphase_contamination_on_z(self):
        # inflate every measured z amplitude by 30 %, keep the true rigid
        # motion as reference: direct evaluation gives 100/1.3 = 76.9 %
        delta = np.array([1e-4, 5e-5, 8e-5, 1e-5, -1e-5, 5e-6], dtype=complex)
        channels, A, clean = synthesize(station_grid(), delta)
        fitted, _ = fit_rigid_body(A, clean)
        contaminated = clean * np.array([1.3 if a == "z" else 1.0 for _, a in channels])
        out = rbm_contribution(channels, A, contaminated, fitted)
        assert out[0, 2] == pytest.approx(100.0 / 1.3, rel=1e-9)
        assert out[0, 0] == pytest.approx(100.0, rel=1e-9)

    def test_stacked_maps_equal_the_per_station_loop_bit_for_bit(self):
        # reference: one 3x6 map, one fit and one abs() per station, axis
        # and frequency, as the fit and the contribution were first written
        rng = np.random.default_rng(8)
        positions = [rng.uniform(-15.0, 15.0, 3) for _ in range(11)]
        layout = station_layout(positions)
        for _ in range(50):
            channels = [
                (f"S{i}", a)
                for i in range(len(positions))
                for a in sorted(rng.choice(list("xyz"), size=rng.integers(1, 4), replace=False))
            ]
            X = (rng.standard_normal((3, len(channels))) + 1j * rng.standard_normal((3, len(channels)))) * 1e-4
            A = rigid_map(channels, layout)
            fitted, _ = fit_rigid_body(A, X)
            out = rbm_contribution(channels, A, X, fitted)
            A_ref = np.array([rigid_rows(positions[int(sid[1:])])[AXIS_ROW[a]] for sid, a in channels])
            for i, b in enumerate(X):
                ref = np.linalg.lstsq(A_ref, b.real, rcond=None)[0] + 1j * np.linalg.lstsq(A_ref, b.imag, rcond=None)[0]
                assert fitted[i].tobytes() == ref.tobytes()
                floor = 1e-3 * max(abs(complex(v)) for v in b)
                pred = {
                    (f"S{s}", a): abs((rigid_rows(p) @ fitted[i])[k])
                    for s, p in enumerate(positions) for k, a in enumerate("xyz")
                }
                for k, axis in enumerate("xyz"):
                    used = [c for c, key in enumerate(channels) if key[1] == axis and abs(complex(b[c])) >= floor]
                    if not used:
                        assert math.isnan(out[i, k])
                        continue
                    meas = [abs(complex(b[c])) for c in used]
                    pred_used = [pred[channels[c]] for c in used]
                    assert out[i, k] == 100.0 * float(np.mean(pred_used)) / float(np.mean(meas))

    def test_axis_below_floor_is_undefined(self):
        delta = np.array([1e-4, 0, 0, 0, 0, 0], dtype=complex)
        channels, A, X = synthesize(station_grid(), delta)   # y and z identically zero
        fitted, _ = fit_rigid_body(A, X)
        out = rbm_contribution(channels, A, X, fitted)
        assert math.isnan(out[0, 1]) and math.isnan(out[0, 2])


class TestRdCurve:
    def test_static_limit(self):
        for xi in (0.0, 0.2, 0.9):
            assert rd_curve(xi, 0.0) == pytest.approx(1.0)

    def test_half_damping_at_resonance(self):
        assert rd_curve(0.5, 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("xi", [0.1, 0.37, 0.5])
    def test_peak_against_numeric_maximization(self, xi):
        # independent oracle: numeric maximization of the amplification
        res = minimize_scalar(lambda r: -rd_curve(xi, r), bounds=(0.01, 2.0), method="bounded",
                              options={"xatol": 1e-12})
        r_peak = res.x
        assert r_peak == pytest.approx(math.sqrt(1 - 2 * xi**2), abs=1e-8)
        assert rd_curve(xi, r_peak) == pytest.approx(
            1.0 / (2 * xi * math.sqrt(1 - xi**2)), rel=1e-9
        )

    def test_peak_value_for_037(self):
        xi = 0.37
        assert rd_curve(xi, math.sqrt(1 - 2 * xi**2)) == pytest.approx(1.4546, abs=1e-4)

    def test_undamped_resonance_rejected(self):
        with pytest.raises(InfinityError):
            rd_curve(0.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            rd_curve(1.0, 0.5)
        with pytest.raises(DomainError):
            rd_curve(-0.1, 0.5)
        with pytest.raises(DomainError):
            rd_curve(np.array([[0.3], [1.0]]), np.array([0.5, 0.6]))

    def test_grid_rows_equal_scalar_calls(self):
        grid = np.asarray(DEFAULT_XI_GRID)
        r = np.linspace(0.3, 1.5, 23)
        rows = rd_curve(grid[:, None], r)
        for xi, row in zip(grid, rows):
            assert np.array_equal(row, rd_curve(float(xi), r))


def one_series_frc(freqs, u, sid="S1", axis="x", force=6800.0):
    """A one-series curve measured and scaled at ``force``."""
    return FrequencyResponseCurve(
        freqs, [(sid, axis)], np.reshape(u, (-1, 1)), np.full(len(freqs), force), force, "X"
    )


def sdof_frc(xi, fn=10.0, freqs=None, sid="S1", axis="x"):
    if freqs is None:
        freqs = np.arange(0.5, 15.01, 0.5)
    return one_series_frc(freqs, [float(rd_curve(xi, f / fn)) for f in freqs], sid, axis)


class TestEstimateDamping:
    @pytest.mark.parametrize("xi", [0.15, 0.3, 0.37, 0.5, 0.7])
    def test_exact_sdof_recovery_on_grid(self, xi):
        frc = sdof_frc(xi)
        est = estimate_damping(frc, fn_hint=10.0)
        assert est.xi_lo == pytest.approx(xi, abs=0.0125)
        assert est.xi_hi == est.xi_lo

    def test_exact_grid_interior_recovery(self):
        grid = np.arange(0.05, 0.951, 0.025)
        for xi in grid[2:-2:4]:
            frc = sdof_frc(float(xi))
            est = estimate_damping(frc, fn_hint=10.0)
            assert est.xi_lo == pytest.approx(xi, abs=1e-9)

    def test_flat_curve_flagged_degenerate(self):
        # no amplification curve approximates a flat response (Rd < 1 for
        # every ratio above sqrt(2)), so the match lands mid-grid with a
        # large misfit and must carry the degenerate-fit flag
        f = np.arange(0.5, 15.01, 0.5)
        est = estimate_damping(one_series_frc(f, np.ones(f.size)), fn_hint=10.0)
        assert est.poor_fit
        assert est.xi_hi == pytest.approx(0.475, abs=1e-9)

    def test_grid_pick_matches_per_value_loop(self):
        # reference: one rd_curve call and one sum per grid value
        rng = np.random.default_rng(9)
        grid = np.asarray(DEFAULT_XI_GRID)
        f = np.arange(0.5, 15.01, 0.5)
        for k in range(20):
            u = rd_curve(rng.uniform(0.1, 0.8), f / 10.0) * rng.uniform(0.9, 1.1, f.size)
            frc = one_series_frc(f, u, force=1.0)
            r = f / 10.0
            sel = (r >= 0.3) & (r <= 1.5)
            target = u[sel] / np.mean(u[:2])
            errs = [float(np.sum((target - rd_curve(float(xi), r[sel])) ** 2)) for xi in grid]
            est = estimate_damping(frc, fn_hint=10.0)
            assert est.xi_lo == float(grid[int(np.argmin(errs))])

    def test_missing_normalization_points(self):
        frc = sdof_frc(0.3, freqs=np.arange(8.0, 15.0, 0.5))
        with pytest.raises(NormalizationError):
            estimate_damping(frc, fn_hint=10.0)


class TestAmplification:
    def test_flat_curve(self):
        f = np.arange(1.0, 15.01, 1.0)
        assert amplification_factor(one_series_frc(f, np.full(f.size, 2.5))) == pytest.approx(1.0)

    def test_sdof_037(self):
        frc = sdof_frc(0.37, freqs=np.arange(0.25, 15.0, 0.05))
        # peak of the amplification curve: 1/(2 xi sqrt(1-xi^2)) = 1.4546
        assert amplification_factor(frc) == pytest.approx(1.4546, abs=2e-3)

    def test_peak_finder_flags_flat_top(self):
        frc = sdof_frc(0.37, freqs=np.arange(0.5, 15.01, 0.5))
        f_peak, _, flat = frc_peak(frc, "S1", "x")
        assert f_peak == pytest.approx(10.0 * math.sqrt(1 - 2 * 0.37**2), abs=0.5)
        assert flat  # 37 % damping makes a broad top


class TestLinearity:
    def test_identical_curves(self):
        frc = sdof_frc(0.3)
        assert linearity_rms(frc, frc) == 0.0

    def test_constant_offset(self):
        frc = sdof_frc(0.3)
        shifted = replace(frc, u_mm=frc.u_mm + 0.01)
        assert linearity_rms(frc, shifted) == pytest.approx(0.01, rel=1e-9)

    def test_exclusion_below_two_hz(self):
        frc = sdof_frc(0.3)
        tampered = replace(frc, u_mm=frc.u_mm + np.where(frc.frequencies <= 2.0, 100.0, 0.0)[:, None])
        assert linearity_rms(frc, tampered, exclude_below=2.0) == 0.0

    def test_rms_equals_the_sorted_point_table_bit_for_bit(self):
        # reference: dicts of (id, axis, f) over the points above the limit,
        # differenced in sorted key order
        rng = np.random.default_rng(5)
        for _ in range(20):
            curves = []
            for _ in range(2):
                keys = [(f"S{i}", a) for i in range(8) for a in "xyz" if rng.random() < 0.7]
                f = np.unique(rng.choice(np.arange(0.5, 12.0, 0.5), size=18))
                curves.append(FrequencyResponseCurve(
                    f, keys, rng.uniform(0, 5, (f.size, len(keys))), np.ones(f.size), 1.0
                ))
            tables = [
                {(p.id, p.axis, p.f_hz): p.u_scaled_mm for p in c.points if p.f_hz > 2.0}
                for c in curves
            ]
            shared = sorted(set(tables[0]) & set(tables[1]))
            diffs = np.array([tables[0][k] - tables[1][k] for k in shared])
            assert linearity_rms(*curves) == float(np.sqrt(np.mean(diffs**2)))

    def test_disjoint_grids_rejected(self):
        a = sdof_frc(0.3, freqs=np.arange(3.0, 8.0, 1.0))
        b = sdof_frc(0.3, freqs=np.arange(3.5, 8.0, 1.0))
        with pytest.raises(ComparisonError):
            linearity_rms(a, b)


class TestCurvatureStrain:
    def test_collinear_is_zero(self):
        assert curvature_strain([-1.0, 0.0, 1.0], [0.0, 0.5, 1.0], 2.9) == pytest.approx(0.0, abs=1e-15)

    def test_unit_parabola(self):
        # w(x) = x^2 mm over x in {-1, 0, 1} m: a = 1e-3, curvature 2e-3 1/m
        strain = curvature_strain([-1.0, 0.0, 1.0], [1e-3, 0.0, 1e-3], 1.0)
        assert strain == pytest.approx(2e-3, rel=1e-9)

    def test_span_parabola(self):
        # w = {0, 0.5, 0} mm at x = {-16.56, 0, 16.56} m:
        # a = -0.5e-3/16.56^2 = -1.8233e-6, curvature = 2a, strain = 2a*2.9
        strain = curvature_strain([-16.56, 0.0, 16.56], [0.0, 0.5e-3, 0.0], 2.9)
        expected = 2.0 * (-0.5e-3 / 16.56**2) * 2.9
        assert strain == pytest.approx(expected, rel=1e-9)
        assert abs(strain) == pytest.approx(1.0575e-5, rel=1e-3)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(GeometryError):
            curvature_strain([0.0, 0.0, 1.0], [0.0, 0.1, 0.2], 1.0)


def test_estimates_invariant_under_joint_scaling():
    # scaling all measured amplitudes and forces together changes nothing
    # in the identification chain
    freqs = np.arange(0.5, 15.01, 0.5)
    amps = 1e-4 * rd_curve(0.3, freqs / 10.0)[:, None]
    forces = np.full(len(freqs), 3400.0)
    for s in (0.2, 7.0):
        frc1 = build_frc(freqs, [("S1", "x")], amps, forces, 6800.0)
        frc2 = build_frc(freqs, [("S1", "x")], s * amps, s * forces, 6800.0)
        d1 = estimate_damping(frc1, 10.0)
        d2 = estimate_damping(frc2, 10.0)
        assert d1.per_station == d2.per_station
        assert amplification_factor(frc1) == pytest.approx(amplification_factor(frc2), rel=1e-12)
