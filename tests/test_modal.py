import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

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
    ForceGeometry,
    FrequencyResponseCurve,
    FrcPoint,
    RigidMotion,
    StationPhasors,
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
    rigid_rows,
)
from vibroident.timeseries import SensorLayout, Station, TimeSeriesSet


def force_set(channels, fs=512.0, dur=10.0):
    t = np.arange(int(fs * dur) + 1) / fs
    values = [amp * np.sin(2 * np.pi * f * t + ph) for amp, f, ph in channels.values()]
    return TimeSeriesSet(0.0, fs, values, tuple(channels), ("kN",) * len(channels))


class TestForceAmplitude:
    def test_aligned_channels_sum(self):
        chans = {f"a{i}": (100.0, 8.0, 0.0) for i in range(4)}
        geo = {f"a{i}": ForceGeometry([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) for i in range(4)}
        est = estimate_force_amplitude(force_set(chans), geo, 8.0)
        assert est.resultant == pytest.approx(400.0, rel=1e-9)
        assert est.torque == pytest.approx(0.0, abs=1e-9)

    def test_pure_couple(self):
        chans = {"e": (100.0, 8.0, 0.0), "w": (100.0, 8.0, math.pi)}
        geo = {
            "e": ForceGeometry([5.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            "w": ForceGeometry([-5.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
        }
        est = estimate_force_amplitude(force_set(chans), geo, 8.0)
        assert est.resultant == pytest.approx(0.0, abs=1e-6)
        assert est.torque == pytest.approx(1000.0, rel=1e-9)

    def test_missing_channel(self):
        chans = {"a0": (100.0, 8.0, 0.0)}
        geo = {"a1": ForceGeometry([0, 0, 0], [1, 0, 0])}
        with pytest.raises(ForceEstimationError):
            estimate_force_amplitude(force_set(chans), geo, 8.0)


class TestBuildFrc:
    def test_double_scale(self):
        frc = build_frc(
            {10.0: {("S1", "x"): 0.1e-3}}, {10.0: 3400.0}, f_ref=6800.0
        )
        assert frc.points[0].u_scaled_mm == pytest.approx(0.2)

    def test_identity_scale(self):
        frc = build_frc(
            {10.0: {("S1", "x"): 0.1e-3}}, {10.0: 6800.0}, f_ref=6800.0
        )
        assert frc.points[0].u_scaled_mm == pytest.approx(0.1)

    def test_missing_force_rejected(self):
        with pytest.raises(BuildError):
            build_frc({10.0: {("S1", "x"): 1e-4}}, {}, f_ref=6800.0)

    def test_group_average(self):
        layout = SensorLayout(
            stations=(
                Station("S1", np.array([1.0, 0, 0]), np.eye(3)),
                Station("S2", np.array([-1.0, 0, 0]), np.eye(3)),
            ),
            groups={"T1": ("S1", "S2")},
        )
        frc = build_frc(
            {10.0: {("S1", "x"): 1.0e-3, ("S2", "x"): 3.0e-3}},
            {10.0: 6800.0},
            f_ref=6800.0,
            layout=layout,
        )
        _, u = frc.series("T1", "x")
        assert u[0] == pytest.approx(2.0)

    def test_csv_roundtrip(self):
        frc = build_frc(
            {5.0: {("S1", "x"): 1e-4, ("S1", "z"): 2e-4}, 10.0: {("S1", "x"): 3e-4, ("S1", "z"): 1e-4}},
            {5.0: 3000.0, 10.0: 3100.0},
            f_ref=6800.0,
            dof_excited="Y",
        )
        again = frc_from_csv(frc_to_csv(frc))
        assert again.dof_excited == "Y"
        assert again.points == frc.points

    def test_series_grouped_in_first_appearance_order(self):
        pts = [
            FrcPoint(8.0, "S2", "x", 4.0, 1.0, 1.0),
            FrcPoint(5.0, "S1", "z", 2.0, 1.0, 1.0),
            FrcPoint(3.0, "S2", "x", 1.0, 1.0, 1.0),
            FrcPoint(6.0, "S2", "x", 3.0, 1.0, 1.0),
        ]
        frc = FrequencyResponseCurve(tuple(pts))
        assert frc.ids() == [("S2", "x"), ("S1", "z")]
        f, u = frc.series("S2", "x")
        assert f.tolist() == [3.0, 6.0, 8.0] and u.tolist() == [1.0, 3.0, 4.0]
        assert not f.flags.writeable and not u.flags.writeable
        assert frc.points == tuple(pts)
        with pytest.raises(KeyError):
            frc.series("S1", "x")

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_joint_scaling_invariance(self, s):
        amps = {5.0: {("S1", "x"): 1e-4}, 8.0: {("S1", "x"): 4e-4}, 12.0: {("S1", "x"): 2e-4}}
        forces = {5.0: 3000.0, 8.0: 3200.0, 12.0: 2900.0}
        frc1 = build_frc(amps, forces, 6800.0)
        amps2 = {f: {k: s * v for k, v in d.items()} for f, d in amps.items()}
        forces2 = {f: s * v for f, v in forces.items()}
        frc2 = build_frc(amps2, forces2, 6800.0)
        for p1, p2 in zip(frc1.points, frc2.points):
            assert p2.u_scaled_mm == pytest.approx(p1.u_scaled_mm, rel=1e-12)


def station_grid():
    pts = []
    for x in (-10.0, 0.0, 10.0):
        for y in (-4.0, 4.0):
            for z in (-2.0, 2.0):
                pts.append(np.array([x, y, z]))
    return pts


def synthesize(positions, delta):
    return [
        StationPhasors(
            id=f"S{i}",
            position=p,
            phasors={a: complex(v) for a, v in zip("xyz", rigid_rows(p) @ delta)},
        )
        for i, p in enumerate(positions)
    ]


class TestRigidBody:
    def test_rigid_rows_of_one_point_and_of_a_stack(self):
        points = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 0.5]])
        maps = [
            [[1, 0, 0, 0, 3, -2], [0, 1, 0, -3, 0, 1], [0, 0, 1, 2, -1, 0]],
            [[1, 0, 0, 0, 0.5, 0], [0, 1, 0, -0.5, 0, -4], [0, 0, 1, 0, 4, 0]],
        ]
        assert np.array_equal(rigid_rows(points[0]), maps[0])
        assert np.array_equal(rigid_rows(points), maps)

    def test_pure_translation(self):
        delta = np.array([1e-4 + 2e-5j, 0, 0, 0, 0, 0], dtype=complex)
        stations = synthesize(station_grid(), delta)
        rm = fit_rigid_body(stations, 10.0)
        assert np.allclose(rm.delta, delta, atol=1e-18)
        assert rm.residual_rms < 1e-18

    def test_small_yaw(self):
        # v_i = (-y, x, 0) * 1e-5 is exactly a 1e-5 rad rotation about z
        theta = 1e-5
        stations = [
            StationPhasors(
                id=f"S{i}",
                position=p,
                phasors={"x": -p[1] * theta + 0j, "y": p[0] * theta + 0j, "z": 0j},
            )
            for i, p in enumerate(station_grid())
        ]
        rm = fit_rigid_body(stations)
        assert rm.delta[5].real == pytest.approx(theta, rel=1e-12)
        assert np.max(np.abs(np.delete(rm.delta, 5))) < 1e-17

    def test_orthogonal_deformation_goes_to_residual(self):
        # deformation constructed in the orthogonal complement of the 6
        # rigid basis vectors leaves the fit untouched and lands in the
        # residual with its full norm
        rng = np.random.default_rng(21)
        positions = station_grid()
        A = np.vstack([rigid_rows(p) for p in positions])
        q, _ = np.linalg.qr(A)
        raw = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        deform = raw - q @ (q.conj().T @ raw)
        deform *= 1e-5 / np.linalg.norm(deform)

        delta = np.array([2e-4, -1e-4, 5e-5, 1e-5, -2e-5, 3e-5], dtype=complex)
        clean = A @ delta
        noisy = clean + deform
        stations = [
            StationPhasors(
                id=f"S{i}", position=p,
                phasors={a: noisy[3 * i + k] for k, a in enumerate("xyz")},
            )
            for i, p in enumerate(positions)
        ]
        rm = fit_rigid_body(stations)
        assert np.max(np.abs(rm.delta - delta)) < 1e-9 * np.max(np.abs(delta))
        expected_rms = np.linalg.norm(deform) / math.sqrt(len(deform))
        assert rm.residual_rms == pytest.approx(expected_rms, rel=1e-9)

    def test_rank_deficiency_named(self):
        # collinear stations along x cannot observe rotation about x
        stations = [
            StationPhasors(
                id=f"S{i}", position=np.array([float(x), 0.0, 0.0]),
                phasors={"x": 1e-4 + 0j, "y": 0j, "z": 0j},
            )
            for i, x in enumerate((-5, 0, 5))
        ]
        with pytest.raises(RankError) as exc:
            fit_rigid_body(stations)
        assert exc.value.direction == "rx"

    def test_exactness_over_random_small_motions(self):
        rng = np.random.default_rng(31)
        positions = station_grid()
        for _ in range(200):
            delta = (
                rng.uniform(-1e-4, 1e-4, 6) + 1j * rng.uniform(-1e-4, 1e-4, 6)
            )
            delta[3:] *= 1e-3 / 1e-4  # keep rotations under 1e-3 rad
            stations = synthesize(positions, delta)
            rm = fit_rigid_body(stations)
            err = np.max(np.abs(rm.delta - delta)) / np.max(np.abs(delta))
            assert err < 1e-12


class TestRbmContribution:
    def test_purely_rigid_field(self):
        delta = np.array([1e-4, 2e-4, -1e-4, 1e-5, 2e-5, -1e-5], dtype=complex)
        stations = synthesize(station_grid(), delta)
        rm = fit_rigid_body(stations)
        out = rbm_contribution(stations, rm)
        for axis in "xyz":
            assert out[axis] == pytest.approx(100.0, rel=1e-9)

    def test_half_prediction_is_fifty_percent(self):
        delta = np.array([1e-4, 0, 0, 0, 0, 0], dtype=complex)
        stations = synthesize(station_grid(), delta)
        half = RigidMotion(0.0, delta / 2, 0.0, len(stations))
        out = rbm_contribution(stations, half)
        assert out["x"] == pytest.approx(50.0, rel=1e-9)

    def test_inphase_contamination_on_z(self):
        # inflate every measured z amplitude by 30 %, keep the true rigid
        # motion as reference: direct evaluation gives 100/1.3 = 76.9 %
        delta = np.array([1e-4, 5e-5, 8e-5, 1e-5, -1e-5, 5e-6], dtype=complex)
        positions = station_grid()
        clean = synthesize(positions, delta)
        rm = fit_rigid_body(clean)
        contaminated = [
            StationPhasors(
                id=st.id, position=st.position,
                phasors={
                    "x": st.phasors["x"],
                    "y": st.phasors["y"],
                    "z": 1.3 * st.phasors["z"],
                },
            )
            for st in clean
        ]
        out = rbm_contribution(contaminated, rm)
        assert out["z"] == pytest.approx(100.0 / 1.3, rel=1e-9)
        assert out["x"] == pytest.approx(100.0, rel=1e-9)

    def test_stacked_maps_equal_the_per_station_loop_bit_for_bit(self):
        # reference: one 3x6 map and one abs() per station and axis, as the
        # fit and the contribution were first written
        rng = np.random.default_rng(8)
        positions = [rng.uniform(-15.0, 15.0, 3) for _ in range(11)]
        for _ in range(50):
            stations = [
                StationPhasors(f"S{i}", p, {
                    a: complex(*rng.standard_normal(2)) * 1e-4
                    for a in rng.choice(list("xyz"), size=rng.integers(1, 4), replace=False)
                })
                for i, p in enumerate(positions)
            ]
            rm = fit_rigid_body(stations)
            A = np.array([rigid_rows(st.position)[AXIS_ROW[a]] for st in stations for a in sorted(st.phasors)])
            b = np.array([st.phasors[a] for st in stations for a in sorted(st.phasors)])
            ref = np.linalg.lstsq(A, b.real, rcond=None)[0] + 1j * np.linalg.lstsq(A, b.imag, rcond=None)[0]
            assert rm.delta.tobytes() == ref.tobytes()
            floor = 1e-3 * max(abs(v) for st in stations for v in st.phasors.values())
            out = rbm_contribution(stations, rm)
            for axis in "xyz":
                used = [st for st in stations if axis in st.phasors and abs(st.phasors[axis]) >= floor]
                pred = [abs((rigid_rows(st.position) @ rm.delta)[AXIS_ROW[axis]]) for st in used]
                meas = [abs(st.phasors[axis]) for st in used]
                assert out[axis] == (100.0 * float(np.mean(pred)) / float(np.mean(meas)) if used else None)

    def test_axis_below_floor_is_undefined(self):
        delta = np.array([1e-4, 0, 0, 0, 0, 0], dtype=complex)
        stations = synthesize(station_grid(), delta)   # y and z identically zero
        rm = fit_rigid_body(stations)
        out = rbm_contribution(stations, rm)
        assert out["y"] is None and out["z"] is None


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


def sdof_frc(xi, fn=10.0, freqs=None, sid="S1", axis="x"):
    if freqs is None:
        freqs = np.arange(0.5, 15.01, 0.5)
    points = tuple(
        FrcPoint(float(f), sid, axis, float(rd_curve(xi, f / fn)), 6800.0, 6800.0)
        for f in freqs
    )
    return FrequencyResponseCurve(points, "X")


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
        points = tuple(
            FrcPoint(float(f), "S1", "x", 1.0, 6800.0, 6800.0)
            for f in np.arange(0.5, 15.01, 0.5)
        )
        est = estimate_damping(FrequencyResponseCurve(points, "X"), fn_hint=10.0)
        assert est.poor_fit
        assert est.xi_hi == pytest.approx(0.475, abs=1e-9)

    def test_grid_pick_matches_per_value_loop(self):
        # reference: one rd_curve call and one sum per grid value
        rng = np.random.default_rng(9)
        grid = np.asarray(DEFAULT_XI_GRID)
        f = np.arange(0.5, 15.01, 0.5)
        for k in range(20):
            u = rd_curve(rng.uniform(0.1, 0.8), f / 10.0) * rng.uniform(0.9, 1.1, f.size)
            frc = FrequencyResponseCurve(tuple(FrcPoint(float(a), "S1", "x", float(b), 1.0, 1.0) for a, b in zip(f, u)))
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
        points = tuple(
            FrcPoint(float(f), "S1", "x", 2.5, 6800.0, 6800.0)
            for f in np.arange(1.0, 15.01, 1.0)
        )
        assert amplification_factor(FrequencyResponseCurve(points, "X")) == pytest.approx(1.0)

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
        shifted = FrequencyResponseCurve(
            tuple(
                FrcPoint(p.f_hz, p.id, p.axis, p.u_scaled_mm + 0.01, p.f_measured, p.f_ref)
                for p in frc.points
            ),
            frc.dof_excited,
        )
        assert linearity_rms(frc, shifted) == pytest.approx(0.01, rel=1e-9)

    def test_exclusion_below_two_hz(self):
        frc = sdof_frc(0.3)
        tampered = FrequencyResponseCurve(
            tuple(
                FrcPoint(p.f_hz, p.id, p.axis,
                         p.u_scaled_mm + (100.0 if p.f_hz <= 2.0 else 0.0),
                         p.f_measured, p.f_ref)
                for p in frc.points
            ),
            frc.dof_excited,
        )
        assert linearity_rms(frc, tampered, exclude_below=2.0) == 0.0

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
    amps = {f: {("S1", "x"): 1e-4 * float(rd_curve(0.3, f / 10.0))} for f in np.arange(0.5, 15.01, 0.5)}
    forces = {f: 3400.0 for f in amps}
    for s in (0.2, 7.0):
        frc1 = build_frc(amps, forces, 6800.0)
        frc2 = build_frc(
            {f: {k: s * v for k, v in d.items()} for f, d in amps.items()},
            {f: s * v for f, v in forces.items()},
            6800.0,
        )
        d1 = estimate_damping(frc1, 10.0)
        d2 = estimate_damping(frc2, 10.0)
        assert d1.per_station == d2.per_station
        assert amplification_factor(frc1) == pytest.approx(amplification_factor(frc2), rel=1e-12)
