import math
import re

import numpy as np
import pytest
import scipy.linalg as sla

from vibroident.cli import _load_text
from vibroident.errors import AssemblyError, DomainError, IntegrationError, SolveError
from vibroident.simulator import (
    BlockSpec,
    ExcitationProgram,
    ForcePoint,
    NoiseSpec,
    RigidBlockModel,
    SpringElement,
    SteppedSpec,
    SweepSpec,
    SystemMatrices,
    assemble_system,
    build_block_model,
    dump_model,
    dump_program,
    force_timeseries,
    integrate,
    load_model,
    load_program,
    modal_properties,
    sensor_kinematics,
    steady_state_response,
)
from vibroident.simulator.integrate import BLOCK
from vibroident.simulator.model import influence_matrix
from vibroident.timeseries import SensorLayout, Station, extract_window


def sdof_model(f_n=10.0, mass=1.0, zeta=0.0):
    k = mass * (2 * math.pi * f_n) ** 2
    c = 2 * zeta * math.sqrt(k * mass)
    return RigidBlockModel(
        mass=mass,
        inertia=np.eye(3),
        springs=(
            SpringElement([0, 0, 0], [0, 0, 1], k, c),
            # keep the other DOFs supported so K stays positive definite
            SpringElement([0, 0, 0], [1, 0, 0], k, 0.0),
            SpringElement([0, 0, 0], [0, 1, 0], k, 0.0),
            SpringElement([1, 0, 0], [0, 0, 1], k * 1e-6, 0.0),
            SpringElement([0, 1, 0], [0, 0, 1], k * 1e-6, 0.0),
            SpringElement([1, 0, 0], [0, 1, 0], k * 1e-6, 0.0),
        ),
    )


def small_block():
    return build_block_model(
        BlockSpec(
            length=8.0, width=4.0, height=2.0, mass=1e5,
            kv_total=1e9, kh_x_total=4e8, kh_y_total=5e8,
            nx_bottom=5, ny_bottom=3, n_end=3, n_side=5,
            zeta=0.2,
        )
    )


class TestAssemble:
    def test_single_vertical_spring_at_cg(self):
        m = RigidBlockModel(
            mass=2.0, inertia=np.eye(3),
            springs=(SpringElement([0, 0, 0], [0, 0, 1], 123.0),),
        )
        with pytest.raises(AssemblyError):
            assemble_system(m)  # five unsupported DOFs -> mechanism
        # inspect the raw contribution instead
        b = influence_matrix(m.springs[0].attach, m.springs[0].direction)
        K = 123.0 * np.outer(b, b)
        assert K[2, 2] == 123.0
        assert np.count_nonzero(K) == 1

    def test_symmetric_pair_cancels_coupling(self):
        a, k = 1.5, 200.0
        rows = influence_matrix([[sx * a, 0, 0] for sx in (-1, 1)], [0, 0, 1])
        K = sum(k * np.outer(b, b) for b in rows)
        assert K[2, 2] == pytest.approx(2 * k)
        assert K[4, 4] == pytest.approx(2 * k * a**2)
        assert K[2, 4] == pytest.approx(0.0, abs=1e-12)

    def test_offset_spring_coupling_sign_against_finite_displacement(self):
        # independent oracle: rotate the attach point with the exact rotation
        # matrix, measure the spring force, compare with -K @ q
        a, k, eps = 2.0, 50.0, 1e-7
        spring = SpringElement([a, 0, 0], [0, 0, 1], k)
        b = influence_matrix(spring.attach, spring.direction)
        K = k * np.outer(b, b)
        assert K[2, 4] == pytest.approx(-k * a)
        assert K[4, 2] == pytest.approx(K[2, 4])

        theta_y = eps
        rot = np.array([
            [math.cos(theta_y), 0, math.sin(theta_y)],
            [0, 1, 0],
            [-math.sin(theta_y), 0, math.cos(theta_y)],
        ])
        disp = rot @ spring.attach - spring.attach
        elongation = spring.direction @ disp
        force_vec = -k * elongation * spring.direction        # on the block
        moment_vec = np.cross(spring.attach, force_vec)
        q = np.array([0, 0, 0, 0, theta_y, 0.0])
        predicted = -K @ q
        assert predicted[2] == pytest.approx(force_vec[2], rel=1e-6)
        assert predicted[4] == pytest.approx(moment_vec[1], rel=1e-6)

    def test_one_row_maps_motion_and_force_by_virtual_work(self):
        # a unit force along d at r is the generalized force (d, r x d):
        # the force and its moment about the reference point.  Its virtual
        # work on any small motion q = (t, theta) is the displacement along
        # d at r, (t + theta x r) . d, which the same row must give
        rng = np.random.default_rng(3)
        r = rng.uniform(-10.0, 10.0, (50, 3))
        d = rng.normal(size=(50, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        q = rng.normal(size=(50, 6))
        rows = influence_matrix(r, d)
        assert np.array_equal(rows, np.hstack([d, np.cross(r, d)]))
        along_d = np.sum((q[:, :3] + np.cross(q[:, 3:], r)) * d, axis=1)
        assert np.allclose(np.sum(rows * q, axis=1), along_d, rtol=0, atol=1e-12)
        # positions and directions broadcast: every point along x, y and z
        assert np.array_equal(influence_matrix(r[:, None, :], np.eye(3))[:, 1], influence_matrix(r, [0, 1, 0]))

    def test_stacked_sum_matches_per_spring_loop(self):
        # B^T diag(k) B sums in another order than the loop over springs
        model = small_block()
        sys = assemble_system(model)
        K, C = np.zeros((6, 6)), np.zeros((6, 6))
        for spring in model.springs:
            b = influence_matrix(spring.attach, spring.direction)
            K += spring.k * np.outer(b, b)
            C += spring.c * np.outer(b, b)
        assert np.max(np.abs(sys.K - K)) < 1e-14 * np.max(np.abs(K))
        assert np.max(np.abs(sys.C - C)) < 1e-14 * np.max(np.abs(C))

    def test_output_symmetric_and_positive(self):
        sys = assemble_system(small_block())
        assert np.array_equal(sys.K, sys.K.T)
        assert np.array_equal(sys.C, sys.C.T)
        assert np.all(np.linalg.eigvalsh(sys.K) > 0)
        assert np.all(np.linalg.eigvalsh(sys.C) >= -1e-9)

    def test_mechanism_detected(self):
        m = RigidBlockModel(
            mass=1.0, inertia=np.eye(3),
            springs=(
                SpringElement([0, 0, 0], [1, 0, 0], 10.0),
                SpringElement([0, 0, 0], [0, 1, 0], 10.0),
                SpringElement([0, 0, 0], [0, 0, 1], 10.0),
            ),
        )
        with pytest.raises(AssemblyError):
            assemble_system(m)


class TestModal:
    def test_sdof_frequency(self):
        # the auxiliary support springs shift K[2,2] by 2 parts in 1e6
        sys = assemble_system(sdof_model(10.0))
        modes = modal_properties(sys)
        vertical = [m for m in modes if m.dominant_dof == "dz"][0]
        assert vertical.frequency_hz == pytest.approx(10.0, rel=3e-6)
        exact = math.sqrt(sys.K[2, 2] / sys.M[2, 2]) / (2 * math.pi)
        assert vertical.frequency_hz == pytest.approx(exact, rel=1e-12)

    def test_mass_normalization(self):
        sys = assemble_system(small_block())
        modes = modal_properties(sys)
        for mode in modes:
            assert mode.shape @ sys.M @ mode.shape == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize(
        "make, dominant",
        [
            (lambda: load_model(_load_text("default", "model")), ["dx", "dy", "rz", "dz", "dx", "dy"]),
            (small_block, ["dx", "dy", "rz", "dz", "ry", "rx"]),
            (lambda: skewed_inertia(small_block()), ["dx", "dy", "rz", "dz", "ry", "rx"]),
        ],
        ids=["bundled", "small_block", "skewed_inertia"],
    )
    def test_matches_scipy_generalized_eigh(self, make, dominant):
        sys = assemble_system(make())
        lam, phi = sla.eigh(sys.K, sys.M)
        modes = modal_properties(sys)
        freqs = np.array([m.frequency_hz for m in modes])
        assert np.max(np.abs(freqs / (np.sqrt(lam) / (2 * np.pi)) - 1.0)) < 1e-12
        shapes = np.column_stack([m.shape for m in modes])
        signs = np.sign(np.sum(shapes * phi, axis=0))
        assert np.max(np.abs(shapes - phi * signs)) < 1e-12 * np.max(np.abs(phi))
        assert np.max(np.abs(shapes.T @ sys.M @ shapes - np.eye(6))) < 1e-12
        assert [m.dominant_dof for m in modes] == dominant

    def test_stiffness_scaling_sqrt2(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            spec = BlockSpec(
                length=8.0, width=4.0, height=2.0, mass=1e5,
                kv_total=10 ** rng.uniform(8.5, 9.5),
                kh_x_total=10 ** rng.uniform(8.0, 9.0),
                kh_y_total=10 ** rng.uniform(8.0, 9.0),
                edge_amplification=rng.uniform(1.0, 3.0),
            )
            doubled = BlockSpec(
                **{**spec.__dict__, "kv_total": 2 * spec.kv_total,
                   "kh_x_total": 2 * spec.kh_x_total, "kh_y_total": 2 * spec.kh_y_total}
            )
            f1 = [m.frequency_hz for m in modal_properties(assemble_system(build_block_model(spec)))]
            f2 = [m.frequency_hz for m in modal_properties(assemble_system(build_block_model(doubled)))]
            assert np.allclose(np.array(f2), math.sqrt(2) * np.array(f1), rtol=1e-9)


class TestSteadyState:
    def test_static_limit(self):
        sys = assemble_system(small_block())
        F = np.array([1e5, 0, -2e5, 0, 1e4, 0], dtype=complex)
        u = steady_state_response(sys, F, omega=1e-4)
        u_static = np.linalg.solve(sys.K, F.real)
        assert np.max(np.abs(u.real - u_static)) < 1e-6 * np.max(np.abs(u_static))

    def test_sdof_resonance_amplitude(self):
        zeta, f_n, mass = 0.1, 10.0, 1.0
        sys = assemble_system(sdof_model(f_n, mass, zeta))
        c = float(sys.C[2, 2])
        wn = math.sqrt(sys.K[2, 2] / mass)  # drive exactly at the assembled resonance
        F = np.zeros(6, dtype=complex)
        F[2] = 3.0
        u = steady_state_response(sys, F, omega=wn)
        assert abs(u[2]) == pytest.approx(3.0 / (c * wn), rel=1e-12)

    def test_zero_force(self):
        sys = assemble_system(small_block())
        u = steady_state_response(sys, np.zeros(6), omega=50.0)
        assert np.all(u == 0)

    def test_undamped_resonance_raises(self):
        sys = assemble_system(sdof_model(10.0, zeta=0.0))
        modes = modal_properties(sys)
        w_exact = 2 * math.pi * modes[0].frequency_hz
        F = np.zeros(6, dtype=complex)
        F[2] = 1.0
        with pytest.raises(SolveError):
            steady_state_response(sys, F, omega=w_exact)


def skewed_inertia(model):
    """The model with products of inertia, so that M's Cholesky factor is
    not diagonal."""
    skew = np.array([[0.0, 0.1, 0.05], [0.1, 0.0, -0.08], [0.05, -0.08, 0.0]])
    inertia = model.inertia + skew * np.max(model.inertia)
    return RigidBlockModel(mass=model.mass, inertia=inertia, springs=model.springs, cg=model.cg)


def x_program(freqs=(10.0,), amp=1e5, duration=6.0, rest=2.0):
    return ExcitationProgram(
        kind="stepped",
        force_points=(ForcePoint("act", [0.0, 0.0, 0.5], [1.0, 0.0, 0.0], amp),),
        stepped=SteppedSpec(frequencies=freqs, duration_per_step=duration, rest_gap=rest),
        dof_excited="X",
    )


class TestIntegrate:
    def test_zero_forcing_stays_zero(self):
        sys = assemble_system(small_block())
        prog = x_program(amp=0.0)
        hist = integrate(sys, prog, dt=1e-3)
        assert np.all(hist.u == 0) and np.all(hist.v == 0)

    def test_steady_amplitude_matches_frequency_domain(self):
        sys = assemble_system(small_block())
        prog = x_program(freqs=(10.0,), amp=1e5, duration=8.0)
        hist = integrate(sys, prog, dt=1e-3, duration=8.0)
        w = 2 * math.pi * 10.0
        u_ref = steady_state_response(sys, prog.generalized_amplitude().astype(complex), w)
        # last stretch of the dwell, transients long dead
        sel = hist.t >= 6.0
        amp_meas = 0.5 * (np.max(hist.u[sel, 0]) - np.min(hist.u[sel, 0]))
        assert amp_meas == pytest.approx(abs(u_ref[0]), rel=0.01)

    def test_energy_conserved_without_damping(self):
        f_n, mass = 10.0, 1.0
        model = sdof_model(f_n, mass, zeta=0.0)
        sys = assemble_system(model)
        prog = x_program(amp=0.0)
        u0 = np.zeros(6)
        u0[2] = 1e-3
        cycles = 100.0
        hist = integrate(sys, prog, dt=1 / 400, duration=cycles / f_n, u0=u0)
        energy = 0.5 * (
            np.einsum("ij,jk,ik->i", hist.v, sys.M, hist.v)
            + np.einsum("ij,jk,ik->i", hist.u, sys.K, hist.u)
        )
        drift = np.max(np.abs(energy - energy[0])) / energy[0]
        assert drift < 1e-3

    def test_linearity_in_force_scale(self):
        sys = assemble_system(small_block())
        h1 = integrate(sys, x_program(amp=1e4, duration=3.0, rest=0.5), dt=1e-3)
        h2 = integrate(sys, x_program(amp=4e4, duration=3.0, rest=0.5), dt=1e-3)
        scale = np.max(np.abs(h2.u)) / np.max(np.abs(h1.u))
        assert scale == pytest.approx(4.0, rel=1e-9)
        assert np.allclose(h2.u, 4.0 * h1.u, rtol=1e-9, atol=1e-300)

    def test_dt_precondition(self):
        sys = assemble_system(small_block())
        with pytest.raises(ValueError):
            integrate(sys, x_program(freqs=(20.0,)), dt=0.01)



def newmark_loop(sys, program, dt, duration=None, u0=None, v0=None):
    """Reference: average-acceleration Newmark, one Python step at a time."""
    n = int(round((program.duration if duration is None else duration) / dt)) + 1
    t = np.arange(n) * dt
    gamma, beta = 0.5, 0.25
    a0, a1, a2 = 1 / (beta * dt * dt), gamma / (beta * dt), 1 / (beta * dt)
    a3, a4, a5 = 1 / (2 * beta) - 1, gamma / beta - 1, dt / 2 * (gamma / beta - 2)
    a6, a7 = dt * (1 - gamma), gamma * dt
    M, C, K = sys.M, sys.C, sys.K
    keff_inv = np.linalg.inv(K + a0 * M + a1 * C)
    bf, drive = program.generalized_amplitude(), program.drive(t)
    u, v, a = np.zeros((n, 6)), np.zeros((n, 6)), np.zeros((n, 6))
    if u0 is not None:
        u[0] = u0
    if v0 is not None:
        v[0] = v0
    a[0] = np.linalg.solve(M, bf * drive[0] - C @ v[0] - K @ u[0])
    for i in range(1, n):
        feff = (bf * drive[i] + M @ (a0 * u[i - 1] + a2 * v[i - 1] + a3 * a[i - 1])
                + C @ (a1 * u[i - 1] + a4 * v[i - 1] + a5 * a[i - 1]))
        u[i] = keff_inv @ feff
        a[i] = a0 * (u[i] - u[i - 1]) - a2 * v[i - 1] - a3 * a[i - 1]
        v[i] = v[i - 1] + a6 * a[i - 1] + a7 * a[i]
    return t, u, v, a


def oblique_force():
    # off-centre and off-axis, so all six DOFs respond
    d = np.array([1.0, 0.4, 0.3])
    return (ForcePoint("act", [1.0, 0.7, 0.5], d / np.linalg.norm(d), 1e5),)


def oblique_stepped(duration=1.5):
    return ExcitationProgram(
        kind="stepped",
        force_points=oblique_force(),
        stepped=SteppedSpec(frequencies=(2.0, 5.0, 10.0), duration_per_step=duration, rest_gap=0.5),
    )


def undamped(sys):
    return SystemMatrices(sys.M, np.zeros((6, 6)), sys.K)


U0 = np.array([1e-3, -2e-3, 5e-4, 1e-4, -3e-4, 2e-4])
V0 = np.array([0.02, 0.01, -0.03, 4e-3, 1e-3, -2e-3])
DT = 1e-3

#: name -> (system, program, duration, u0, v0)
RECURRENCE_CASES = {
    "stepped": lambda: (assemble_system(small_block()), oblique_stepped(), None, None, None),
    "sweep": lambda: (
        assemble_system(small_block()),
        ExcitationProgram(kind="sweep", force_points=oblique_force(), sweep=SweepSpec(1.0, 12.0, 2.0)),
        None, None, None,
    ),
    "free_undamped": lambda: (undamped(assemble_system(small_block())), x_program(amp=0.0), 2.0, U0, V0),
    "free_damped": lambda: (assemble_system(small_block()), x_program(amp=0.0), 2.0, U0, V0),
    "steps_not_multiple_of_block": lambda: (
        assemble_system(small_block()), oblique_stepped(), (3 * BLOCK + 132) * DT, None, None,
    ),
    "shorter_than_block": lambda: (
        assemble_system(small_block()), oblique_stepped(), (BLOCK // 2) * DT, U0, V0,
    ),
    "two_samples": lambda: (assemble_system(small_block()), oblique_stepped(), DT, U0, V0),
    "thousand_blocks": lambda: (
        assemble_system(small_block()), oblique_stepped(21.0), (1000 * BLOCK + 17) * DT, U0, V0,
    ),
}


class TestBlockRecurrence:
    @pytest.mark.parametrize("case", sorted(RECURRENCE_CASES))
    def test_matches_step_loop(self, case):
        sys, prog, duration, u0, v0 = RECURRENCE_CASES[case]()
        hist = integrate(sys, prog, dt=DT, duration=duration, u0=u0, v0=v0)
        t, *ref = newmark_loop(sys, prog, DT, duration, u0, v0)
        assert np.array_equal(hist.t, t)
        for got, want in zip((hist.u, hist.v, hist.a), ref):
            assert got.flags.c_contiguous and got.shape == want.shape
            peak = np.max(np.abs(want), axis=0)
            assert np.all(peak > 0)
            assert np.all(np.abs(got - want) <= 1e-11 * peak)

    @pytest.mark.filterwarnings("error")
    def test_runaway_raises_at_first_sample_over_limit(self):
        sys = assemble_system(small_block())
        unstable = SystemMatrices(sys.M, -sys.C, sys.K)     # negative damping grows
        prog = x_program(amp=1e5, duration=8.0)
        with pytest.raises(IntegrationError) as exc:
            integrate(unstable, prog, dt=DT)
        t_raise = float(re.search(r"t=([0-9.]+) s", str(exc.value)).group(1))
        assert t_raise < prog.duration
        t, u, _, _ = newmark_loop(unstable, prog, DT)
        u_limit = 1e6 * np.max(np.abs(np.linalg.solve(sys.K, prog.generalized_amplitude())))
        first = int(np.argmax(np.any(np.abs(u) > u_limit, axis=1)))
        assert f"{t_raise:.3f}" == f"{t[first]:.3f}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("excited", ["stable", "runaway"])
    def test_states_that_stay_zero_beside_a_runaway(self, excited):
        # y, rx and rz are not forced and not coupled to x, z and ry, so
        # they stay exactly zero, while their powers of A overflow within
        # four blocks (damping -20 x theirs); the forced DOFs keep their
        # damping or run away as above
        sys = assemble_system(small_block())
        quiet = np.ix_([1, 3, 5], [1, 3, 5])
        damping = sys.C * (1.0 if excited == "stable" else -1.0)
        damping[quiet] = -20.0 * sys.C[quiet]
        mixed = SystemMatrices(sys.M, damping, sys.K)
        prog = x_program(amp=1e5, duration=8.0)
        t, u, v, a = newmark_loop(mixed, prog, DT)
        assert np.all(u[:, [1, 3, 5]] == 0.0)
        if excited == "stable":
            hist = integrate(mixed, prog, dt=DT)
            assert np.all(hist.u[:, [1, 3, 5]] == 0.0)
            for got, want in zip((hist.u, hist.v, hist.a), (u, v, a)):
                peak = np.max(np.abs(want), axis=0)
                assert np.all(np.abs(got - want) <= 1e-11 * peak)
            return
        with pytest.raises(IntegrationError) as exc:
            integrate(mixed, prog, dt=DT)
        t_raise = float(re.search(r"t=([0-9.]+) s", str(exc.value)).group(1))
        u_limit = 1e6 * np.max(np.abs(np.linalg.solve(sys.K, prog.generalized_amplitude())))
        first = int(np.argmax(np.any(np.abs(u) > u_limit, axis=1)))
        assert f"{t_raise:.3f}" == f"{t[first]:.3f}"


def skew(w):
    """The matrix of w x ."""
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def two_station_layout():
    return SensorLayout(
        stations=(
            Station("A", np.array([1.0, 0.0, 0.0]), np.eye(3)),
            Station("B", np.array([0.0, 2.0, -1.0]), np.eye(3)),
        ),
        groups={"G": ("A", "B")},
    )


class TestSensors:
    def test_pure_translation_reproduced(self):
        from vibroident.simulator.integrate import StateHistory

        n = 100
        t = np.arange(n) / 200
        a = np.zeros((n, 6))
        a[:, 0] = np.sin(2 * np.pi * 5 * t)
        hist = StateHistory(t=t, u=np.zeros((n, 6)), v=np.zeros((n, 6)), a=a)
        out = sensor_kinematics(hist, two_station_layout())
        assert np.allclose(out["A_x"].values, a[:, 0])
        assert np.allclose(out["B_x"].values, a[:, 0])
        assert np.all(out["A_y"].values == 0) and np.all(out["B_z"].values == 0)

    def test_yaw_rotation_cross_product(self):
        from vibroident.simulator.integrate import StateHistory

        n = 10
        t = np.arange(n) / 200
        a = np.zeros((n, 6))
        a[:, 5] = 1.0  # rz acceleration, rad/s^2
        hist = StateHistory(t=t, u=np.zeros((n, 6)), v=np.zeros((n, 6)), a=a)
        out = sensor_kinematics(hist, two_station_layout())
        # station A at (1,0,0): z x x = y
        assert np.allclose(out["A_x"].values, 0.0)
        assert np.allclose(out["A_y"].values, 1.0)
        assert np.allclose(out["A_z"].values, 0.0)

    def test_channels_match_the_per_station_formula(self):
        # the per-station loop the record was once written with, kept as
        # the reference: (a_tr + alpha x r) . axis per channel, then one
        # noise draw per channel in channel order
        from vibroident.simulator.integrate import StateHistory

        rng = np.random.default_rng(8)
        n, step = 2001, 5
        a = rng.normal(size=(n, 6)) * [1.0, 1.0, 1.0, 0.1, 0.1, 0.1]
        hist = StateHistory(t=np.arange(n) / 1000, u=np.zeros((n, 6)), v=np.zeros((n, 6)), a=a)
        stations = tuple(
            Station(f"S{i}", rng.uniform(-16.0, 16.0, 3), sla.expm(skew(rng.normal(size=3)))) for i in range(7)
        )
        layout = SensorLayout(stations=stations)
        noise = NoiseSpec(rms=0.05, seed=4)
        idx = np.arange(0, n, step)
        draws = np.random.default_rng(noise.seed)
        reference, noise_rows = [], []
        for st in stations:
            a_st = a[idx, :3] + np.cross(a[idx, 3:], st.position[None, :])
            for axis in st.axes:
                reference.append(a_st @ axis)
                noise_rows.append(draws.normal(0.0, noise.rms, size=len(idx)))
        reference = np.array(reference)
        clean = sensor_kinematics(hist, layout, output_rate=200.0).values
        peak = np.max(np.abs(reference), axis=1, keepdims=True)
        assert np.all(np.abs(clean - reference) <= 1e-15 * peak)
        noisy = sensor_kinematics(hist, layout, noise, output_rate=200.0).values
        assert np.array_equal(noisy, clean + np.array(noise_rows))

    def test_tilted_channel_against_finite_rotation(self):
        # independent oracle: move a station with tilted axes by the exact
        # rotation matrix and read the displacement along each axis; the
        # channels read accelerations through the same linear map
        from vibroident.simulator.integrate import StateHistory

        eps = 1e-7
        axes = sla.expm(skew([0.3, -0.5, 0.8]))
        station = Station("T", np.array([4.0, -2.5, 1.5]), axes)
        q = eps * np.array([0.4, -1.0, 0.7, 0.9, 0.3, -0.6])
        hist = StateHistory(t=np.arange(2) / 200, u=np.zeros((2, 6)), v=np.zeros((2, 6)), a=np.tile(q, (2, 1)))
        out = sensor_kinematics(hist, SensorLayout(stations=(station,)))
        disp = sla.expm(skew(q[3:])) @ station.position + q[:3] - station.position
        for axis, name in zip(axes, "xyz"):
            assert out[f"T_{name}"].values[0] == pytest.approx(axis @ disp, rel=1e-6)

    def test_noise_deterministic_and_scaled(self):
        from vibroident.simulator.integrate import StateHistory

        n = 20001
        t = np.arange(n) / 200
        hist = StateHistory(t=t, u=np.zeros((n, 6)), v=np.zeros((n, 6)), a=np.zeros((n, 6)))
        spec = NoiseSpec(rms=0.01, seed=99)
        out1 = sensor_kinematics(hist, two_station_layout(), noise=spec)
        out2 = sensor_kinematics(hist, two_station_layout(), noise=spec)
        for a, b in zip(out1, out2):
            assert np.array_equal(a.values, b.values)
        rms = math.sqrt(np.mean(out1["A_x"].values ** 2))
        assert rms == pytest.approx(0.01, rel=0.05)

    def test_large_rotation_rejected(self):
        from vibroident.simulator.integrate import StateHistory

        n = 4
        u = np.zeros((n, 6))
        u[:, 4] = 0.1
        hist = StateHistory(t=np.arange(n) / 200, u=u, v=np.zeros((n, 6)), a=np.zeros((n, 6)))
        with pytest.raises(DomainError):
            sensor_kinematics(hist, two_station_layout())

    def test_downsampling(self):
        from vibroident.simulator.integrate import StateHistory

        n = 1001
        t = np.arange(n) / 1000
        a = np.zeros((n, 6))
        a[:, 1] = np.cos(2 * np.pi * 3 * t)
        hist = StateHistory(t=t, u=np.zeros((n, 6)), v=np.zeros((n, 6)), a=a)
        out = sensor_kinematics(hist, two_station_layout(), output_rate=200.0)
        assert out.sample_rate == 200.0
        assert np.allclose(out["A_y"].values, a[::5, 1])


class TestProgramIO:
    def test_model_roundtrip(self):
        model = small_block()
        again = load_model(dump_model(model))
        assert again.mass == model.mass
        assert np.array_equal(again.inertia, model.inertia)
        assert len(again.springs) == len(model.springs)
        for a, b in zip(again.springs, model.springs):
            assert np.array_equal(a.attach, b.attach)
            assert a.k == b.k and a.c == b.c

    def test_program_roundtrip(self):
        prog = ExcitationProgram(
            kind="sweep",
            force_points=(ForcePoint("a1", [1, 2, 3], [0, 1, 0], 5e4),),
            sweep=SweepSpec(f0=1.0, f1=18.0, rate=0.2),
            dof_excited="Y",
        )
        again = load_program(dump_program(prog))
        assert again.sweep.duration == pytest.approx(85.0)
        assert again.dof_excited == "Y"
        assert again.force_points[0].amplitude == 5e4

    def test_sweep_phase_matches_integrated_frequency(self):
        prog = ExcitationProgram(
            kind="sweep",
            force_points=(ForcePoint("a1", [0, 0, 0], [1, 0, 0], 1.0),),
            sweep=SweepSpec(f0=2.0, f1=6.0, rate=0.5),
        )
        t = np.linspace(0, prog.sweep.duration, 5001)
        s = prog.drive(t)
        expected = np.sin(2 * np.pi * (2.0 * t + 0.25 * t**2))
        assert np.allclose(s, expected)

    def test_force_timeseries_units_and_zero_in_gaps(self):
        prog = x_program(freqs=(5.0, 10.0), amp=2e5, duration=2.0, rest=1.0)
        fset = force_timeseries(prog, fs=512.0)
        ts = fset["act"]
        assert ts.unit == "kN"
        assert np.max(np.abs(ts.values)) == pytest.approx(200.0, rel=1e-3)
        gap = extract_window(ts, 2.2, 2.8)
        assert np.all(gap.values == 0.0)


def test_sdof_reduction_matches_amplification_curve():
    # |u(w)| / |u_static| of the vertical SDOF equals the closed-form
    # amplification to 1e-9 relative
    from vibroident.modal import rd_curve

    zeta = 0.25
    sys = assemble_system(sdof_model(10.0, 1.0, zeta))
    wn = math.sqrt(sys.K[2, 2] / sys.M[2, 2])
    c = float(sys.C[2, 2])
    zeta_exact = c / (2 * math.sqrt(sys.K[2, 2] * sys.M[2, 2]))
    F = np.zeros(6, dtype=complex)
    F[2] = 1.0
    u_static = 1.0 / sys.K[2, 2]
    for r in (0.1, 0.5, 0.852, 1.0, 1.3, 2.0):
        u = steady_state_response(sys, F, omega=r * wn)
        assert abs(u[2]) / u_static == pytest.approx(rd_curve(zeta_exact, r), rel=1e-9)
