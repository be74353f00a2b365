"""Properties of the bundled default model, layout and programs."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from vibroident.cli import _load_text
from vibroident.modal import rigid_map
from vibroident.pipeline import AnalysisPolicy, analysis_windows, identify
from vibroident.simulator import (
    BlockSpec,
    assemble_system,
    build_block_model,
    dump_model,
    load_model,
    load_program,
    modal_properties,
    steady_state_response,
)
from vibroident.timeseries import load_layout


@pytest.fixture(scope="module")
def default_model():
    return load_model(_load_text("default", "model"))


@pytest.fixture(scope="module")
def default_layout():
    return load_layout(_load_text("default", "layout"))


def test_x_translation_mode_in_band(default_model):
    # the bundled configuration is tuned to put the X-translation-dominant
    # mode near the 9.5-10 Hz range seen in the field campaigns
    sys = assemble_system(default_model)
    modes = modal_properties(sys)
    x_mode = max(modes, key=lambda m: abs(m.shape[0]))
    assert 9.0 <= x_mode.frequency_hz <= 11.0
    assert x_mode.dominant_dof == "dx"


def test_stiffness_symmetric_positive(default_model):
    sys = assemble_system(default_model)
    assert np.array_equal(sys.K, sys.K.T)
    assert np.all(np.linalg.eigvalsh(sys.K) > 0)
    assert np.all(np.linalg.eigvalsh(sys.C) >= -1e-9)


def test_dashpot_ratio_is_37_percent(default_model):
    # every dashpot satisfies c = 2 * 0.37 * sqrt(k * m_trib) for its
    # assigned tributary mass, i.e. a 37 % ratio in the SDOF reduction
    for spring in default_model.springs:
        if spring.k == 0:
            continue
        m_trib = (spring.c / (2.0 * 0.37)) ** 2 / spring.k
        assert 0 < m_trib < default_model.mass

def test_layout_has_29_stations_and_groups(default_layout):
    assert len(default_layout.stations) == 29
    assert set(default_layout.groups) == {"T1", "T2", "T3", "M", "B1", "B2", "B3"}
    # strain stations exist on the top south edge
    for sid in ("T3SW", "T2S", "T3SE"):
        st = default_layout.station(sid)
        assert st.position[1] < 0 and st.position[2] > 0


@pytest.mark.parametrize("name,dof,f_lo,f_hi", [
    ("stepped_x", "X", 1.0, 18.0),
    ("stepped_y", "Y", 1.0, 18.0),
    ("stepped_z", "Z", 5.0, 25.0),
    ("stepped_yaw", "YAW", 1.0, 20.0),
])
def test_stepped_programs_cover_table_ranges(name, dof, f_lo, f_hi):
    prog = load_program(_load_text(f"default:{name}", "program"))
    assert prog.dof_excited == dof
    freqs = prog.stepped.frequencies
    assert freqs[0] == f_lo and freqs[-1] == f_hi
    # finer 0.5 Hz stepping near the expected resonance
    steps = np.diff(freqs)
    assert 0.5 in steps and 1.0 in steps


@pytest.mark.parametrize("name", ["sweep_x", "sweep_y", "sweep_z", "sweep_yaw"])
def test_sweep_programs_rate(name):
    prog = load_program(_load_text(f"default:{name}", "program"))
    assert prog.kind == "sweep"
    assert prog.sweep.rate == pytest.approx(0.2)


BUNDLED_PROGRAMS = [
    f"{kind}_{dof}" for kind in ("stepped", "sweep") for dof in ("x", "y", "z", "yaw")
]


@pytest.mark.parametrize("name", BUNDLED_PROGRAMS)
def test_bundled_program_is_identifiable(name, default_model, default_layout):
    # exact steady-state phasors at the program's own analysis frequencies
    # carry enough points for the natural frequency, damping and amplification
    prog = load_program(_load_text(f"default:{name}", "program"))
    bf = prog.generalized_amplitude().astype(complex)
    dof = prog.dof_excited.upper()
    force = float(abs(bf[5]) if dof == "YAW" else np.linalg.norm(np.abs(bf[:3]))) / 1e3
    sys_m = assemble_system(default_model)
    channels = [(st.id, axis) for st in default_layout.stations for axis in "xyz"]
    A = rigid_map(channels, default_layout)
    freqs = [f for f, _, _ in analysis_windows(prog, AnalysisPolicy())]
    phasors = np.array([A @ steady_state_response(sys_m, bf, 2 * np.pi * f) for f in freqs])
    result = identify(freqs, channels, phasors, [force] * len(freqs), dof, default_layout)
    assert freqs[0] < result.natural_frequency_hz < freqs[-1]
    assert 0.0 < result.damping.xi_lo <= result.damping.xi_hi < 1.0


def test_force_amplitudes_in_reported_ranges():
    # total actuator force amplitude per DOF, kN
    expectations = {
        "stepped_x": (1250.0, 1360.0),
        "stepped_y": (600.0, 714.0),
        "stepped_z": (550.0, 780.0),
    }
    for name, (lo, hi) in expectations.items():
        prog = load_program(_load_text(f"default:{name}", "program"))
        bf = prog.generalized_amplitude()
        resultant_kn = np.linalg.norm(bf[:3]) / 1e3
        assert lo <= resultant_kn <= hi, name
    yaw = load_program(_load_text("default:stepped_yaw", "program"))
    torque_knm = abs(yaw.generalized_amplitude()[5]) / 1e3
    assert 2740.0 <= torque_knm <= 3160.0


def test_integrate_matches_steady_state_across_band(default_model):
    # single-dwell runs across the working band: the time-domain amplitude
    # after transient decay stays within 1 % of the frequency-domain value
    import math

    from vibroident.simulator import (
        ExcitationProgram,
        ForcePoint,
        SteppedSpec,
        integrate,
        steady_state_response,
    )

    sys = assemble_system(default_model)
    for f in (1.0, 5.0, 10.0, 18.0, 22.0, 25.0):
        prog = ExcitationProgram(
            kind="stepped",
            force_points=(ForcePoint("a", [-7.0, 0.0, 1.5], [1.0, 0.0, 0.0], 1.3e6),),
            stepped=SteppedSpec(frequencies=(f,), duration_per_step=10.0, rest_gap=0.0),
            dof_excited="X",
        )
        hist = integrate(sys, prog, dt=1.0 / 1000.0, duration=10.0)
        u_ref = steady_state_response(sys, prog.generalized_amplitude().astype(complex), 2 * math.pi * f)
        sel = hist.t >= 10.0 - 3.0 / f   # last three cycles
        amp = 0.5 * (np.max(hist.u[sel, 0]) - np.min(hist.u[sel, 0]))
        assert amp == pytest.approx(abs(u_ref[0]), rel=0.01), f


TUNER = Path(__file__).resolve().parents[1] / "scripts" / "tune_default_model.py"


@pytest.fixture(scope="module")
def tuner():
    spec = importlib.util.spec_from_file_location("tune_default_model", TUNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tuner_emulation_meets_its_targets(tuner, default_model, default_layout):
    # the targets the tuner scores candidates on, met by the bundled
    # model, layout and stepped programs through pipeline.identify
    sys_m = assemble_system(default_model)
    policy = AnalysisPolicy()
    assert 9.0 <= tuner.dominant_mode_freq(sys_m, 0) <= 11.0
    for dof, axis in (("X", 0), ("Y", 1), ("Z", 2)):
        program = load_program(_load_text(f"default:stepped_{dof.lower()}", "program"))
        result = tuner.emulate(default_model, program, default_layout, policy)
        f_peak = result.natural_frequency_hz
        step = tuner.local_grid_step(program.stepped.frequencies, f_peak)
        assert abs(f_peak - tuner.dominant_mode_freq(sys_m, axis)) <= step + 1e-9
        if dof == "X":
            lo, hi = result.damping.xi_lo, result.damping.xi_hi
            assert lo <= 0.37 + 1e-9 and hi >= 0.31 - 1e-9   # overlaps [0.31, 0.37]
            assert hi <= 0.37 + 1e-9                          # biased low


def json_leaves(doc, path=()):
    """(path, value) of every scalar of a JSON document, in document order."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from json_leaves(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from json_leaves(item, path + (i,))
    else:
        yield path, doc


def test_tuner_best_candidate_is_the_bundled_model(tuner, capsys):
    # the scan's best configuration, built and dumped, is the bundled model
    # up to the rounding of the calibration's eigensolves
    best = tuner.scan(write=False)
    capsys.readouterr()
    tuned = list(json_leaves(json.loads(dump_model(build_block_model(BlockSpec(**best["kw"]))))))
    bundled = list(json_leaves(json.loads(_load_text("default", "model"))))
    assert [path for path, _ in tuned] == [path for path, _ in bundled]
    for (path, got), (_, want) in zip(tuned, bundled):
        if isinstance(want, str):
            assert got == want, path
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
