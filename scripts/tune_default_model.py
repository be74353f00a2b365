#!/usr/bin/env python3
"""Search the default-model configuration space and freeze the bundled configs.

The block geometry is fixed (the reaction-mass footprint); the free knobs
are spring counts, stiffness totals, edge amplification, the dashpot
tributary-mass shares, and actuator anchor heights.  Candidate configs are
scored by running the library's identification chain
(``pipeline.identify``) on the exact steady-state station phasors, against
the acceptance targets:

  * X-translation-dominant eigenfrequency inside [9, 11] Hz
  * grid FRC peak within 0.5 Hz of the matching eigenfrequency (X, Y, Z)
  * station damping interval overlapping [0.31, 0.37], biased low

Run from the repo root:  python scripts/tune_default_model.py [--write]
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vibroident import modal
from vibroident.pipeline import AnalysisPolicy, AnalysisResult, identify
from vibroident.simulator import (
    BlockSpec,
    ExcitationProgram,
    ForcePoint,
    SteppedSpec,
    SweepSpec,
    assemble_system,
    build_block_model,
    dump_model,
    dump_program,
    modal_properties,
    steady_state_response,
)
from vibroident.timeseries import SensorLayout, Station, dump_layout

L, W, H = 33.12, 16.91, 5.79
MASS = 4.49e6          # ~2.2 x the platen payload capacity
HX, HY, HZ = L / 2, W / 2, H / 2

X_FREQS = tuple(np.concatenate([np.arange(1, 9.1, 1.0), np.arange(9.5, 11.6, 0.5), np.arange(12, 18.1, 1.0)]))
Y_FREQS = X_FREQS
Z_FREQS = tuple(np.concatenate([np.arange(5, 14.1, 1.0), np.arange(14.5, 17.6, 0.5), np.arange(18, 25.1, 1.0)]))
YAW_FREQS = tuple(np.concatenate([np.arange(1, 9.1, 1.0), np.arange(9.5, 11.6, 0.5), np.arange(12, 20.1, 1.0)]))


def default_layout() -> SensorLayout:
    zt, zm, zb = HZ, 0.0, -HZ + 0.3
    xe, xi = HX, HX / 2
    yn = HY
    sts = []

    def add(sid, x, y, z):
        sts.append(Station(sid, np.array([x, y, z]), np.eye(3)))

    # top centerline
    for sid, x in (("T1W2", -xe), ("T1W1", -xi), ("T1C", 0.0), ("T1E1", xi), ("T1E2", xe)):
        add(sid, x, 0.0, zt)
    # top long-side midpoints
    add("T2N", 0.0, yn, zt)
    add("T2S", 0.0, -yn, zt)
    # top corners
    for sid, (x, y) in (
        ("T3NE", (xe, yn)), ("T3NW", (-xe, yn)), ("T3SW", (-xe, -yn)), ("T3SE", (xe, -yn)),
    ):
        add(sid, x, y, zt)
    # mid-height ring
    for sid, (x, y) in (
        ("ME", (xe, 0.0)), ("MW", (-xe, 0.0)), ("MN", (0.0, yn)), ("MS", (0.0, -yn)),
        ("MNE", (xi, yn)), ("MNW", (-xi, yn)), ("MSW", (-xi, -yn)), ("MSE", (xi, -yn)),
    ):
        add(sid, x, y, zm)
    # bottom centerline and ring
    for sid, x in (("B1W2", -xe), ("B1W1", -xi), ("B1E1", xi), ("B1E2", xe)):
        add(sid, x, 0.0, zb)
    for sid, (x, y) in (
        ("B2N", (0.0, yn)), ("B2S", (0.0, -yn)), ("B2NE", (xi, yn)), ("B2SW", (-xi, -yn)),
    ):
        add(sid, x, y, zb)
    add("B3C", 0.0, 0.0, zb)
    add("B3E", 2.0, 0.0, zb)

    groups = {
        "T1": ("T1W2", "T1W1", "T1C", "T1E1", "T1E2"),
        "T2": ("T2N", "T2S"),
        "T3": ("T3NE", "T3NW", "T3SW", "T3SE"),
        "M": ("ME", "MW", "MN", "MS", "MNE", "MNW", "MSW", "MSE"),
        "B1": ("B1W2", "B1W1", "B1E1", "B1E2"),
        "B2": ("B2N", "B2S", "B2NE", "B2SW"),
        "B3": ("B3C", "B3E"),
    }
    return SensorLayout(tuple(sts), groups)


def actuator_points(dof: str, amp_n: float, z_anchor: float, v_angle_deg: float = 15.0):
    """Anchor geometry of the horizontal V-pairs and the vertical set."""
    c, s = math.cos(math.radians(v_angle_deg)), math.sin(math.radians(v_angle_deg))
    xa, ya = 7.0, 3.0
    if dof == "X":
        dirs = {
            "hw1": ([-xa, -ya, z_anchor], [c, s, 0.0]),
            "hw2": ([-xa, ya, z_anchor], [c, -s, 0.0]),
            "he1": ([xa, -ya, z_anchor], [c, -s, 0.0]),
            "he2": ([xa, ya, z_anchor], [c, s, 0.0]),
        }
    elif dof == "Y":
        dirs = {
            "hw1": ([-xa, -ya, z_anchor], [s, c, 0.0]),
            "hw2": ([-xa, ya, z_anchor], [-s, c, 0.0]),
            "he1": ([xa, -ya, z_anchor], [s, c, 0.0]),
            "he2": ([xa, ya, z_anchor], [-s, c, 0.0]),
        }
    elif dof == "YAW":
        dirs = {
            "hw1": ([-xa, -ya, z_anchor], [0.0, -1.0, 0.0]),
            "hw2": ([-xa, ya, z_anchor], [0.0, -1.0, 0.0]),
            "he1": ([xa, -ya, z_anchor], [0.0, 1.0, 0.0]),
            "he2": ([xa, ya, z_anchor], [0.0, 1.0, 0.0]),
        }
    elif dof == "Z":
        pts = {}
        for i, x in enumerate((-4.5, 0.0, 4.5)):
            for j, y in enumerate((-2.2, 2.2)):
                pts[f"v{i}{j}"] = ([x, y, -1.0], [0.0, 0.0, 1.0])
        dirs = pts
    else:
        raise ValueError(dof)
    norm = {k: (loc, (np.array(d) / np.linalg.norm(d)).tolist()) for k, (loc, d) in dirs.items()}
    return tuple(ForcePoint(k, loc, d, amp_n) for k, (loc, d) in norm.items())


AMPLITUDES_N = {"X": 336e3, "Y": 168e3, "Z": 110e3, "YAW": 103.6e3}


def make_program(dof: str, kind: str, z_anchor: float, scale: float = 1.0) -> ExcitationProgram:
    freqs = {"X": X_FREQS, "Y": Y_FREQS, "Z": Z_FREQS, "YAW": YAW_FREQS}[dof]
    points = actuator_points(dof, AMPLITUDES_N[dof] * scale, z_anchor)
    if kind == "stepped":
        spec = SteppedSpec(frequencies=freqs, duration_per_step=16.0, rest_gap=5.0)
        return ExcitationProgram("stepped", points, stepped=spec, dof_excited=dof,
                                 name=f"stepped_{dof.lower()}")
    sweep = SweepSpec(f0=freqs[0], f1=freqs[-1], rate=0.2)
    return ExcitationProgram("sweep", points, sweep=sweep, dof_excited=dof,
                             name=f"sweep_{dof.lower()}")


def emulate(model, program, layout, policy: AnalysisPolicy) -> AnalysisResult:
    """What the pipeline identifies from noise-free steady-state records."""
    sys = assemble_system(model)
    bf = program.generalized_amplitude().astype(complex)
    dof = program.dof_excited.upper()
    # measured force resultant (kN), or torque about Z (kN*m) for YAW
    force_kn = float(abs(bf[5]) if dof == "YAW" else np.linalg.norm(np.abs(bf[:3]))) / 1e3
    channels = [(st.id, axis) for st in layout.stations for axis in "xyz"]
    A = modal.rigid_map(channels, layout)
    freqs = [float(f) for f in program.stepped.frequencies]
    phasors = np.array([A @ steady_state_response(sys, bf, 2 * math.pi * f) for f in freqs])
    return identify(freqs, channels, phasors, [force_kn] * len(freqs), dof, layout, policy)


def local_grid_step(freqs, f_peak: float) -> float:
    """Grid resolution at the peak: the larger adjacent spacing."""
    freqs = np.asarray(freqs)
    i = int(np.argmin(np.abs(freqs - f_peak)))
    steps = []
    if i > 0:
        steps.append(freqs[i] - freqs[i - 1])
    if i + 1 < len(freqs):
        steps.append(freqs[i + 1] - freqs[i])
    return float(max(steps))


def dominant_mode_freq(sys, dof_axis: int) -> float:
    modes = modal_properties(sys)
    # the mode with the largest participation on the requested coordinate
    best = max(modes, key=lambda m: abs(m.shape[dof_axis]))
    return best.frequency_hz


def modal_summary(sys):
    modes = modal_properties(sys)
    zetas = []
    for m in modes:
        w = 2 * math.pi * m.frequency_hz
        zetas.append(float(m.shape @ sys.C @ m.shape) / (2 * w))
    return [(m.frequency_hz, modal.GENERALIZED_AXES[int(np.argmax(np.abs(m.shape * np.sqrt(np.diag(sys.M)))))], z)
            for m, z in zip(modes, zetas)]


def calibrate(spec_kwargs, targets, z_anchor, rounds=4):
    """Secant calibration of the three stiffness totals onto eigen targets."""
    kw = dict(spec_kwargs)
    kw.setdefault("kv_total", MASS * (2 * math.pi * targets["z"]) ** 2)
    kw.setdefault("kh_x_total", MASS * (2 * math.pi * targets["x"]) ** 2)
    kw.setdefault("kh_y_total", MASS * (2 * math.pi * targets["y"]) ** 2)
    for _ in range(rounds):
        sys = assemble_system(build_block_model(BlockSpec(**kw)))
        for key, axis in (("x", 0), ("y", 1), ("z", 2)):
            f_now = dominant_mode_freq(sys, axis)
            kw[f"k{'v' if key == 'z' else 'h_' + key}_total"] *= (targets[key] / f_now) ** 2
    return kw


def score_config(kw, z_anchor, layout, policy):
    model = build_block_model(BlockSpec(**kw))
    sys = assemble_system(model)
    report = {"kw": kw, "z_anchor": z_anchor}
    ok = True

    # eigenfrequencies of the translation-dominant modes
    eig = {}
    for dof, axis in (("X", 0), ("Y", 1), ("Z", 2)):
        eig[dof] = dominant_mode_freq(sys, axis)
    report["eig"] = eig
    if not 9.0 <= eig["X"] <= 11.0:
        ok = False

    # peak criterion per translational DOF: the peak locates the
    # eigenfrequency to within the local step of the test grid
    peak_err = {}
    peak_tol = {}
    for dof in ("X", "Y", "Z"):
        prog = make_program(dof, "stepped", z_anchor)
        result = emulate(model, prog, layout, policy)
        f_peak = result.natural_frequency_hz
        peak_err[dof] = abs(f_peak - eig[dof])
        peak_tol[dof] = local_grid_step(prog.stepped.frequencies, f_peak)
        if dof == "X":
            report["xi_interval"] = (result.damping.xi_lo, result.damping.xi_hi)
            report["f_peak_x"] = f_peak
    report["peak_err"] = peak_err
    report["peak_tol"] = peak_tol
    if any(peak_err[d] > peak_tol[d] + 1e-9 for d in peak_err):
        ok = False

    lo, hi = report["xi_interval"]
    overlap = (lo <= 0.37 + 1e-9) and (hi >= 0.31 - 1e-9)
    biased_low = hi <= 0.37 + 1e-9
    report["xi_ok"] = overlap and biased_low
    if not report["xi_ok"]:
        ok = False
    report["ok"] = ok
    # margin: distance from every criterion edge (xi_hi wants to sit
    # comfortably inside [0.31, 0.37])
    report["margin"] = min(
        min(peak_tol[d] - peak_err[d] for d in peak_err),
        hi - 0.31,
        0.37 - hi,
        eig["X"] - 9.0,
        11.0 - eig["X"],
    )
    return report


def scan(write: bool):
    layout = default_layout()
    policy = AnalysisPolicy()
    results = []
    shares_x = [0.78, 0.82, 0.86, 0.92]
    shares_y = [0.35, 0.42]
    shares_z = [0.16, 0.18, 0.20]
    targets_list = [
        {"x": 9.7, "y": 9.9, "z": 14.7},
        {"x": 9.75, "y": 9.9, "z": 14.7},
        {"x": 9.8, "y": 10.0, "z": 15.0},
    ]
    edge_amps = [1.0, 1.5]
    z_anchors = [1.5, 2.5]

    for sx, sy, sz, targets, eamp, za in itertools.product(
        shares_x, shares_y, shares_z, targets_list, edge_amps, z_anchors
    ):
        base = dict(
            length=L, width=W, height=H, mass=MASS,
            nx_bottom=9, ny_bottom=5, n_end=9, n_side=17,
            edge_amplification=eamp, zeta=0.37,
            trib_shares=(sx, sy, sz),
            name="reaction-block-default",
        )
        try:
            kw = calibrate(base, targets, za)
            rep = score_config(kw, za, layout, policy)
        except Exception:  # infeasible corner of the space
            continue
        results.append(rep)
        if rep["ok"]:
            print(f"OK  margin={rep['margin']:.3f} shares=({sx},{sy},{sz}) eamp={eamp} za={za} "
                  f"targets={targets} eig={ {k: round(v,2) for k,v in rep['eig'].items()} } "
                  f"xi={tuple(round(v,3) for v in rep['xi_interval'])} "
                  f"peaks={ {k: round(v,2) for k,v in rep['peak_err'].items()} }")

    results.sort(key=lambda r: r["margin"], reverse=True)
    best = results[0]
    print("\nBEST:")
    print(json.dumps(best, indent=1, default=str))
    model = build_block_model(BlockSpec(**best["kw"]))
    sys = assemble_system(model)
    print("modes (f, dominant, zeta):")
    for f, dof, z in modal_summary(sys):
        print(f"  {f:6.2f} Hz  {dof:3s}  zeta={z:.3f}")

    if write:
        data_dir = Path(__file__).resolve().parents[1] / "src" / "vibroident" / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        (data_dir / "default_model.json").write_text(dump_model(model) + "\n")
        (data_dir / "default_layout.json").write_text(dump_layout(layout) + "\n")
        prog_dir = data_dir / "programs"
        prog_dir.mkdir(exist_ok=True)
        za = best["z_anchor"]
        for dof in ("X", "Y", "Z", "YAW"):
            for kind in ("stepped", "sweep"):
                prog = make_program(dof, kind, za)
                (prog_dir / f"{kind}_{dof.lower()}.json").write_text(dump_program(prog) + "\n")
        print(f"\nwrote configs to {data_dir}")
    return best


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="freeze the best config into src/vibroident/data/")
    scan(ap.parse_args().write)
