"""Workload definitions, set-up, the field-record exporter and the output check.

Everything here reaches the program through its public functions, imported
from the checkout's ``src/`` by ``run.py`` before this module is loaded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from vibroident.cli import load_run_config, policy_from_config
from vibroident.modal import frc_from_csv, rigid_rows
from vibroident.pipeline import analysis_windows
from vibroident.simulator import (
    NoiseSpec,
    assemble_system,
    force_timeseries,
    integrate,
    load_model,
    load_program,
    modal_properties,
    sensor_kinematics,
    steady_state_response,
)
from vibroident.timeseries import load_layout

#: criterion-2 channel gate: a channel counts when its truth amplitude is at
#: least this share of the strongest channel at that frequency
CHANNEL_SHARE = 0.30
#: criterion-2 band split and tolerances
F_SPLIT_HZ = 6.0
TOL_HI = 0.02
TOL_LO = 0.10
#: criterion-1 damping condition
XI_TRUE = (0.31, 0.37)

SIM_FILES = ("response.csv", "force.csv", "manifest.json")
ANA_FILES = (
    "frc.csv", "frc_rigid.csv", "rbm.csv", "contribution.csv", "damping.json",
    "frc_x.svg", "frc_y.svg", "frc_z.svg", "deformation_plan.svg", "deformation_elevation.svg",
)


def _data(name: str) -> str:
    return (resources.files("vibroident") / "data" / name).read_text()


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a shortened bundled program plus its gates.

    The bundled programs make a 441 s (stepped) or 85 s (sweep) record, a
    25-50 s CLI loop on a 2-core machine.  Runs must repeat that loop inside
    a fixed time budget, so each workload keeps the bundled frequency grid
    and force points and shortens the dwells or the sweep.
    """

    name: str
    program: str               # bundled program the workload derives from
    spec: dict                 # replaces the program's "stepped"/"sweep" block
    field: bool                # analyze-only on an exported data-logger record
    gate_lo: bool              # criterion-2 low band (< 6 Hz) gates the check
    gate_damping: bool         # criterion-1 damping interval gates the check

    @property
    def axis(self) -> int:
        return "XYZ".index(self.program[-1].upper())


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-1 path.  Fits of 20 cycles are the shortest that kept
        # the damping gate passing on every seed tried; the integrator,
        # record I/O and sine fits carry most of the work.
        Workload(
            name="stepped_x",
            program="stepped_x",
            spec={"stepped": {"cycles_per_step": 30.0, "rest_gap": 0.5}},
            field=False, gate_lo=True, gate_damping=True,
        ),
        # Short fit windows and a third of stepped_x's rows: per-call and
        # per-process costs such as imports carry a larger share.
        Workload(
            name="sweep_x",
            program="sweep_x",
            spec={"sweep": {"rate": 0.4}},
            field=False, gate_lo=False, gate_damping=False,
        ),
        # The field-data path: analyze only, on a 7-digit data-logger CSV of
        # a Y test, with nothing written.  Its low band is noise-limited
        # (see README.md), so only the high band gates the check.
        Workload(
            name="field_y",
            program="stepped_y",
            spec={"stepped": {"cycles_per_step": 16.0, "rest_gap": 0.5}},
            field=True, gate_lo=False, gate_damping=False,
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """The prepared inputs of one workload for one noise seed."""

    config: Path
    record: tuple[Path, Path] | None     # field record, when set-up made one
    truth: dict[float, dict[tuple[str, str], float]]   # f -> channel -> mm
    grid: tuple[float, ...]              # analysis frequencies
    eig_hz: float                        # eigenfrequency of the excited axis


def make_program(w: Workload) -> dict:
    doc = json.loads(_data(f"programs/{w.program}.json"))
    kind = doc["kind"]
    doc[kind] = {**doc[kind], **w.spec[kind]}
    if "cycles_per_step" in w.spec[kind]:
        doc[kind].pop("duration_per_step", None)
    doc["name"] = w.name
    return doc


def exact_decimals(rate: float) -> int:
    """Fewest decimals that write every k / rate timestamp exactly."""
    step = Fraction(1) / Fraction(rate).limit_denominator(10**6)
    for d in range(16):
        if (step * 10**d).denominator == 1:
            return d
    raise ValueError(f"no exact decimal timestamps at {rate} Hz")


def export_field_csv(tss, path: Path) -> None:
    """Write a record the way a data logger would: comment lines first,
    fixed-decimal timestamps exact at the rate, 7 significant digits."""
    labels = list(tss.labels)
    data = np.column_stack([tss.times()] + [ts.values for ts in tss])
    units = ",".join(f"{ts.label}={ts.unit}" for ts in tss)
    header = "\n".join([
        "# field record exported by the vibroident benchmark",
        f"# rate: {tss.sample_rate:g} Hz, channels: {len(labels)}",
        f"# units: {units}",
        ",".join(["t", *labels]),
    ])
    fmt = [f"%.{exact_decimals(tss.sample_rate)}f"] + ["%.7g"] * len(labels)
    with open(path, "w") as fh:
        np.savetxt(fh, data, fmt=fmt, delimiter=",", header=header, comments="")


def setup_case(w: Workload, root: Path, noise_seed: int) -> Case:
    """Write the program and config; for the field workload also simulate
    and export the record.  Compute the steady-state truth of the check."""
    root.mkdir(parents=True, exist_ok=True)
    program_path = root / "program.json"
    program_path.write_text(json.dumps(make_program(w), indent=1))
    config_path = root / "config.json"
    config_path.write_text(json.dumps(
        {"program": str(program_path), "seed": noise_seed}, indent=1
    ))
    cfg = load_run_config(str(config_path))
    program = load_program(program_path.read_text())
    layout = load_layout(_data("default_layout.json"))
    system = assemble_system(load_model(_data("default_model.json")))

    record = None
    if w.field:
        fs_resp = float(cfg["response_rate"])
        rate = fs_resp * math.ceil(cfg["integration_factor"] * program.f_max / fs_resp)
        hist = integrate(system, program, dt=1.0 / rate)
        noise = NoiseSpec(rms=float(cfg["noise_rms"]), seed=noise_seed)
        record = (root / "field_response.csv", root / "field_force.csv")
        export_field_csv(sensor_kinematics(hist, layout, noise, output_rate=fs_resp), record[0])
        export_field_csv(force_timeseries(program, fs=float(cfg["force_rate"])), record[1])

    grid = tuple(f for f, _, _ in analysis_windows(program, policy_from_config(cfg)))
    bf = program.generalized_amplitude().astype(complex)
    scale_mm = 1e3 * float(cfg["f_ref_force_kn"]) / (float(np.linalg.norm(np.abs(bf[:3]))) / 1e3)
    truth = {}
    for f in grid:
        u6 = steady_state_response(system, bf, 2 * math.pi * f)
        amp = {
            (st.id, ax): abs(ph) * scale_mm
            for st in layout.stations
            for ax, ph in zip("xyz", rigid_rows(st.position) @ u6)
        }
        floor = CHANNEL_SHARE * max(amp.values())
        truth[f] = {key: a for key, a in amp.items() if a >= floor}
    modes = modal_properties(system)
    eig = max(modes, key=lambda m: abs(m.shape[w.axis])).frequency_hz
    return Case(config_path, record, truth, grid, eig)


def local_grid_step(grid, f_peak: float) -> float:
    """Grid resolution at the peak: the larger adjacent spacing."""
    grid = np.asarray(grid)
    i = int(np.argmin(np.abs(grid - f_peak)))
    steps = [grid[i] - grid[i - 1]] if i > 0 else []
    if i + 1 < len(grid):
        steps.append(grid[i + 1] - grid[i])
    return float(max(steps))


def check_outputs(w: Workload, case: Case, sim_dir: Path | None, ana_dir: Path) -> tuple[dict, list[str]]:
    """Accuracy figures of one loop and the list of failed checks.

    Failures are tagged with the command whose output failed.
    """
    problems = []
    if sim_dir is not None:
        problems += [f"simulate: missing {n}" for n in SIM_FILES if not (sim_dir / n).is_file()]
    missing = [n for n in ANA_FILES if not (ana_dir / n).is_file()]
    if missing:
        return {}, problems + [f"analyze: missing {n}" for n in missing]

    frc = frc_from_csv((ana_dir / "frc.csv").read_text())
    damping = json.loads((ana_dir / "damping.json").read_text())
    rel = {"hi": [], "lo": []}
    seen = 0
    for p in frc.points:
        expected = case.truth.get(p.f_hz, {}).get((p.id, p.axis))
        if expected is None:
            continue
        seen += 1
        band = "hi" if p.f_hz >= F_SPLIT_HZ else "lo"
        rel[band].append(abs(p.u_scaled_mm - expected) / expected)
    wanted = sum(len(channels) for channels in case.truth.values())
    if seen != wanted or not rel["hi"] or not rel["lo"]:
        return {}, problems + [f"analyze: frc.csv holds {seen} of {wanted} gated truth channels"]

    figures = {}
    for band in ("hi", "lo"):
        r = np.asarray(rel[band])
        figures[f"frc_err_{band}_pct"] = 100.0 * float(r.max())
        figures[f"frc_rms_{band}_pct"] = 100.0 * float(np.sqrt(np.mean(r * r)))
    if figures["frc_err_hi_pct"] >= 100 * TOL_HI:
        problems.append(f"analyze: frc_err_hi_pct {figures['frc_err_hi_pct']:.3f} >= {100 * TOL_HI:g}")
    if w.gate_lo and figures["frc_err_lo_pct"] >= 100 * TOL_LO:
        problems.append(f"analyze: frc_err_lo_pct {figures['frc_err_lo_pct']:.3f} >= {100 * TOL_LO:g}")
    fn = float(damping["fn_hz"])
    step = local_grid_step(case.grid, fn)
    if abs(fn - case.eig_hz) > step + 1e-9:
        problems.append(f"analyze: FRC peak {fn:g} Hz is more than {step:g} Hz from {case.eig_hz:.2f} Hz")
    if w.gate_damping:
        lo, hi = damping["xi_lo"], damping["xi_hi"]
        if not (lo <= XI_TRUE[1] + 1e-9 and hi >= XI_TRUE[0] - 1e-9 and hi <= XI_TRUE[1] + 1e-9):
            problems.append(f"analyze: xi=[{lo:.3f}, {hi:.3f}] misses {list(XI_TRUE)} from below")
    return figures, problems
