"""Batch command-line surface.

    vibroident simulate -c cfg.json -o out/
    vibroident analyze -c cfg.json --response r.csv --force f.csv -o out/
    vibroident linearity a/frc.csv b/frc.csv --exclude-below 2
    vibroident vs cpt.csv -o vs.csv

Exit codes: 0 ok, 2 config, 3 parse, 4 numeric, 5 io.  VIBROIDENT_SEED
overrides the configured seed.  Output files are written via temp +
atomic rename, never partially.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

# before numpy loads OpenBLAS: its idle threads then sleep at once instead
# of spinning for 2^28 cycles, a fifth of a short command's CPU time
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
import numpy as np

from . import geotech, modal, svg
from .errors import (
    AlignmentError,
    ConfigError,
    DesignError,
    ParseError,
    NumericError,
    VibroidentError,
    WindowError,
    check_keys,
    is_real,
)
from .modal import GENERALIZED_AXES
from .pipeline import STRAIN_FIBER_M, AnalysisPolicy, AnalysisResult, analyze
from .simulator import (
    NoiseSpec,
    assemble_system,
    force_timeseries,
    integrate,
    load_model,
    load_program,
    modal_properties,
    sensor_kinematics,
)
from .timeseries import (
    SensorLayout,
    load_layout,
    open_timeseries_csv,
    parse_timeseries_csv,
    # stays importable from here: the benchmark tracer wraps cli.serialize_timeseries_csv
    serialize_timeseries_csv,
    synchronize,
    write_timeseries_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _read_resource(kind: str, name: str) -> str:
    base = resources.files("vibroident") / "data"
    if kind == "program":
        path = base / "programs" / f"{name or 'stepped_x'}.json"
    elif not name:
        path = base / f"default_{kind}.json"
    else:
        raise ConfigError(f"no bundled {kind} named {name!r}; use 'default'")
    try:
        return path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"no bundled {kind} named {name!r}") from None


def _read_text(path, error) -> str:
    """The file at ``path`` as UTF-8 text; ``error`` (ConfigError or
    ParseError) with the line of the first byte that is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line} is not UTF-8 text ({exc.reason})") from None


def _load_text(spec: str, kind: str) -> str:
    """'default' / 'default:stepped_x' resolve to bundled data; else a path."""
    if spec == "default" or spec.startswith("default:"):
        return _read_resource(kind, spec.partition(":")[2])
    p = Path(spec)
    if not p.exists():
        raise ConfigError(f"{kind} file not found: {spec}")
    return _read_text(p, ConfigError)


_POLICY = AnalysisPolicy()

#: every key a run config may set, with its default; the analysis
#: defaults are those of AnalysisPolicy
_CONFIG_DEFAULTS = {
    "model": "default",
    "layout": "default",
    "program": "default:stepped_x",
    "seed": 42,
    "noise_rms": 0.001,
    "response_rate": 200.0,
    "force_rate": 512.0,
    "integration_factor": 40.0,
    "filter": {"order": _POLICY.filter_order, "f_low": _POLICY.f_low, "f_high": _POLICY.f_high},
    "window": {"skip_cycles": _POLICY.skip_cycles, "max_len_s": _POLICY.max_window_s},
    "f_ref_force_kn": _POLICY.f_ref_force_kn,
    "f_ref_torque_knm": _POLICY.f_ref_torque_knm,
    "rotation_lever_m": _POLICY.rotation_lever_m,
    "damping_channel_floor": _POLICY.damping_channel_floor,
    "strain": {"stations": ["T3SW", "T2S", "T3SE"], "fiber_m": STRAIN_FIBER_M},
}


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


_TEXT = (lambda v: isinstance(v, str), "a string")
_NUMBER = (is_real, "a number")
_POSITIVE = (lambda v: is_real(v) and v > 0, "a number > 0")
_NON_NEGATIVE = (lambda v: is_real(v) and v >= 0, "a number >= 0")

#: what each config value must be, by dotted key; a number is one that
#: :func:`~vibroident.errors.is_real` takes, as in every document
_CONFIG_RULES = {
    "model": _TEXT,
    "layout": _TEXT,
    "program": _TEXT,
    "seed": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    "noise_rms": _NON_NEGATIVE,
    "response_rate": _POSITIVE,
    "force_rate": _POSITIVE,
    "integration_factor": _POSITIVE,
    "filter.order": (_integer, "an integer"),
    "filter.f_low": _NUMBER,
    "filter.f_high": _NUMBER,
    "window.skip_cycles": _NON_NEGATIVE,
    "window.max_len_s": _POSITIVE,
    "f_ref_force_kn": _POSITIVE,
    "f_ref_torque_knm": _POSITIVE,
    "rotation_lever_m": _POSITIVE,
    "damping_channel_floor": (lambda v: is_real(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "strain.stations": (
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v) and len(set(v)) == len(v) == 3,
        "a list of three distinct station ids",
    ),
    "strain.fiber_m": _POSITIVE,
}


def _validate_config(doc: dict) -> dict:
    """Merge a config document over _CONFIG_DEFAULTS; reject unknown keys
    and values of the wrong type or range."""
    check_keys(doc, _CONFIG_DEFAULTS, "config")
    cfg = copy.deepcopy(_CONFIG_DEFAULTS)
    cfg.update(doc)
    for section in ("filter", "window", "strain"):
        value = doc.get(section)
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"config key {section!r} must be an object or null")
        check_keys(value or {}, _CONFIG_DEFAULTS[section], f"config section {section!r}")
        if section != "strain":   # strain replaces its default whole; null disables it
            cfg[section] = {**_CONFIG_DEFAULTS[section], **(value or {})}
    for key, (ok, requirement) in _CONFIG_RULES.items():
        section, _, sub = key.rpartition(".")
        holder = cfg[section] if section else cfg
        if holder is None or sub not in holder:
            continue
        if not ok(holder[sub]):
            raise ConfigError(f"config key {key!r} must be {requirement}, got {holder[sub]!r}")
    if cfg["strain"] is not None and "stations" not in cfg["strain"]:
        raise ConfigError("config section 'strain' must set 'stations', or be null to turn strain off")
    return cfg


def load_run_config(path: str) -> dict:
    try:
        doc = json.loads(_read_text(path, ConfigError))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    cfg = _validate_config(doc)
    env_seed = os.environ.get("VIBROIDENT_SEED")
    if env_seed is not None:
        bad = ConfigError(f"VIBROIDENT_SEED must be an integer >= 0, got {env_seed!r}")
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise bad from None
        if cfg["seed"] < 0:
            raise bad
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _load_layout(cfg: dict) -> SensorLayout:
    """The configured layout, which must hold the configured strain stations."""
    layout = load_layout(_load_text(cfg["layout"], "layout"))
    if cfg["strain"] is not None:
        known = {st.id for st in layout.stations}
        unknown = [sid for sid in cfg["strain"]["stations"] if sid not in known]
        if unknown:
            raise ConfigError(
                f"config key 'strain.stations' names station(s) not in the layout: "
                f"{', '.join(map(repr, unknown))}"
            )
    return layout


def policy_from_config(cfg: dict) -> AnalysisPolicy:
    return AnalysisPolicy(
        filter_order=int(cfg["filter"]["order"]),
        f_low=float(cfg["filter"]["f_low"]),
        f_high=float(cfg["filter"]["f_high"]),
        skip_cycles=float(cfg["window"]["skip_cycles"]),
        max_window_s=float(cfg["window"]["max_len_s"]),
        f_ref_force_kn=float(cfg["f_ref_force_kn"]),
        f_ref_torque_knm=float(cfg["f_ref_torque_knm"]),
        rotation_lever_m=float(cfg["rotation_lever_m"]),
        damping_channel_floor=float(cfg["damping_channel_floor"]),
    )


@contextlib.contextmanager
def _atomic_file(path: Path):
    """Yield a binary file that becomes ``path`` when the block ends: a
    temp file unique to this call in the target's directory, renamed over
    the target, or removed if the block raised."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        # mkstemp creates 0600; give the file the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, data: str | bytes) -> None:
    """Write ``data``, text as UTF-8 whatever the locale, through
    :func:`_atomic_file`."""
    with _atomic_file(path) as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


#: most values one buffer of ``simulate`` may hold: the integrator's
#: (u, v, a) history, or the response or force record with its time
#: column.  The bundled programs at the default config need at most
#: 9.5 M (stepped_z); 40 M values are 320 MB as float64.  Their CSV text,
#: about 0.8 GB, is never in memory: it streams into the file one block
#: at a time.
MAX_RECORD_CELLS = 40_000_000


def _integration_rate(cfg: dict, program, layout: SensorLayout) -> float:
    """The Newmark rate: the least multiple of the response rate at or
    above ``integration_factor`` x the program's top frequency.  Raises
    ConfigError if a buffer the run would fill holds more than
    MAX_RECORD_CELLS values."""

    def check(name: str, cells: float) -> None:
        if cells > MAX_RECORD_CELLS:
            raise ConfigError(
                f"the {name} would hold {cells:.3g} values, above the cap of "
                f"{MAX_RECORD_CELLS:,}; lower the rates or integration_factor"
            )

    fs_resp, duration = float(cfg["response_rate"]), program.duration
    factor = cfg["integration_factor"] * program.f_max / fs_resp
    # the history before the rate is rounded up, so the rounding cannot overflow
    check("integration history (u, v, a)", 18 * factor * fs_resp * duration)
    rate = fs_resp * math.ceil(factor)
    check("integration history (u, v, a)", 18 * rate * duration)
    check("response record", (3 * len(layout.stations) + 1) * fs_resp * duration)
    check("force record", (len(program.force_points) + 1) * float(cfg["force_rate"]) * duration)
    return rate


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    model = load_model(_load_text(cfg["model"], "model"))
    layout = _load_layout(cfg)
    program = load_program(_load_text(cfg["program"], "program"))

    fs_resp = float(cfg["response_rate"])
    if program.f_max > fs_resp / 2.0 / 2.5:
        raise DesignError(
            f"program reaches {program.f_max} Hz, above {fs_resp / 2.0 / 2.5:.1f} Hz "
            f"(response Nyquist / 2.5)"
        )
    rate = _integration_rate(cfg, program, layout)
    sys_m = assemble_system(model)
    hist = integrate(sys_m, program, dt=1.0 / rate)
    noise = NoiseSpec(rms=float(cfg["noise_rms"]), seed=int(cfg["seed"]))
    response = sensor_kinematics(hist, layout, noise, output_rate=fs_resp)
    force = force_timeseries(program, fs=float(cfg["force_rate"]), duration=program.duration)

    modes = modal_properties(sys_m)
    manifest = {
        "config_sha256": config_hash(cfg),
        "seed": int(cfg["seed"]),
        "program": {"name": program.name, "kind": program.kind, "dof_excited": program.dof_excited},
        "rates": {"response_hz": fs_resp, "force_hz": float(cfg["force_rate"]), "integration_hz": rate},
        "modes": [
            {
                "frequency_hz": m.frequency_hz,
                "dominant_dof": m.dominant_dof,
                "shape": m.shape.tolist(),
            }
            for m in modes
        ],
        "generalized_force_amplitude": program.generalized_amplitude().tolist(),
    }

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for name, record in (("response.csv", response), ("force.csv", force)):
        with _atomic_file(out / name) as fh:
            write_timeseries_csv(record, fh)
    _atomic_write(out / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out / 'response.csv'}, {out / 'force.csv'}, {out / 'manifest.json'}")
    return EXIT_OK


def _rbm_csv(result: AnalysisResult) -> str:
    header = (
        ["f_hz"]
        + [f"{a}_mag" for a in GENERALIZED_AXES]
        + [f"{a}_phase" for a in GENERALIZED_AXES]
    )
    lines = [",".join(header)]
    for f, delta in zip(result.frequencies, result.rigid):
        mags = [repr(float(abs(v))) for v in delta]
        phases = [repr(float(np.angle(v))) for v in delta]
        lines.append(",".join([repr(float(f))] + mags + phases))
    return "\n".join(lines) + "\n"


def _contribution_csv(result: AnalysisResult) -> str:
    lines = ["f_hz,x_pct,y_pct,z_pct"]
    for f, row in zip(result.frequencies, result.contributions):
        cells = [repr(float(f))] + ["" if math.isnan(v) else repr(float(v)) for v in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _frc_figures(result: AnalysisResult) -> dict[str, str]:
    figs = {}
    frc = result.frc_stations
    f = frc.frequencies.tolist()
    n = len(result.channels)   # the group series follow the stations, in (group, axis) order
    groups = [(key, u.tolist()) for key, u in zip(frc.keys[n:], frc.u_mm.T[n:]) if np.max(u) > 0]
    for axis in ("x", "y", "z"):
        series = [svg.Series(gname, f, u) for (gname, ax), u in groups if ax == axis]
        _, u = result.frc_rigid.series("rbm", "d" + axis)
        series.append(svg.Series("rigid", f, u.tolist()))
        figs[f"frc_{axis}.svg"] = svg.line_chart(
            series,
            title=f"{result.dof_excited} excitation: scaled {axis} displacement",
            xlabel="forcing frequency [Hz]",
            ylabel="displacement at reference force [mm]",
        )
    return figs


def _re_phase(phasor: complex, ref: complex) -> float:
    if ref == 0:
        return abs(phasor)
    return float((phasor * np.exp(-1j * np.angle(ref))).real)


def _deformation_figures(result: AnalysisResult, layout: SensorLayout) -> dict[str, str]:
    i = int(np.argmin(np.abs(result.frequencies - result.natural_frequency_hz)))
    f = float(result.frequencies[i])
    phasors = result.phasors[i]
    delta = result.rigid[i]
    amplitudes = np.hypot(phasors.real, phasors.imag)
    ref = phasors[np.argmax(amplitudes)]
    max_disp = float(np.max(amplitudes))
    column = {key: c for c, key in enumerate(result.channels)}
    station_ids = sorted({sid for sid, _ in result.channels})
    figs = {}
    views = {
        "deformation_plan.svg": ("x", "y", lambda st: st.position[2] > 1.0, "plan view (top)"),
        "deformation_elevation.svg": ("x", "z", lambda st: st.position[1] < -1.0, "south face elevation"),
    }
    for fname, (ax_h, ax_v, keep, label) in views.items():
        idx_h, idx_v = "xyz".index(ax_h), "xyz".index(ax_v)
        rows = []
        span = max(abs(layout.station(sid).position[idx_h]) for sid in station_ids)
        scale = 0.15 * span / max(max_disp, 1e-30)
        for sid in station_ids:
            st = layout.station(sid)
            if not keep(st):
                continue
            meas = {ax: phasors[column[(sid, ax)]] for ax in (ax_h, ax_v) if (sid, ax) in column}
            pred = modal.rigid_rows(st.position) @ delta
            h0, v0 = float(st.position[idx_h]), float(st.position[idx_v])
            rows.append(
                (
                    sid,
                    h0,
                    v0,
                    h0 + scale * _re_phase(meas.get(ax_h, 0.0), ref),
                    v0 + scale * _re_phase(meas.get(ax_v, 0.0), ref),
                    h0 + scale * _re_phase(complex(pred[idx_h]), ref),
                    v0 + scale * _re_phase(complex(pred[idx_v]), ref),
                )
            )
        if not rows:
            continue
        lim_h = max(abs(r[1]) for r in rows)
        lim_v = max(abs(r[2]) for r in rows)
        outline = [(-lim_h, -lim_v), (lim_h, -lim_v), (lim_h, lim_v), (-lim_h, lim_v)]
        figs[fname] = svg.deformation_chart(
            outline,
            rows,
            title=f"{result.dof_excited} excitation at {f:g} Hz: {label}",
            xlabel=f"{ax_h} [m]",
            ylabel=f"{ax_v} [m]",
            scale_note=f"displacements exaggerated x{scale:.3g}",
        )
    return figs


def cmd_analyze(args) -> int:
    cfg = load_run_config(args.config)
    layout = _load_layout(cfg)
    program = load_program(_load_text(cfg["program"], "program"))
    policy = policy_from_config(cfg)

    strain = cfg["strain"] or {}
    with contextlib.ExitStack() as stack:
        try:
            # the response stays in its parse's spill files, read as a stream
            response = stack.enter_context(open_timeseries_csv(args.response))
            force = parse_timeseries_csv(args.force)
        except OSError as exc:
            raise ConfigError(f"cannot read input: {exc}") from exc

        # the records must overlap; each is windowed on its own time axis
        synchronize(response, force)

        result = analyze(
            response, force, program, layout, policy,
            strain_stations=tuple(strain["stations"]) if strain else None,
            strain_fiber_m=float(strain.get("fiber_m", STRAIN_FIBER_M)),
        )
    damping_doc = {
        "config_sha256": config_hash(cfg),
        "dof_excited": result.dof_excited,
        "fn_hz": result.natural_frequency_hz,
        "peak_flat": result.peak_flat,
        "xi_lo": result.damping.xi_lo,
        "xi_hi": result.damping.xi_hi,
        "xi_poor_fit": result.damping.poor_fit,
        "amplification": result.amplification,
        "strain": result.strain,
        "f_ref": policy.f_ref(result.dof_excited),
    }

    files = {
        "frc.csv": modal.frc_to_csv(result.frc_stations),
        "frc_rigid.csv": modal.frc_to_csv(result.frc_rigid),
        "rbm.csv": _rbm_csv(result),
        "contribution.csv": _contribution_csv(result),
        "damping.json": json.dumps(damping_doc, indent=1, sort_keys=True) + "\n",
    }
    files.update(_frc_figures(result))
    files.update(_deformation_figures(result, layout))

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _atomic_write(out / name, text)
    print(
        f"{result.dof_excited}: fn={result.natural_frequency_hz:g} Hz, "
        f"xi=[{result.damping.xi_lo:.3f}, {result.damping.xi_hi:.3f}], "
        f"amplification={result.amplification:.2f} -> {out}"
    )
    return EXIT_OK


def cmd_linearity(args) -> int:
    frc_a = modal.frc_from_csv(_read_text(args.frc_a, ParseError))
    frc_b = modal.frc_from_csv(_read_text(args.frc_b, ParseError))
    rms = modal.linearity_rms(frc_a, frc_b, exclude_below=args.exclude_below)
    shared = modal._shared_amplitudes(frc_a, frc_b, args.exclude_below)[0].size
    doc = {"rms_mm": rms, "shared_points": shared, "exclude_below_hz": args.exclude_below}
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output:
        _atomic_write(Path(args.output), text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_vs(args) -> int:
    sounding = geotech.parse_cpt_csv(_read_text(args.cpt, ParseError))
    rows = geotech.vs_average(sounding, multiplicative=args.multiplicative)
    text = geotech.vs_profile_csv(rows)
    if args.output:
        _atomic_write(Path(args.output), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibroident",
        description="Forced-vibration simulation and system identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic test records")
    sim.add_argument("-c", "--config", required=True)
    sim.add_argument("-o", "--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="identify dynamics from records")
    ana.add_argument("-c", "--config", required=True)
    ana.add_argument("--response", required=True)
    ana.add_argument("--force", required=True)
    ana.add_argument("-o", "--output", required=True)
    ana.set_defaults(func=cmd_analyze)

    lin = sub.add_parser("linearity", help="RMS difference of two scaled FRCs")
    lin.add_argument("frc_a")
    lin.add_argument("frc_b")
    lin.add_argument("--exclude-below", type=float, default=2.0)
    lin.add_argument("-o", "--output")
    lin.set_defaults(func=cmd_linearity)

    vs = sub.add_parser("vs", help="CPT shear-wave-velocity profile")
    vs.add_argument("cpt")
    vs.add_argument("-o", "--output")
    vs.add_argument("--multiplicative", action="store_true")
    vs.set_defaults(func=cmd_vs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, AlignmentError, WindowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericError as exc:
        print(f"numeric error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except VibroidentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
