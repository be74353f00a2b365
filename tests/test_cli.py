import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vibroident
from vibroident import cli, timeseries
from vibroident.cli import _atomic_write, config_hash, load_run_config, main
from vibroident.errors import ParseError
from vibroident.timeseries import TimeSeriesSet, parse_timeseries_csv, serialize_timeseries_csv

MINI_PROGRAM = {
    "kind": "stepped",
    "name": "mini_x",
    "dof_excited": "X",
    "force_points": [
        {"id": "hw1", "location": [-7.0, -3.0, 1.5], "direction": [0.9659258262890683, 0.25881904510252074, 0.0], "amplitude_n": 336000.0},
        {"id": "hw2", "location": [-7.0, 3.0, 1.5], "direction": [0.9659258262890683, -0.25881904510252074, 0.0], "amplitude_n": 336000.0},
        {"id": "he1", "location": [7.0, -3.0, 1.5], "direction": [0.9659258262890683, -0.25881904510252074, 0.0], "amplitude_n": 336000.0},
        {"id": "he2", "location": [7.0, 3.0, 1.5], "direction": [0.9659258262890683, 0.25881904510252074, 0.0], "amplitude_n": 336000.0},
    ],
    "stepped": {"frequencies": [1.5, 3.0, 7.0, 9.0, 10.0], "duration_per_step": 10.0, "rest_gap": 3.0},
}


#: MINI_PROGRAM's actuators on a 1-12 Hz sweep: ten analysis windows, 2-11 Hz
MINI_SWEEP = {
    **{key: value for key, value in MINI_PROGRAM.items() if key != "stepped"},
    "kind": "sweep",
    "name": "mini_sweep_x",
    "sweep": {"f0": 1.0, "f1": 12.0, "rate": 0.5},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    prog = root / "mini_program.json"
    prog.write_text(json.dumps(MINI_PROGRAM))
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"program": str(prog), "seed": 11}))
    return root


@pytest.fixture(scope="module")
def simulated(workdir):
    out = workdir / "sim"
    assert main(["simulate", "-c", str(workdir / "cfg.json"), "-o", str(out)]) == 0
    return out


class TestSimulate:
    def test_outputs_exist_and_manifest_modes(self, simulated):
        manifest = json.loads((simulated / "manifest.json").read_text())
        assert len(manifest["modes"]) == 6
        assert (simulated / "response.csv").stat().st_size > 0
        assert (simulated / "force.csv").stat().st_size > 0
        assert manifest["seed"] == 11

    def test_determinism_byte_identical(self, workdir, simulated):
        out2 = workdir / "sim2"
        assert main(["simulate", "-c", str(workdir / "cfg.json"), "-o", str(out2)]) == 0
        for name in ("response.csv", "force.csv", "manifest.json"):
            assert (out2 / name).read_bytes() == (simulated / name).read_bytes()

    def test_env_seed_override(self, workdir, monkeypatch):
        monkeypatch.setenv("VIBROIDENT_SEED", "99")
        out = workdir / "sim_env"
        assert main(["simulate", "-c", str(workdir / "cfg.json"), "-o", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_program_above_nyquist_refused(self, workdir):
        prog = dict(MINI_PROGRAM)
        prog["stepped"] = {"frequencies": [45.0], "duration_per_step": 5.0, "rest_gap": 1.0}
        p = workdir / "fast_program.json"
        p.write_text(json.dumps(prog))
        cfg = workdir / "fast_cfg.json"
        cfg.write_text(json.dumps({"program": str(p)}))
        assert main(["simulate", "-c", str(cfg), "-o", str(workdir / "nope")]) == 4

    def test_over_rotation_is_numeric_error(self, workdir, capsys):
        # linearized sensor kinematics need |theta| < 1e-3 rad; this reaches 8e-3
        points = [{**fp, "amplitude_n": 1e9} for fp in MINI_PROGRAM["force_points"]]
        prog = {**MINI_PROGRAM, "force_points": points}
        (workdir / "huge_program.json").write_text(json.dumps(prog))
        cfg = workdir / "huge_force_cfg.json"
        cfg.write_text(json.dumps({"program": str(workdir / "huge_program.json")}))
        assert main(["simulate", "-c", str(cfg), "-o", str(workdir / "never")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric error") and "Traceback" not in err
        assert not (workdir / "never").exists()

    def test_negative_env_seed_is_config_error(self, workdir, monkeypatch):
        monkeypatch.setenv("VIBROIDENT_SEED", "-3")
        assert main(["simulate", "-c", str(workdir / "cfg.json"), "-o", str(workdir / "x")]) == 2

    @pytest.mark.parametrize("doc", [
        {"integration_factor": 1e308},
        {"integration_factor": 4e5},
        {"response_rate": 1e5},
        {"force_rate": 2e6},
    ], ids=["factor_overflows", "integration_history", "response_record", "force_record"])
    def test_record_over_the_cap_exits_2_before_integration(self, workdir, monkeypatch, doc, capsys):
        def never(*args, **kwargs):
            raise AssertionError("integrate ran")

        monkeypatch.setattr(cli, "integrate", never)
        cfg = workdir / "huge_cfg.json"
        cfg.write_text(json.dumps({"program": str(workdir / "mini_program.json"), **doc}))
        assert main(["simulate", "-c", str(cfg), "-o", str(workdir / "never")]) == 2
        assert "cap" in capsys.readouterr().err
        assert not (workdir / "never").exists()

    @pytest.mark.parametrize("program", sorted(
        p.stem for p in (Path(vibroident.__file__).parent / "data" / "programs").glob("*.json")
    ))
    def test_bundled_programs_stay_well_inside_the_cap(self, monkeypatch, program, tmp_path):
        # a quarter of the cap still admits every bundled program at the default config
        monkeypatch.setattr(cli, "MAX_RECORD_CELLS", cli.MAX_RECORD_CELLS // 4)
        (tmp_path / "cfg.json").write_text("{}")
        cfg = load_run_config(str(tmp_path / "cfg.json"))
        prog = cli.load_program(cli._load_text(f"default:{program}", "program"))
        assert cli._integration_rate(cfg, prog, cli._load_layout(cfg)) > 0

    def test_bad_config_exit_code(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "-c", str(bad), "-o", str(workdir / "x")]) == 2

    def test_missing_model_path(self, workdir):
        cfg = workdir / "missing_model.json"
        cfg.write_text(json.dumps({"model": "nope.json"}))
        assert main(["simulate", "-c", str(cfg), "-o", str(workdir / "x")]) == 2

    @pytest.mark.parametrize("kind", ["config", "model", "layout", "program"])
    def test_json_that_is_not_utf8_is_config_error(self, tmp_path, kind, capsys):
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(b'{\n "name": "\xff"\n}\n')
        cfg = bad if kind == "config" else tmp_path / "cfg.json"
        if kind != "config":
            cfg.write_text(json.dumps({kind: str(bad)}))
        assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {bad}: line 2 is not UTF-8 text (invalid start byte)\n"


BAD_CONFIGS = {
    "seed_not_integer": {"seed": "abc"},
    "seed_negative": {"seed": -1},
    "noise_not_number": {"noise_rms": "x"},
    "negative_integration_factor": {"integration_factor": -1},
    "unknown_bundled_program": {"program": "default:nope"},
    "unknown_bundled_model": {"model": "default:nope"},
    "top_level_typo": {"noise_rm": 0.5},
    "filter_typo": {"filter": {"ordr": 3}},
    "window_typo": {"window": {"max_len": 3.0}},
    "strain_typo": {"strain": {"fiber": 2.0}},
    "section_not_object": {"filter": [5, 1.0, 25.0]},
    "strain_unknown_station": {"strain": {"stations": ["T3SW", "T2S", "NOPE"]}},
    "strain_two_stations": {"strain": {"stations": ["T3SW", "T2S"]}},
    "strain_without_stations": {"strain": {"fiber_m": 2.0}},
    "strain_repeated_station": {"strain": {"stations": ["T3SW", "T3SW", "T3SE"]}},
    "damping_floor_negative": {"damping_channel_floor": -0.5},
    "damping_floor_above_one": {"damping_channel_floor": 1.5},
    "rotation_lever_negative": {"rotation_lever_m": -16.5},
    "rotation_lever_zero": {"rotation_lever_m": 0},
    # deleted keys are refused like any other unknown key
    "force_low_freq_cut": {"force_low_freq_cut": 1.0},
    "noise_tone_hz": {"noise_tone_hz": 0.5},
    "noise_tone_amplitude": {"noise_tone_amplitude": 0.01},
}

MODEL = json.loads(cli._load_text("default", "model"))
SPRINGS = MODEL["springs"]
LAYOUT = json.loads(cli._load_text("default", "layout"))
STATIONS = LAYOUT["stations"]

#: bad documents named by a config key: (key, file text)
BAD_DOCUMENTS = {
    "program_not_json": ("program", "{not json"),
    "program_force_point_not_object": ("program", json.dumps({**MINI_PROGRAM, "force_points": ["hw1"]})),
    "program_repeated_force_point_id": (
        "program",
        json.dumps({**MINI_PROGRAM, "force_points": [
            fp if i != 1 else {**fp, "id": "hw1"} for i, fp in enumerate(MINI_PROGRAM["force_points"])
        ]}),
    ),
    "layout_not_json": ("layout", "[1,2"),
    "layout_groups_not_object": ("layout", '{"stations": [{"id": "T3SW", "pos": [0, 0, 0]}], "groups": []}'),
    "model_negative_mass": ("model", json.dumps({**MODEL, "mass": -1.0})),
    "model_asymmetric_inertia": ("model", json.dumps({**MODEL, "inertia": [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]})),
    "model_negative_k": ("model", json.dumps({**MODEL, "springs": [{**SPRINGS[0], "k": -1.0}, *SPRINGS[1:]]})),
    "model_spring_not_unit": (
        "model", json.dumps({**MODEL, "springs": [{**SPRINGS[0], "dir": [1.0, 1.0, 0.0]}, *SPRINGS[1:]]}),
    ),
    "program_negative_duration": (
        "program", json.dumps({**MINI_PROGRAM, "stepped": {**MINI_PROGRAM["stepped"], "duration_per_step": -1}}),
    ),
    "program_zero_cycles": (
        "program",
        json.dumps({**MINI_PROGRAM, "stepped": {"frequencies": [1.5, 3.0], "cycles_per_step": 0, "rest_gap": 3.0}}),
    ),
    "program_negative_rest_gap": (
        "program", json.dumps({**MINI_PROGRAM, "stepped": {**MINI_PROGRAM["stepped"], "rest_gap": -3}}),
    ),
    # numbers given as strings or booleans, which float() would take
    "program_string_rest_gap": (
        "program", json.dumps({**MINI_PROGRAM, "stepped": {**MINI_PROGRAM["stepped"], "rest_gap": "2"}}),
    ),
    "program_boolean_amplitude": (
        "program",
        json.dumps({**MINI_PROGRAM, "force_points": [
            {**fp, "amplitude_n": True} if i == 0 else fp for i, fp in enumerate(MINI_PROGRAM["force_points"])
        ]}),
    ),
    "model_string_k": ("model", json.dumps({**MODEL, "springs": [{**SPRINGS[0], "k": "1e9"}, *SPRINGS[1:]]})),
    "layout_string_pos": (
        "layout", json.dumps({**LAYOUT, "stations": [{**STATIONS[0], "pos": ["0", 0, 0]}, *STATIONS[1:]]}),
    ),
}


def _config_key(doc) -> str:
    return doc[0] if isinstance(doc, tuple) else next(iter(doc))


BAD_CASES = [
    pytest.param(doc, command, id=f"{name}-{command}")
    for name, doc in {**BAD_CONFIGS, **BAD_DOCUMENTS}.items()
    for command in ("analyze", "simulate")
    if command == "simulate" or _config_key(doc) != "model"   # analyze reads no model
]


@pytest.mark.parametrize("doc, command", BAD_CASES)
def test_bad_config_exits_2_without_traceback(workdir, command, doc, capsys):
    if isinstance(doc, tuple):
        key, text = doc
        (workdir / f"bad_{key}.json").write_text(text)
        doc = {key: str(workdir / f"bad_{key}.json")}
    cfg = workdir / "bad_value.json"
    cfg.write_text(json.dumps(doc))
    args = ["-c", str(cfg), "-o", str(workdir / "never")]
    if command == "analyze":
        args += ["--response", "r.csv", "--force", "f.csv"]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    # the config itself is refused, not the missing analyze inputs
    assert "cannot read input" not in err
    assert not (workdir / "never").exists()


SWEEP_PROGRAM = {
    **{k: v for k, v in MINI_PROGRAM.items() if k != "stepped"},
    "kind": "sweep", "sweep": {"f0": 1.0, "f1": 12.0, "rate": 0.5},
}

#: a misspelt key at each level of the program, model and layout
#: documents: (config key, document, the key)
UNKNOWN_KEYS = {
    "program": ("program", {**MINI_PROGRAM, "dof_exited": "Y"}, "dof_exited"),
    "force_point": (
        "program",
        {**MINI_PROGRAM, "force_points": [{**MINI_PROGRAM["force_points"][0], "amplitude": 1.0}]},
        "amplitude",
    ),
    "stepped": ("program", {**MINI_PROGRAM, "stepped": {**MINI_PROGRAM["stepped"], "rest": 3.0}}, "rest"),
    "sweep": ("program", {**SWEEP_PROGRAM, "sweep": {**SWEEP_PROGRAM["sweep"], "f_0": 1.0}}, "f_0"),
    "model": ("model", {**MODEL, "mas": 1.0}, "mas"),
    "spring": ("model", {**MODEL, "springs": [{**SPRINGS[0], "C": 1.0}, *SPRINGS[1:]]}, "C"),
    "layout": ("layout", {**LAYOUT, "group": {}}, "group"),
    "station": ("layout", {**LAYOUT, "stations": [*STATIONS[:-1], {**STATIONS[-1], "axis": [0, 0, 1]}]}, "axis"),
}


@pytest.mark.parametrize("key, doc, unknown", UNKNOWN_KEYS.values(), ids=list(UNKNOWN_KEYS))
def test_unknown_document_key_exits_2_naming_it(tmp_path, key, doc, unknown, capsys):
    (tmp_path / f"{key}.json").write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: str(tmp_path / f"{key}.json")}))
    assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key(s) in ") and repr(unknown) in err
    assert not (tmp_path / "never").exists()


def test_empty_config_hash_is_pinned(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    assert config_hash(load_run_config(str(cfg))) == (
        "dbd0943df4f55d73ccdbd973db4501f64f54e3cf380fa408ac7d2b55b3b13a6c"
    )


class TestAtomicWrite:
    def test_replaces_target_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        _atomic_write(target, "one\n")
        _atomic_write(target, "two\n")
        assert target.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_failed_write_keeps_target_and_removes_temp_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("keep\n")
        with pytest.raises(TypeError):
            _atomic_write(target, None)
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.fixture(scope="module")
def simulated_sweep(workdir):
    """(config, simulate output directory) of MINI_SWEEP."""
    prog = workdir / "mini_sweep.json"
    prog.write_text(json.dumps(MINI_SWEEP))
    cfg = workdir / "cfg_sweep.json"
    cfg.write_text(json.dumps({"program": str(prog), "seed": 11}))
    out = workdir / "sim_sweep"
    assert main(["simulate", "-c", str(cfg), "-o", str(out)]) == 0
    return cfg, out


@pytest.fixture(scope="module")
def analyzed(workdir, simulated):
    out = workdir / "ana"
    rc = main([
        "analyze", "-c", str(workdir / "cfg.json"),
        "--response", str(simulated / "response.csv"),
        "--force", str(simulated / "force.csv"),
        "-o", str(out),
    ])
    assert rc == 0
    return out


class TestAnalyze:
    def test_outputs(self, analyzed):
        for name in ("frc.csv", "frc_rigid.csv", "rbm.csv", "contribution.csv", "damping.json"):
            assert (analyzed / name).exists()
        doc = json.loads((analyzed / "damping.json").read_text())
        assert doc["dof_excited"] == "X"
        assert 0 < doc["xi_lo"] <= doc["xi_hi"] < 1
        assert doc["fn_hz"] > 0

    def test_figures_are_svg(self, analyzed):
        import xml.dom.minidom

        figs = sorted(analyzed.glob("*.svg"))
        assert figs
        for f in figs:
            xml.dom.minidom.parse(str(f))

    def test_rbm_csv_has_12_columns(self, analyzed):
        header = (analyzed / "rbm.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 13   # f_hz + 6 magnitudes + 6 phases
        assert header[0] == "f_hz"

    def test_determinism(self, workdir, simulated, analyzed):
        out2 = workdir / "ana2"
        rc = main([
            "analyze", "-c", str(workdir / "cfg.json"),
            "--response", str(simulated / "response.csv"),
            "--force", str(simulated / "force.csv"),
            "-o", str(out2),
        ])
        assert rc == 0
        for f in sorted(analyzed.iterdir()):
            assert (out2 / f.name).read_bytes() == f.read_bytes(), f.name

    def test_rerun_into_same_directory(self, workdir, simulated, analyzed):
        before = {f.name: f.read_bytes() for f in analyzed.iterdir()}
        rc = main([
            "analyze", "-c", str(workdir / "cfg.json"),
            "--response", str(simulated / "response.csv"),
            "--force", str(simulated / "force.csv"),
            "-o", str(analyzed),
        ])
        assert rc == 0
        assert {f.name: f.read_bytes() for f in analyzed.iterdir()} == before

    def test_sweep_analysis_writes_nothing_to_stderr(self, workdir, simulated_sweep, capsys):
        cfg, sim = simulated_sweep
        rc = main([
            "analyze", "-c", str(cfg),
            "--response", str(sim / "response.csv"),
            "--force", str(sim / "force.csv"),
            "-o", str(workdir / "ana_sweep"),
        ])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_empty_response_is_parse_error(self, workdir, simulated):
        empty = workdir / "empty.csv"
        empty.write_text("")
        rc = main([
            "analyze", "-c", str(workdir / "cfg.json"),
            "--response", str(empty),
            "--force", str(simulated / "force.csv"),
            "-o", str(workdir / "nope2"),
        ])
        assert rc == 3


    def test_header_only_response_is_parse_error(self, workdir, simulated):
        header_only = workdir / "header_only.csv"
        header_only.write_text("# units: a=m/s^2\nt,a\n")
        rc = main([
            "analyze", "-c", str(workdir / "cfg.json"),
            "--response", str(header_only),
            "--force", str(simulated / "force.csv"),
            "-o", str(workdir / "nope3"),
        ])
        assert rc == 3

    def test_response_row_that_is_not_utf8_is_parse_error(self, workdir, simulated, capsys):
        lines = (simulated / "response.csv").read_bytes().split(b"\n")
        lines[9] = lines[9].replace(b",", b",\xff", 1)
        bad = workdir / "not_utf8.csv"
        bad.write_bytes(b"\n".join(lines))
        rc = main([
            "analyze", "-c", str(workdir / "cfg.json"), "--response", str(bad),
            "--force", str(simulated / "force.csv"), "-o", str(workdir / "nope4"),
        ])
        assert rc == 3
        assert capsys.readouterr().err == "input error: row 10: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("T1C_y", "T1C_x", "duplicate channel label(s): T1C_x"),
            ("T1C_x", "ZZZ_x", "response column 'ZZZ_x'"),
            ("T1C_x", "T1C_q", "response column 'T1C_q'"),
        ],
        ids=["duplicate", "unknown_station", "bad_axis"],
    )
    def test_bad_response_label_is_parse_error(self, workdir, simulated, old, new, message, capsys):
        lines = (simulated / "response.csv").read_text().split("\n")
        header = lines[1].split(",")
        header[header.index(old)] = new
        lines[1] = ",".join(header)
        renamed = workdir / f"renamed_{new}.csv"
        renamed.write_text("\n".join(lines))
        rc = main([
            "analyze", "-c", str(workdir / "cfg.json"),
            "--response", str(renamed),
            "--force", str(simulated / "force.csv"),
            "-o", str(workdir / "nope_label"),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (workdir / "nope_label").exists()

    def test_record_without_a_strain_column_is_parse_error(self, workdir, simulated, capsys):
        # the default strain stations are T3SW, T2S and T3SE; without the
        # T2S_z column the record is refused before any window is fitted,
        # and with strain off it analyzes
        record = parse_timeseries_csv(simulated / "response.csv")
        keep = [c for c, label in enumerate(record.labels) if label != "T2S_z"]
        short = TimeSeriesSet(
            record.start_time, record.sample_rate, record.values[keep],
            [record.labels[c] for c in keep], [record.units[c] for c in keep],
        )
        (workdir / "no_T2S_z.csv").write_bytes(serialize_timeseries_csv(short))
        args = ["--response", str(workdir / "no_T2S_z.csv"), "--force", str(simulated / "force.csv")]
        rc = main(["analyze", "-c", str(workdir / "cfg.json"), *args, "-o", str(workdir / "nope_strain")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "'T2S_z'" in err and "Traceback" not in err
        assert not (workdir / "nope_strain").exists()
        cfg = workdir / "cfg_no_strain.json"
        cfg.write_text(json.dumps({**json.loads((workdir / "cfg.json").read_text()), "strain": None}))
        assert main(["analyze", "-c", str(cfg), *args, "-o", str(workdir / "ana_no_strain")]) == 0
        assert json.loads((workdir / "ana_no_strain" / "damping.json").read_text())["strain"] is None


class TestLinearity:
    def test_identical_curves(self, workdir, analyzed, capsys):
        rc = main(["linearity", str(analyzed / "frc.csv"), str(analyzed / "frc.csv")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rms_mm"] == 0.0
        assert doc["shared_points"] > 0

    @pytest.mark.parametrize(
        "bad_row", ["5.0,S1,x,oops,6800.0,6800.0", "5.0,S1,x,0.1"], ids=["non_numeric", "short_row"]
    )
    def test_malformed_row_is_parse_error(self, workdir, analyzed, bad_row, capsys):
        lines = (analyzed / "frc.csv").read_text().splitlines()
        lines.insert(3, bad_row)
        bad = workdir / "bad_frc.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["linearity", str(bad), str(analyzed / "frc.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: row 4:") and "Traceback" not in err

    def test_table_that_is_not_utf8_is_parse_error(self, workdir, analyzed, capsys):
        lines = (analyzed / "frc.csv").read_bytes().split(b"\n")
        lines[3] += b"\xff"
        bad = workdir / "not_utf8_frc.csv"
        bad.write_bytes(b"\n".join(lines))
        assert main(["linearity", str(analyzed / "frc.csv"), str(bad)]) == 3
        assert capsys.readouterr().err == f"input error: {bad}: line 4 is not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("fault", [
        "nan_cell", "inf_cell", "repeated_row", "missing_row", "decreasing_frequency",
        "f_measured_varies", "f_ref_varies",
    ])
    def test_malformed_table_is_parse_error(self, workdir, analyzed, fault, capsys):
        lines = (analyzed / "frc.csv").read_text().splitlines()
        # lines[0] is the dof comment, lines[1] the header; the table holds
        # one block of S rows per frequency, block k from lines[2 + k * S]
        first = lines[2].split(",")[0]
        S = sum(line.split(",")[0] == first for line in lines[2:])

        def with_cell(i, c, value):
            cells = lines[i].split(",")
            cells[c] = value
            lines[i] = ",".join(cells)

        if fault in ("nan_cell", "inf_cell"):
            with_cell(3, 3, fault[:3])
            row = 4
        elif fault == "repeated_row":
            lines.insert(4, lines[3])
            row = 5
        elif fault == "missing_row":
            del lines[3 + S]
            row = 4 + S
        elif fault == "decreasing_frequency":
            lines[2 + S: 2 + 3 * S] = lines[2 + 2 * S: 2 + 3 * S] + lines[2 + S: 2 + 2 * S]
            row = 3 + 2 * S
        elif fault == "f_measured_varies":
            with_cell(3, 4, "1.5")
            row = 4
        else:
            with_cell(2 + S, 5, "1.5")
            row = 3 + S
        bad = workdir / f"bad_{fault}.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["linearity", str(bad), str(analyzed / "frc.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: row {row}:") and "Traceback" not in err

    def test_wrong_header_is_parse_error(self, workdir, analyzed, capsys):
        text = (analyzed / "frc.csv").read_text().replace("u_scaled_mm", "u_mm", 1)
        bad = workdir / "bad_header_frc.csv"
        bad.write_text(text)
        assert main(["linearity", str(bad), str(analyzed / "frc.csv")]) == 3
        assert capsys.readouterr().err.startswith("input error: row 2:")


class TestVs:
    CSV = (
        "depth_m,qt_kpa,fs_kpa,sigma_v_kpa,ic\n"
        "1.0,500,20,18,2.0\n"
        "2.0,900,0,36,2.1\n"
    )

    def test_profile_with_gap_row_exits_zero(self, workdir, capsys):
        cpt = workdir / "cpt.csv"
        cpt.write_text(self.CSV)
        rc = main(["vs", str(cpt)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[2].endswith(",1")   # gap-flagged row, not a failure

    def test_output_file(self, workdir):
        cpt = workdir / "cpt.csv"
        cpt.write_text(self.CSV)
        out = workdir / "vs.csv"
        assert main(["vs", str(cpt), "-o", str(out)]) == 0
        assert out.read_text().startswith("depth_m,")

    def test_parse_error_exit(self, workdir):
        bad = workdir / "bad_cpt.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["vs", str(bad)]) == 3


NO_SCIPY_RUN = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy import refused: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    blocked = True
else:
    blocked = False

from vibroident.cli import main

cfg, sim, ana = sys.argv[1:4]
codes = [
    main(["simulate", "-c", cfg, "-o", sim]),
    main(["analyze", "-c", cfg, "--response", sim + "/response.csv", "--force", sim + "/force.csv", "-o", ana]),
]
print(blocked, codes, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_simulate_and_analyze_run_with_scipy_imports_refused(tmp_path):
    # scipy is a test dependency only: the program must run without it
    prog = tmp_path / "program.json"
    prog.write_text(json.dumps({
        **MINI_PROGRAM,
        "stepped": {"frequencies": [2.0, 3.0, 9.0, 10.0], "duration_per_step": 8.0, "rest_gap": 1.0},
    }))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"program": str(prog), "seed": 5}))
    src = Path(vibroident.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-c", NO_SCIPY_RUN, str(cfg), str(tmp_path / "sim"), str(tmp_path / "ana")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "True [0, 0] []", out.stderr
    assert (tmp_path / "ana" / "damping.json").exists()


def test_outputs_are_utf8_in_an_ascii_locale(tmp_path):
    # with the C locale and neither UTF-8 mode nor locale coercion, a
    # non-ASCII station id must still be written as UTF-8, not end in a
    # UnicodeEncodeError traceback
    layout = json.loads((Path(vibroident.__file__).parent / "data" / "default_layout.json").read_text())
    old = layout["stations"][0]["id"]
    new = "\u00d6" + old
    layout["stations"][0]["id"] = new
    layout["groups"] = {name: [new if sid == old else sid for sid in ids] for name, ids in layout["groups"].items()}
    (tmp_path / "layout.json").write_text(json.dumps(layout), encoding="utf-8")
    (tmp_path / "program.json").write_text(json.dumps(FUZZ_PROGRAM))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"program": str(tmp_path / "program.json"), "layout": str(tmp_path / "layout.json")}))
    src = Path(vibroident.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    argv = [sys.executable, "-m", "vibroident.cli", "simulate", "-c", str(cfg), "-o", str(tmp_path / "sim")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    record = parse_timeseries_csv(str(tmp_path / "sim" / "response.csv"))
    assert record.labels[0] == f"{new}_x"


WRITER_TABLES = """\
import sys

from vibroident import timeseries
from vibroident.cli import main

built = [timeseries._cell_tables.cache_info().currsize]
cfg, sim, ana = sys.argv[1:4]
code = main(["analyze", "-c", cfg, "--response", sim + "/response.csv", "--force", sim + "/force.csv", "-o", ana])
built.append(timeseries._cell_tables.cache_info().currsize)
print(code, built, "fractions" in sys.modules)
"""


def test_import_and_analyze_build_no_writer_table(workdir, simulated, tmp_path):
    src = Path(vibroident.__file__).resolve().parents[1]
    argv = [sys.executable, "-c", WRITER_TABLES, str(workdir / "cfg.json"), str(simulated), str(tmp_path / "ana")]
    out = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 [0, 0] False", out.stderr


BLAS_ENV_AT_NUMPY_IMPORT = """\
import os
import sys


class RecordEnv:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None


sys.meta_path.insert(0, RecordEnv())
import vibroident

bare = "numpy" in sys.modules
import vibroident.cli

print(bare, RecordEnv.seen)
"""


@pytest.mark.parametrize("preset, seen", [(None, "4"), ("30", "30")])
def test_cli_lets_openblas_threads_sleep_unless_the_user_chose(preset, seen):
    # OpenBLAS reads the variable when numpy loads it: it must be set by
    # then, and a value the user set wins; the bare package loads no numpy
    src = Path(vibroident.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(src)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    argv = [sys.executable, "-c", BLAS_ENV_AT_NUMPY_IMPORT]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == f"False [{seen!r}]", out.stderr


# --- exit-code contract under fuzzed input -------------------------------

#: two short dwells: a record of 6.5 s, windowed, fitted and filtered like
#: a real one; without dwells below 4.5 Hz it ends in a damping error (4)
FUZZ_PROGRAM = {
    **MINI_PROGRAM,
    "stepped": {"frequencies": [6.0, 9.0], "duration_per_step": 3.0, "rest_gap": 0.5},
}
EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def fuzz_record(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    prog = root / "program.json"
    prog.write_text(json.dumps(FUZZ_PROGRAM))
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"program": str(prog), "seed": 2}))
    assert main(["simulate", "-c", str(cfg), "-o", str(root / "sim")]) == 0
    return str(prog), (root / "sim" / "response.csv").read_text(), (root / "sim" / "force.csv").read_text()


def run_analyze(doc, response: str, force: str) -> tuple[int, str]:
    """``main(["analyze", ...])`` on the given config document and record
    text, in a scratch directory; returns the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in ("cfg.json", "response.csv", "force.csv")}
        paths["cfg.json"].write_text(json.dumps(doc))
        # a lone surrogate from a "byte" edit is written as that raw byte
        paths["response.csv"].write_text(response, encoding="utf-8", errors="surrogateescape")
        paths["force.csv"].write_text(force, encoding="utf-8", errors="surrogateescape")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([
                "analyze", "-c", str(paths["cfg.json"]), "--response", str(paths["response.csv"]),
                "--force", str(paths["force.csv"]), "-o", str(Path(tmp) / "out"),
            ])
    return rc, err.getvalue()


ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
)


def mostly(valid):
    """``valid`` three times in four, else any JSON value."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else ANY_VALUE)


CONFIG_EXTRAS = st.fixed_dictionaries({}, optional={
    "filter": mostly(st.fixed_dictionaries({}, optional={
        "order": mostly(st.integers(-2, 16)),
        "f_low": mostly(st.one_of(st.floats(-1.0, 120.0), st.floats(0.0, 1e-3))),
        "f_high": mostly(st.floats(0.0, 120.0)),
    })),
    "window": mostly(st.fixed_dictionaries({}, optional={
        "skip_cycles": mostly(st.floats(0.0, 40.0)),
        "max_len_s": mostly(st.floats(0.0, 10.0)),
    })),
    "layout": st.sampled_from(["default", "default", "default:nope", "missing_layout.json"]),
    "damping_channel_floor": mostly(st.floats(-1.0, 2.0)),
    "f_ref_force_kn": mostly(st.floats(0.0, 1e4)),
    "rotation_lever_m": mostly(st.floats(-10.0, 10.0)),
    "strain": mostly(st.one_of(st.none(), st.fixed_dictionaries(
        {"stations": st.lists(st.sampled_from(["T3SW", "T2S", "T3SE", "T1C", "NOPE"]), max_size=4)},
        optional={"fiber_m": mostly(st.floats(-1.0, 5.0))},
    ))),
})


@FUZZ_SETTINGS
@given(extras=CONFIG_EXTRAS)
@example(extras={"filter": {"order": 10**9}})      # must be refused before any allocation
@example(extras={"filter": {"f_low": 5e-324}})
def test_fuzzed_config_exits_with_a_contract_code(fuzz_record, extras):
    program, response, force = fuzz_record
    rc, err = run_analyze({"program": program, **extras}, response, force)
    assert rc in EXIT_CODES and "Traceback" not in err


TOKENS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e309", "-0", "0x10", "1,2", "abc", "#", " "]),
    st.floats().map(repr), st.text(max_size=6),
)
EDIT = st.tuples(
    st.sampled_from(["cell", "drop_line", "repeat_line", "truncate", "header", "units", "byte"]),
    st.integers(0, 10**6), st.integers(0, 10**6), TOKENS,
)


def edit_record(text: str, kind: str, i: int, j: int, token: str) -> str:
    lines = text.split("\n")
    row = i % len(lines)
    if kind == "cell":
        cells = lines[row].split(",")
        cells[j % len(cells)] = token
        lines[row] = ",".join(cells)
    elif kind == "drop_line":
        del lines[row]
    elif kind == "repeat_line":
        lines.insert(row, lines[row])
    elif kind == "truncate":
        return text[: i % (len(text) + 1)]
    elif kind == "byte":
        # a raw byte that is not UTF-8 (0x80-0xff), written by run_analyze
        at = i % (len(text) + 1)
        return text[:at] + chr(0xDC80 + j % 128) + text[at:]
    elif kind == "header":
        row = min(1, len(lines) - 1)
        cells = lines[row].split(",")
        cells[j % len(cells)] = token
        lines[row] = ",".join(cells)
    else:
        lines[0] = "# units: " + token
    return "\n".join(lines)


WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=3))


def mostly_number(small, huge):
    """A number that gives a small record, or one far past the record cap,
    or (one time in five) a value of the wrong type or sign; never one
    in between, which would be slow to simulate."""
    return st.integers(0, 4).flatmap(
        lambda k: [WRONG_TYPE, st.floats(-1e3, 0.0), small, small, huge][k]
    )


SIMULATE_EXTRAS = st.fixed_dictionaries({}, optional={
    "integration_factor": mostly_number(st.floats(1e-3, 200.0), st.floats(1e7, 1e300)),
    "response_rate": mostly_number(st.floats(1.0, 300.0), st.floats(1e6, 1e300)),
    "force_rate": mostly_number(st.floats(1e-3, 1024.0), st.floats(1e7, 1e300)),
    "noise_rms": mostly_number(st.floats(0.0, 1e3), st.floats(1e3, 1e300)),
    "seed": st.one_of(WRONG_TYPE, st.integers(-5, 2**80)),
})


@FUZZ_SETTINGS
@given(extras=SIMULATE_EXTRAS)
@example(extras={"integration_factor": 1e308})     # overflowed the step count before the cap
@example(extras={"seed": -1})                      # reached numpy's seed ValueError
def test_fuzzed_simulate_exits_with_a_contract_code(extras):
    with tempfile.TemporaryDirectory() as tmp:
        prog, cfg = Path(tmp) / "program.json", Path(tmp) / "cfg.json"
        prog.write_text(json.dumps(FUZZ_PROGRAM))
        cfg.write_text(json.dumps({"program": str(prog), **extras}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["simulate", "-c", str(cfg), "-o", str(Path(tmp) / "out")])
    assert rc in EXIT_CODES and "Traceback" not in err.getvalue()


def test_outputs_do_not_depend_on_the_record_io_process_count(record_io_processes, tmp_path):
    # criterion 10 across worker counts: one process, then three.  Two
    # forked workers for each of four record I/O splits (writing and
    # parsing both records); every window is estimated in one process
    stepped = {
        **MINI_PROGRAM,
        "stepped": {"frequencies": [2.0, 3.0, 9.0, 10.0], "duration_per_step": 8.0, "rest_gap": 1.0},
    }
    for program in (stepped, MINI_SWEEP):
        root = tmp_path / program["kind"]
        root.mkdir()
        prog, cfg = root / "program.json", root / "cfg.json"
        prog.write_text(json.dumps(program))
        cfg.write_text(json.dumps({"program": str(prog), "seed": 3}))
        for n in (1, 3):
            forks = record_io_processes(n)
            forks.clear()
            sim, ana = root / f"sim{n}", root / f"ana{n}"
            assert main(["simulate", "-c", str(cfg), "-o", str(sim)]) == 0
            assert main(["analyze", "-c", str(cfg), "--response", str(sim / "response.csv"),
                         "--force", str(sim / "force.csv"), "-o", str(ana)]) == 0
            assert len(forks) == 4 * (n - 1)
        for name in ("sim", "ana"):
            one, three = root / f"{name}1", root / f"{name}3"
            assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in three.iterdir())
            for path in one.iterdir():
                assert path.read_bytes() == (three / path.name).read_bytes(), (program["kind"], path.name)


def test_streamed_analysis_does_not_depend_on_the_split(workdir, simulated, record_io_processes, monkeypatch, tmp_path):
    # analyze reads the response as a stream of blocks of rows from the
    # parse's spill files: the outputs are the same bytes from one, two and
    # four processes, and with every fork refused, although a range ends
    # inside a block.  The record is split without lowering the threshold
    response = simulated / "response.csv"
    record = parse_timeseries_csv(response)
    assert record.values.size + record.samples > timeseries._FORK_MIN_CELLS

    def run(name):
        out = tmp_path / name
        assert main(["analyze", "-c", str(workdir / "cfg.json"), "--response", str(response),
                     "--force", str(simulated / "force.csv"), "-o", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    record_io_processes(1)
    serial = run("one")
    for n in (2, 4):
        forks = record_io_processes(n)
        forks.clear()
        with timeseries.open_timeseries_csv(response) as stream:
            ends = [first + rows for _, first, rows in stream.ranges[:-1]]
        assert len(ends) == n - 1 and any(end % timeseries._FILL_ROWS for end in ends)
        assert run(f"split{n}") == serial and len(forks) == 3 * (n - 1)

    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    assert run("refused") == serial


@pytest.mark.parametrize("kind", ["nan", "spacing", "bad_cell"])
def test_streamed_response_error_names_the_parsed_row(workdir, simulated, record_io_processes, tmp_path, kind, capsys):
    # a fault in the second worker's range of the response: analyze exits
    # 3 with the row that parse_timeseries_csv reports, and writes nothing
    lines = (simulated / "response.csv").read_text().split("\n")
    k = 3 * len(lines) // 4
    t, first, rest = lines[k].split(",", 2)
    lines[k] = {
        "nan": f"{t},nan,{rest}",
        "spacing": f"{float(t) + 0.001!r},{first},{rest}",
        "bad_cell": f"{t},oops,{rest}",
    }[kind]
    bad = tmp_path / "response.csv"
    bad.write_text("\n".join(lines))
    forks = record_io_processes(2)
    with pytest.raises(ParseError) as parsed:
        parse_timeseries_csv(bad)
    assert parsed.value.row > len(lines) // 2
    out = tmp_path / "out"
    rc = main(["analyze", "-c", str(workdir / "cfg.json"), "--response", str(bad),
               "--force", str(simulated / "force.csv"), "-o", str(out)])
    assert rc == 3 and len(forks) == 2
    err = capsys.readouterr().err
    assert f"input error: row {parsed.value.row}: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["exit_1_after_all_bytes", "exit_1_after_half", "sigkill"])
def test_simulate_with_failed_workers_writes_whole_records(workdir, record_io_processes, failing_workers, tmp_path, fault):
    # every forked writer fails after spilling its range: the parent writes
    # each failed range again, and no temp or partial file is left beside
    # the records
    cfg = str(workdir / "cfg.json")
    record_io_processes(1)
    assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "one")]) == 0
    failing_workers(fault)
    forks = record_io_processes(3)
    assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "split")]) == 0
    assert len(forks) == 4
    names = ["force.csv", "manifest.json", "response.csv"]
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == names
    for name in names:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


def test_simulate_without_spill_files_exits_5_and_leaves_no_file(workdir, record_io_processes, monkeypatch, tmp_path):
    # a record split over workers needs their spill files: if none can be
    # made, simulate fails with the I/O code and leaves nothing behind
    def refuse(*args, **kwargs):
        raise OSError("no temp file")

    record_io_processes(3)
    monkeypatch.setattr(timeseries.tempfile, "TemporaryFile", refuse)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["simulate", "-c", str(workdir / "cfg.json"), "-o", str(tmp_path / "out")]) == 5
    assert "no temp file" in err.getvalue()
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ_SETTINGS
@given(target=st.sampled_from(["response", "force"]), edits=st.lists(EDIT, min_size=1, max_size=3))
@example(target="response", edits=[("byte", 1, 127, "")])        # in the header
@example(target="force", edits=[("byte", 10**6, 0, "")])          # in a data row
@example(target="response", edits=[("cell", 500, 1, "1e308")])   # a window's sums overflow
@example(target="response", edits=[("cell", 500, 1, "1e200")])   # the rigid-body residual overflows
@example(target="force", edits=[("cell", 500, 1, "1e308")])
def test_fuzzed_record_exits_with_a_contract_code(fuzz_record, target, edits):
    program, response, force = fuzz_record
    record = {"response": response, "force": force}
    for edit in edits:
        record[target] = edit_record(record[target], *edit)
    rc, err = run_analyze({"program": program}, record["response"], record["force"])
    assert rc in EXIT_CODES and "Traceback" not in err
