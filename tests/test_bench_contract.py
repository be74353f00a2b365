"""The benchmark harness reaches the program through public names; these
tests fail when a refactor removes one of them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from vibroident.cli import _load_text
from vibroident.simulator import force_timeseries, load_program
from vibroident.timeseries import parse_timeseries_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr", [(w[0], w[1]) for w in _load("tracer").WRAPS], ids=lambda v: v
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_workloads_import():
    workloads = _load("workloads")
    assert callable(workloads.load_run_config) and callable(workloads.policy_from_config)


def test_field_export_parses_back(tmp_path):
    workloads = _load("workloads")
    program = load_program(_load_text("default:stepped_x", "program"))
    record = force_timeseries(program, fs=512.0, duration=0.5)
    path = tmp_path / "force.csv"
    workloads.export_field_csv(record, path)
    again = parse_timeseries_csv(str(path))
    assert again.labels == record.labels
    assert again.units == record.units == ("kN",) * len(record)
    assert again.sample_rate == record.sample_rate and again.start_time == record.start_time
    # the logger writes 7 significant digits; the parser reads them back exactly
    seven_digits = [[float(f"{v:.7g}") for v in row] for row in record.values]
    assert np.array_equal(again.values, seven_digits)
