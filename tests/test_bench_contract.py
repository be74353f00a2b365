"""The benchmark harness reaches the program through public names; these
tests fail when a refactor removes one of them."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
