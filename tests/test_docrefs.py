"""Every Sphinx-style cross-reference in the package names a live object,
so a rename or a deletion cannot leave a docstring or comment pointing at
code that is gone."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import vibroident

PACKAGE = Path(vibroident.__file__).parent
ROLE = re.compile(r":(?:func|class|meth|attr|data):`~?([^`]+)`")
MODULES = sorted(PACKAGE.rglob("*.py"))


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def walk(obj, parts):
    """``obj``'s attribute path ``parts``: through attributes, submodules
    and dataclass fields; None where a step does not resolve."""
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif isinstance(obj, type(vibroident)):
            try:
                obj = importlib.import_module(f"{obj.__name__}.{part}")
            except ModuleNotFoundError:
                return None
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return obj if i == len(parts) - 1 else None
        else:
            return None
    return obj


def resolves(target: str, module) -> bool:
    """An absolute ``vibroident.`` path; with leading dots, relative to the
    module's package; otherwise in the module's namespace, then relative
    to its package."""
    package = module.__name__ if module.__file__.endswith("__init__.py") else module.__name__.rpartition(".")[0]
    if target.startswith("vibroident."):
        return walk(vibroident, target.split(".")[1:]) is not None
    if target.startswith("."):
        name = importlib.util.resolve_name(target, package)
        return walk(vibroident, name.split(".")[1:]) is not None
    parts = target.split(".")
    return walk(module, parts) is not None or walk(importlib.import_module(package), parts) is not None


def references(path: Path):
    return [m.group(1).strip() for m in ROLE.finditer(path.read_text(encoding="utf-8"))]


def test_the_package_holds_references():
    assert sum(len(references(path)) for path in MODULES) >= 50


@pytest.mark.parametrize("path", MODULES, ids=module_name)
def test_references_name_live_objects(path):
    module = importlib.import_module(module_name(path))
    stale = [target for target in references(path) if not resolves(target, module)]
    assert not stale, f"{module.__name__} refers to {stale}"
