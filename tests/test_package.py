"""The package's public names and declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import gmmcloud

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves_once():
    names = gmmcloud.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gmmcloud, name)]
    assert missing == []


def imported_top_level_names(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in requirements}
    imported = set()
    for module in Path(gmmcloud.__file__).parent.rglob("*.py"):
        imported |= imported_top_level_names(module)
    third_party = imported - set(sys.stdlib_module_names) - {"gmmcloud"}
    assert {"numpy", "scipy", "click"} <= third_party
    assert third_party <= declared
