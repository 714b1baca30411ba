"""The package's public names, declared dependencies and the attributes
the benchmark hooks."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import click
import pytest

import numpy as np

import gmmcloud
from gmmcloud import em

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
BENCH = ROOT / "bench"
BENCH_SPANS = BENCH / "spans.py"
SRC = Path(gmmcloud.__file__).parent


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


def loaded_by_importing_the_cli(module: str) -> bool:
    """Whether `import gmmcloud.cli` loads the module, checked in a new
    interpreter, where no other test has imported anything yet."""
    src = os.path.dirname(os.path.dirname(gmmcloud.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, gmmcloud.cli; print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return {"True\n": True, "False\n": False}[proc.stdout]


def test_importing_the_cli_loads_no_scipy_cluster():
    # the k-means++ seeding partitions the points itself
    assert not loaded_by_importing_the_cli("scipy.cluster")


def test_importing_the_cli_loads_no_scipy_optimize():
    # only match_components uses it, and imports it when first called
    assert not loaded_by_importing_the_cli("scipy.optimize")


def hooked_sites():
    """The (module, attribute) pairs named in the HOOKS table of the
    benchmark's span recorder, read from its source without importing it."""
    tree = ast.parse(BENCH_SPANS.read_text(), filename=str(BENCH_SPANS))
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))
    return sorted({(node.elts[0].value, node.elts[1].value) for node in ast.walk(hooks)
                   if isinstance(node, ast.Tuple) and len(node.elts) == 2
                   and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                           for e in node.elts)
                   and node.elts[0].value.startswith("gmmcloud")})


def test_every_benchmark_hook_site_resolves():
    sites = hooked_sites()
    assert ("gmmcloud.em", "kmeans_init") in sites
    missing = [f"{module}.{attr}" for module, attr in sites
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_fit_em_calls_kmeans_init_through_the_module_attribute(monkeypatch):
    calls = []
    kmeans_init = em.kmeans_init

    def recorded(*args):
        calls.append(args[1:])
        return kmeans_init(*args)

    monkeypatch.setattr(em, "kmeans_init", recorded)
    cloud = gmmcloud.PointCloud(np.random.default_rng(0).normal(size=(40, 3)))
    em.fit_em(cloud, 2, em.FitConfig(seed=3))
    # one call per cloud, for every K the call fits
    assert [(list(ks), seed) for ks, seed in calls] == [([2], 3)]


def benchmark_gmmcloud_names():
    """Dotted names the benchmark reads from gmmcloud, from its source
    without importing it: every `from gmmcloud... import X` as module.X,
    and every attribute read off such a name X as module.X.attr."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.partition(".")[0] == "gmmcloud"):
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound:
                names.add(f"{bound[node.value.id]}.{node.attr}")
        names.update(bound.values())
    return names


def resolve(dotted):
    """The object a dotted gmmcloud name refers to, importing submodules
    on the way; AttributeError or ImportError when there is none."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_imports_resolves():
    names = benchmark_gmmcloud_names()
    assert {"gmmcloud.em.e_step", "gmmcloud.em.m_step", "gmmcloud.em.FitConfig",
            "gmmcloud.model.ensemble_log_density"} <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []
    # bench/workloads.py builds its fit settings this way
    assert resolve("gmmcloud.em.FitConfig")(seed=1).seed == 1


def named_references(paths):
    """For each name, the (path, owner) pairs that refer to it by an AST
    Name, Attribute or import alias; owner is the module-level function or
    class the reference sits in, None elsewhere."""
    references = {}
    for path in paths:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                references.setdefault(name, set()).add((path, owner))
    return references


def test_every_public_definition_is_used_exported_or_a_command():
    # a module-level function or class that the package and the benchmark
    # never name outside its own definition, that gmmcloud does not export
    # and that is no click command is code only the tests run: it belongs
    # in tests/, next to the tests that use it
    modules = sorted(SRC.glob("*.py"))
    references = named_references(modules + sorted(BENCH.rglob("*.py")))
    unused = []
    for path in modules:
        module = (gmmcloud if path.stem == "__init__"
                  else importlib.import_module(f"gmmcloud.{path.stem}"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            used = references.get(stmt.name, set()) - {(path, stmt.name)}
            if not (used or stmt.name in gmmcloud.__all__
                    or isinstance(getattr(module, stmt.name), click.Command)):
                unused.append(f"{path.stem}.{stmt.name}")
    assert unused == []
