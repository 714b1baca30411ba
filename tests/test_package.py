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
from gmmcloud.io import write_point_cloud
from gmmcloud.shapes import make_bent_tube, tube_spec_for_class

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


def declared_requirements():
    """Distribution names in pyproject.toml's dependencies and in its test
    extra, lower-cased with '-' as '_'."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in requirements}

    return names(project["dependencies"]), names(project["optional-dependencies"]["test"])


def third_party_imports(paths):
    """Top-level modules the files import that are neither the standard
    library, gmmcloud nor one of the files themselves."""
    paths = list(paths)
    imported = set()
    for path in paths:
        imported |= imported_top_level_names(path)
    return imported - set(sys.stdlib_module_names) - {"gmmcloud"} - {p.stem for p in paths}


def test_every_third_party_import_is_a_declared_dependency():
    runtime, _ = declared_requirements()
    third_party = third_party_imports(SRC.rglob("*.py"))
    assert third_party == {"numpy", "click"}
    assert third_party <= runtime


def test_every_third_party_import_of_the_tests_is_declared():
    runtime, test_extra = declared_requirements()
    third_party = third_party_imports(Path(__file__).parent.glob("*.py"))
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= third_party
    assert third_party <= runtime | test_extra


def package_env() -> dict:
    """The environment for a new interpreter that imports this checkout's
    gmmcloud, where no other test has imported anything yet."""
    src = os.path.dirname(os.path.dirname(gmmcloud.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def loaded_by_importing_the_cli(module: str) -> bool:
    """Whether `import gmmcloud.cli` loads the module, checked in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, gmmcloud.cli; print({module!r} in sys.modules)"],
        env=package_env(), capture_output=True, text=True, timeout=120, check=True)
    return {"True\n": True, "False\n": False}[proc.stdout]


def test_importing_the_cli_loads_no_scipy_cluster():
    # the k-means++ seeding partitions the points itself
    assert not loaded_by_importing_the_cli("scipy.cluster")


def test_importing_the_cli_loads_no_scipy_optimize():
    # match_components solves its assignment in NumPy
    assert not loaded_by_importing_the_cli("scipy.optimize")


def test_an_interpolate_command_loads_no_scipy(tmp_path):
    # in a new interpreter, where no other test has imported anything yet
    for seed, label in enumerate(("nondemented", "demented")):
        cloud = make_bent_tube(tube_spec_for_class(label, n_points=200), seed=seed)
        write_point_cloud(cloud, str(tmp_path / f"{label}.xyz"))
    args = ["interpolate", str(tmp_path / "nondemented.xyz"), str(tmp_path / "demented.xyz"),
            "--ks", "1,2,4", "-o", str(tmp_path / "morph")]
    code = ("import sys\n"
            "from gmmcloud.cli import main\n"
            f"main({args!r}, standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert (tmp_path / "morph" / "filmstrip.svg").is_file()
    assert proc.stdout.splitlines()[-1] == "[]"


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


def module_definitions(path):
    """The (statement, name) pairs of a module's top-level definitions:
    each function and class, and each name an assignment binds, every
    name of a tuple target included."""
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt, stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for node in (node for target in targets for node in ast.walk(target)):
                if isinstance(node, ast.Name):
                    yield stmt, node.id


def named_references(paths):
    """For each name, the (path, line) pairs that refer to it by an AST
    Name, Attribute or import alias; line is that of the top-level
    statement the reference sits in, so a definition's own statement can
    be told apart."""
    references = {}
    for path in paths:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                else:
                    continue
                references.setdefault(name, set()).add((path, stmt.lineno))
    return references


def unreferenced_definitions(selected):
    """module.name of each top-level definition in src/ that
    selected(statement, name) picks, that the package and the benchmark
    never name outside its own statement, that gmmcloud does not export
    and that is no click command."""
    modules = sorted(SRC.glob("*.py"))
    references = named_references(modules + sorted(BENCH.rglob("*.py")))
    unused = []
    for path in modules:
        module = (gmmcloud if path.stem == "__init__"
                  else importlib.import_module(f"gmmcloud.{path.stem}"))
        for stmt, name in module_definitions(path):
            if not selected(stmt, name):
                continue
            used = references.get(name, set()) - {(path, stmt.lineno)}
            if not (used or name in gmmcloud.__all__
                    or isinstance(getattr(module, name), click.Command)):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_definition_is_used_exported_or_a_command():
    # a module-level function or class that the package and the benchmark
    # never name outside its own definition, that gmmcloud does not export
    # and that is no click command is code only the tests run: it belongs
    # in tests/, next to the tests that use it
    assert unreferenced_definitions(
        lambda stmt, name: isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_")) == []


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    # an export that no module but __init__.py and nothing in the
    # benchmark names is an entry point for callers that do not exist
    references = named_references(
        [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
        + sorted(BENCH.rglob("*.py")))
    assert [name for name in gmmcloud.__all__ if name not in references] == []


def test_every_private_definition_and_constant_is_used():
    # a private function or class, or a constant, public or private and
    # tuple targets included, that nothing in the package or the
    # benchmark names outside its own statement is dead code or a
    # test-only name; dunders such as __all__ are the language's
    assert unreferenced_definitions(
        lambda stmt, name: not (name.startswith("__") and name.endswith("__"))
        and (name.startswith("_") or isinstance(stmt, (ast.Assign, ast.AnnAssign)))) == []
