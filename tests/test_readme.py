"""The README's Python quickstart runs as written, its shell lines use
only options the CLI has, and its backticked calls name what the package
has."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import gmmcloud
from gmmcloud.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quickstart_source():
    text = README.read_text()
    section = text[text.index("## Python quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quickstart_runs_and_classifies():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_source(), str(README), "exec"), {"__name__": "quickstart"})
    assert out.getvalue().splitlines()[-1] == "demented"


def readme_command_lines():
    """(command, --options) of every `gmmcloud <command>` line in the
    README's shell blocks."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL):
        for line in block.splitlines():
            words = line.split("#")[0].split()
            if words[:1] == ["gmmcloud"]:
                yield words[1], [w.split("=")[0] for w in words[2:] if w.startswith("--")]


def test_readme_command_lines_use_existing_options():
    lines = list(readme_command_lines())
    assert len(lines) > 10
    for name, options in lines:
        assert name in main.commands, f"README runs unknown command gmmcloud {name}"
        known = {opt for param in main.commands[name].params
                 for opt in param.opts + param.secondary_opts}
        for option in options:
            assert option in known, f"README passes gmmcloud {name} unknown option {option}"


def readme_calls():
    """The name of every backticked call `name(` in the README."""
    return re.findall(r"`([A-Za-z_][\w.]*)\(", README.read_text())


def resolves(dotted):
    """Whether the dotted name is an attribute of gmmcloud or of one of its
    submodules."""
    modules = [gmmcloud] + [importlib.import_module(f"gmmcloud.{info.name}")
                            for info in pkgutil.iter_modules(gmmcloud.__path__)]
    for obj in modules:
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_calls_name_what_the_package_has():
    calls = readme_calls()
    assert len(calls) > 5
    stale = [name for name in calls if not resolves(name)]
    assert stale == [], f"README calls names the package lacks: {stale}"
