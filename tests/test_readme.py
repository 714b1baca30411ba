"""The README's Python quickstart runs as written."""

import contextlib
import io
import pathlib
import re

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
