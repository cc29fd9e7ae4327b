"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "the quick start has no python block"
    return match.group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {"__name__": "quick_start"})
    eta, bound = out.getvalue().splitlines()[-1].split(" <= ")
    assert 0.0 < float(eta) <= float(bound)
