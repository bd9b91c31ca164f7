"""The README's Python quick start runs as written against the package.

A renamed function or a removed export then fails the suite instead of
leaving the documentation stale.
"""

import contextlib
import io
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Python quick start\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Python quick-start block"
    return match.group(1)


def test_readme_quick_start_runs():
    code = _quick_start()
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    # the first print is exact (closed form), and its comment says what it prints
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    assert out.getvalue().splitlines()[0] == first_print.split("#", 1)[1].strip()
