"""The README's examples run as written against the package: the Python
quick start, and every ``fraclim`` command in its ``sh`` blocks.

A renamed function, a removed export or a command that no longer succeeds
then fails the suite instead of leaving the documentation stale.
"""

import contextlib
import io
import re
import shlex
import warnings
from pathlib import Path

import pytest

from fraclim.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"## Python quick start\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Python quick-start block"
    return match.group(1)


def _commands() -> list:
    """The argv of every ``fraclim`` command in the README's sh blocks, with
    continuation lines joined and comments dropped."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "fraclim":
                commands.append(argv[1:])
    return commands


COMMANDS = _commands()


def test_readme_quick_start_runs():
    code = _quick_start()
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    # the first print is exact (closed form), and its comment says what it prints
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    assert out.getvalue().splitlines()[0] == first_print.split("#", 1)[1].strip()


def test_readme_has_commands_of_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"eval", "lfd-scan", "leibniz", "verify-theorem"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch):
    # written files land in tmp_path; the corpus is read from the repository
    monkeypatch.chdir(tmp_path)
    argv = [str(ROOT / arg) if arg.startswith("corpus/") else arg for arg in argv]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        code = main(argv)
    assert code == 0, err.getvalue()
