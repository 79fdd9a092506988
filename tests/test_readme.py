"""The README's CLI examples and its table of bounds selectors are true."""

import inspect
import re
import shlex
from pathlib import Path

from turan_matroids.bounds import CLOSED_FORMS

from test_formats_cli import run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def run_pipeline(command: str) -> str:
    """Run ``a | b | ...`` in-process, each stage reading the previous
    stage's stdout; returns the last stdout."""
    text = ""
    for stage in command.split("|"):
        argv = shlex.split(stage)
        assert argv[0] == "turan-matroids"
        code, text = run_cli(argv[1:], stdin_text=text)
        assert code == 0, stage
    return text


def test_readme_cli_examples():
    examples = re.findall(r"^(turan-matroids .*?)\s+# (.+)$", README, re.MULTILINE)
    assert [expected for _, expected in examples] == [
        "28", "absent", "two-lines", "4", "224", "7", "max_bases 18",
        "max_bases 28", "max_bases 30", "max_bases 16", "16", "max_bases 312", "312", "max_bases 616", "616",
        "value 0.106508875740", "value 0.120937263794", "value 0.062500000000",
        "value 0.081632653061",
    ]
    for command, expected in examples:
        first_line = run_pipeline(command).splitlines()[0]
        # a one-word comment is the first word, a longer one the whole line
        got = first_line if " " in expected else first_line.split()[0]
        assert got == expected, command


def test_readme_lists_every_bounds_selector():
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \|", README, re.MULTILINE)
    listed = {sel: re.findall(r"--(\w+)", flags) for sel, flags in rows if sel in CLOSED_FORMS}
    assert listed == {
        sel: list(inspect.signature(fn).parameters) for sel, fn in CLOSED_FORMS.items()
    }
