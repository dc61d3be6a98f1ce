"""Every ```python block of README.md runs as written, and every
`cavityqfi` command of its ```sh blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from cavityqfi import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.S | re.M)
# one command a line once continuations are joined, without its comment
COMMANDS = [shlex.split(line, comments=True)
            for block in re.findall(r"^```sh\n(.*?)^```", TEXT, flags=re.S | re.M)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("cavityqfi ")]


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c[1:]) for c in COMMANDS])
def test_readme_command_parses(argv):
    cli.build_parser().parse_args(cli._attach_negative_ranges(argv[1:]))
