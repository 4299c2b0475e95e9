"""README.md's Python examples run, in order, in one namespace, and its
command lines parse."""

import re
import shlex
from pathlib import Path

from csu21 import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_command_lines_parse():
    lines = [line for line in README.read_text().splitlines() if line.split()[:1] == ["csu21"]]
    commands = [shlex.split(line, comments=True)[1:] for line in lines]
    assert len(commands) >= 8
    for argv in commands:
        cli.build_parser().parse_args(argv)  # a usage error exits with status 2
