"""Every command in the README's "Command line" block runs and exits 0,
and every subcommand appears in it."""
import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qdisim
from qdisim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = str(Path(qdisim.__file__).resolve().parents[1])


def _commands():
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = [line.split("#", 1)[0].strip() for line in block.group(1).splitlines()]
    return [line for line in lines if line.startswith("qdisim ")]


def test_the_block_has_commands():
    assert len(_commands()) >= 8


def test_every_subcommand_is_in_the_block():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    used = {parser.parse_args(shlex.split(command)[1:]).command for command in _commands()}
    assert set(sub.choices) - used == set()


@pytest.mark.parametrize("command", _commands())
def test_readme_command_exits_zero(command, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qdisim", *shlex.split(command)[1:]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
