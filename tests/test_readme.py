"""Every command in the README's "Command line" block runs, exits 0 and
writes its recorded output, every subcommand appears in it, and every
option appears in the README."""
import argparse
import hashlib
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


# sha256 of each command's stdout and of the file its --out names, if any
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_OUTPUT_DIGESTS = {
    "qdisim --out fa.net build --variant early-output --n 1":
        (_EMPTY, "3afe86c93ddb0a0be68f7fd325e03f06cf7939eb040de6ef6045453a3850a7b3"),
    "qdisim measure --arch local --m 4":
        ("82d556605bf006a943ac219ab5c0e95ca040f422c6f8e92bc1137fa53cdb21d4", None),
    "qdisim --out sweep.csv sweep":
        (_EMPTY, "e51625407ef0b0b5640cc8bcebeceaa53e3d05cb895e87d5fdcafa11384f5551"),
    "qdisim sweep --m-range 4:28:4":
        ("64c4c1203e1bcfcc0fb81f7c0409e4d3a781fd0d4dc1334aa58730d7ffe365f6", None),
    "qdisim sweep --n 16":
        ("edcf091dd3a58ebf7b484b0146185545e0b3602645caf378c5ec9a5105f86c3b", None),
    "qdisim classify dims-strong":
        ("ae5a17b8a55c904f10868572cfec2ff8e2cd132f410917aeb341ab86e3a59d15", None),
    "qdisim classify early-output --n 4":
        ("9702a0b6de16b395a71fdf58bbfde5ac2a35f07f23f3b733e5028851b5283a67", None),
    "qdisim check --variant latency-opt-biased --n 32 --trials 1000":
        ("f9e9fe6bc693f252426495f239ecdb366d96e6a6dab7bfeb7946b0a45beb2cef", None),
    "qdisim check --n 4 --trials exhaustive":
        ("37defd7e19242bcaf6f08f82ff4a1e266c93e8ad1c7cf6d5e9a6e38c7b5fe075", None),
    "qdisim check --n 8 --trials exhaustive":
        ("ae1b4e48fd783b8f281102164227582084c8b54a0049d7165fbc758c7df1a437", None),
    "qdisim ring --arch local --stages 2 --n 8":
        ("e687e726594dec2ab9254d28dbfd5edd1f091469866d485d4b5258ed19208c52", None),
    "qdisim delays":
        ("8481a0e0bd064c064ebf79e209c4ca632ed4a25a3ac9e79a8979ec7f304fed5b", None),
}


@pytest.mark.parametrize("command", _commands())
def test_readme_command_exits_zero(command, tmp_path):
    """It exits 0 and writes the recorded bytes to stdout and to the file
    its --out names."""
    argv = shlex.split(command)[1:]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qdisim", *argv],
        capture_output=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    digests = [hashlib.sha256(proc.stdout).hexdigest()]
    digests.append(hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() if out else None)
    assert tuple(digests) == _OUTPUT_DIGESTS[command]


def test_every_option_is_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    parsers, options = [build_parser()], set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                options.update(action.option_strings)
    assert "--delay-table" in options and "--trials" in options
    assert {option for option in options if option not in readme} == set()
