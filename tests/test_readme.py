"""The README's command-line examples, run through ``cli.main``.

Each ``descmat`` line of the "Command line" block must exit 0.  A
trailing comment that is a bare value (no spaces) is the whole stdout;
one that ends in ``...`` is a prefix of it.
"""

import shlex
from pathlib import Path

import pytest

from descmat.cli import main
from test_cli import SUBCOMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"


def command_lines():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("descmat ")]


def test_the_block_lists_every_subcommand():
    # guards the parse above: a block it cannot find would run no command
    used = {shlex.split(line, comments=True)[1] for line in command_lines()}
    assert used == set(SUBCOMMANDS)


@pytest.mark.parametrize("line", command_lines())
def test_readme_command(capsys, line):
    command, _, comment = line.partition("#")
    comment = comment.strip()
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    if comment.endswith("..."):
        assert out.startswith(comment[: -len("...")])
    elif comment and " " not in comment:
        assert out == comment + "\n"
