"""The README's library tour runs as written.

Its ``python`` blocks execute in order in one namespace, from
``tests/fixtures/``, where the tour's ``forecasts.csv`` and ``truth.csv``
are, so a name the tour uses cannot drift away from the package.
"""

import argparse
import re
from pathlib import Path

from conftest import FIXTURES

from ensimp.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(FIXTURES)
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k + 1}", "exec"), namespace)


def test_cli_synopsis_lists_every_flag():
    """Each command's line in the README's CLI block names the flags it takes.

    ``--output`` and ``--format`` are left out there, and said once below it.
    """
    block = re.search(r"^```\n(ensimp .*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    synopsis: dict[str, set[str]] = {}
    for line in block.group(1).splitlines():
        if line.startswith("ensimp "):
            command = synopsis.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z-]+", line))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {f for a in sub._actions for f in a.option_strings if f.startswith("--")}
        - {"--help", "--output", "--format"}
        for name, sub in commands.choices.items()
    }
    assert synopsis == flags
