"""The README's two tables name exactly what they describe: one row per
command of the command line, and one row per module of the package."""

import itertools
import pkgutil
from pathlib import Path

import sikorski
from sikorski import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def first_column(header):
    """The first cells of the table whose header row is `header`, backticks
    dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    body = lines[lines.index(header) + 2 :]  # past the header and its rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), body)
    return [row.split("|")[1].strip().strip("`") for row in rows]


def test_the_command_table_lists_every_command():
    listed = first_column("| command | what it does |")
    assert sorted(listed) == sorted(cli._parser().commands)


def test_the_layout_table_lists_every_module():
    listed = first_column("| module | contents |")
    modules = [f"sikorski.{info.name}" for info in pkgutil.iter_modules(sikorski.__path__)]
    assert sorted(listed) == sorted(modules)
