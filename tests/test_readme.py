"""The README's two tables name exactly what they describe: one row per
command of the command line, and one row per module of the package; its
command examples parse; and its spec example is a spec that loads and
runs."""

import contextlib
import io
import itertools
import pkgutil
import shlex
from pathlib import Path

import sikorski
from sikorski import cli
from sikorski.specfile import load_spec

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


def test_the_command_examples_parse():
    """Every `sikorski` line of the sh blocks, its backslash continuations
    joined, parses, and names each flag in full: argparse would also take
    an abbreviation, which a renamed flag can leave behind."""
    blocks = [part.split("```", 1)[0] for part in README.read_text(encoding="utf-8").split("```sh\n")[1:]]
    text = "".join(blocks).replace("\\\n", " ")
    lines = [shlex.split(line) for line in text.splitlines() if line.startswith("sikorski ")]
    assert lines
    for argv in lines:
        cli._parser().parse_args(argv[1:])
        flags = cli._parser().commands[argv[1]]._option_string_actions
        assert [a for a in argv if a.startswith("--") and a.split("=")[0] not in flags] == []


def test_the_spec_example_loads_and_runs(tmp_path):
    """The README's spec example, beside the target spec its map names,
    loads, and both its experiments and its map check exit 0."""
    text = README.read_text(encoding="utf-8")
    example = text.split("```ini\n", 1)[1].split("```", 1)[0]
    spec = tmp_path / "example.spec"
    spec.write_text(example, encoding="utf-8")
    target = Path(sikorski.__file__).parent / "specs" / "unit_interval_compact.spec"
    (tmp_path / target.name).write_text(target.read_text(encoding="utf-8"), encoding="utf-8")
    assert load_spec(str(spec)).maps["squash"].target.name == "unit_interval"
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(spec), "--out", out]) == 0
        assert cli.main(["check-map", str(spec), "--map", "squash", "--out", out]) == 0
