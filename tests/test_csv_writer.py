"""The CSV writer, `sikorski.cli._write_csv`, against the row-at-a-time
reference in ``tests/csv_oracle.py``: the same rows must give the same
bytes, for generated rows of cells and for the three artifacts whose
size grows with the sample count.  A row with `_Column` cells stands for
a block of CSV rows, one per value.  Every number in every artifact of
the bundled specs' experiments must be in the reference's form."""

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import csv_oracle
import sikorski
from sikorski import _numfmt, cli
from sikorski.completion import complete, iota
from sikorski.space import embed
from sikorski.specfile import load_spec

SPECS = Path(sikorski.__file__).parent / "specs"
# an index column's prefix, and one csv.writer must quote around its mark
PREFIXES = ("", "base:", 'a,"\n')

# a column's value is finite: `_numfmt` refuses NaN and inf, and no sample or
# guarded sweep makes one; a constant cell goes through `cli._fmt`, which
# writes them
FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1e308]), st.floats(allow_nan=False, allow_infinity=False))
CONSTANT_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats())
TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "%", " ", "a", "é"]), max_size=5)
CONSTANT = st.one_of(TEXT, st.none(), st.integers(), CONSTANT_FLOATS, CONSTANT_FLOATS.map(np.float64))
COLUMN = st.sampled_from(PREFIXES).map(lambda prefix: cli._Column(None, prefix))  # values drawn in `rows`
HEADER = st.lists(TEXT, max_size=3)


def column_values(prefix):
    return FLOATS if prefix == "" else st.integers(0, 2**53).map(float)


@st.composite
def rows(draw):
    """A row as the writer takes it: constant cells and `_Column` cells,
    the columns all of one length."""
    cells = draw(st.lists(st.one_of(CONSTANT, COLUMN), max_size=5))
    n = draw(st.sampled_from([0, 1, 2, 7]))
    return [
        c._replace(values=np.array(draw(st.lists(column_values(c.prefix), min_size=n, max_size=n)), dtype=float))
        if isinstance(c, cli._Column)
        else c
        for c in cells
    ]


def oracle_rows(row):
    """The CSV rows of a row, one list of cells each, as the reference takes them."""
    columns = [c.values.tolist() for c in row if isinstance(c, cli._Column)]
    for values in zip(*columns) if columns else [()]:
        it = iter(values)
        yield [c.prefix + "%.17g" % next(it) if isinstance(c, cli._Column) else c for c in row]


def assert_same_bytes(header, row_list):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        cli._write_csv(got, header, row_list)
        csv_oracle.write_csv(want, header, [out for row in row_list for out in oracle_rows(row)])
        assert Path(got).read_bytes() == Path(want).read_bytes()


@settings(max_examples=300, deadline=None)
@given(HEADER, st.lists(rows(), max_size=4), st.sampled_from([1, 2, 3]))
@example([""], [[None], [""]], 1)  # a lone empty cell is quoted
@example(["a"], [[cli._Column(np.empty(0))]], 1)  # a column with no values writes nothing
def test_block_writer_matches_the_row_writer(header, row_list, slice_rows):
    with mock.patch.object(cli, "_SLICE_ROWS", slice_rows):  # every column of 2 or more values spans slices
        assert_same_bytes(header, row_list)


REFUSED = ["x\0", "\0", "a" + cli._MARK, cli._MARK]


@pytest.mark.parametrize("cell", REFUSED)
@pytest.mark.parametrize("in_header", [True, False])
def test_a_constant_cell_holding_nul_or_the_mark_is_refused(tmp_path, cell, in_header):
    """NUL is the fields' padding and the mark a column's place, so a
    constant cell holding either would be written wrong."""
    column = cli._Column(np.array([1.5]))
    header, row = ([cell], [column]) if in_header else (["x"], [cell, column])
    with pytest.raises(ValueError, match="cannot hold NUL or U\\+E000"):
        cli._write_csv(str(tmp_path / "t.csv"), header, [row])


@pytest.mark.parametrize("prefix", REFUSED)
def test_a_column_prefix_holding_nul_or_the_mark_is_refused(tmp_path, prefix):
    """A column's prefix is constant text in every one of its CSV rows."""
    with pytest.raises(ValueError, match="cannot hold NUL or U\\+E000"):
        cli._write_csv(str(tmp_path / "t.csv"), ["x"], [[cli._Column(np.array([1.5]), prefix)]])


def test_a_block_spans_full_size_slices():
    n = 2 * cli._SLICE_ROWS + 3
    columns = [cli._Column(np.arange(n, dtype=float)), cli._Column(np.linspace(-1.0, 1.0, n) ** 3)]
    assert_same_bytes(["i", "x"], [(columns[0], "x,y", columns[1])])


@pytest.mark.parametrize("values", [[], [1.5], [0.0, -2.5e-300, 1e22, 5e-324, 123456789.0]])
def test_the_kernel_gives_c_ordered_rows(values):
    """The writer lays the fields beside the constant bytes and ravels the
    result; rows in C order make that ravel a view, not a copy."""
    out = _numfmt.fields(np.array(values, dtype=float))
    assert out.flags.c_contiguous
    assert [bytes(row).replace(b"\0", b"").decode() for row in out] == ["%.17g" % v for v in values]


def run_main(*argv):
    assert cli.main(list(argv)) == 0


KERNEL_LOADED = """
import sys
from sikorski import cli
assert cli.main(sys.argv[1:]) == 0
print("sikorski._numfmt" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [(["verify-filters", "--max-size", "2"], False), (["embed", str(SPECS / "real_line_atan.spec")], True)],
)
def test_the_kernel_is_imported_by_the_first_block_with_slots(tmp_path, argv, loaded):
    """In a fresh interpreter: a command whose artifacts have no row with
    columns never builds the kernel's tables."""
    proc = subprocess.run(
        [sys.executable, "-c", KERNEL_LOADED, *argv, "--out", str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


def test_embed_writes_the_row_writers_bytes(tmp_path):
    spec = str(SPECS / "parabola_refinement.spec")  # 22,001 samples, several slices
    run_main("embed", spec, "--out", str(tmp_path), "--label", "e")
    space = load_spec(spec).space
    cloud = embed(space)
    header = ["point_index", *space.carrier.params, *cloud.names]
    rows = enumerate(np.hstack([cloud.params, cloud.coords]).tolist())
    csv_oracle.write_csv(str(tmp_path / "want.csv"), header, ([i, *row] for i, row in rows))
    assert (tmp_path / "e_points.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_points_write_the_row_writers_bytes(tmp_path):
    spec = load_spec(str(SPECS / "real_line_atan.spec"))
    run_main("complete", spec.path, "--family", "g", "--tol", "1e-3", "--out", str(tmp_path), "--label", "c")
    cs = complete(spec.space.with_generators(["g"]), spec.probes, tol=1e-3, tail=50)
    assert cs.adjoined  # both kinds of row are written
    base = (["base", "", *row] for row in cs.base.coords.tolist())
    adjoined = (["adjoined", a.probe, *a.coords] for a in cs.adjoined)
    rows = [*base, *adjoined]
    csv_oracle.write_csv(str(tmp_path / "want.csv"), ["point_kind", "probe_name", *cs.names], rows)
    assert (tmp_path / "c_points.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_iota_writes_the_row_writers_bytes(tmp_path):
    spec = load_spec(str(SPECS / "spiral.spec"))
    run_main("complete", spec.path, "--subfamily", "a,b", "--tol", "1e-3", "--out", str(tmp_path), "--label", "p")
    cs = complete(spec.space, spec.probes, tol=1e-3, tail=50)
    rep = iota(cs, complete(spec.space.with_generators(["a", "b"]), spec.probes, tol=1e-3, tail=50))
    assert rep.entries
    base = ([f"base:{i}", f"base:{i}", *row] for i, row in enumerate(rep.base.tolist()))
    entries = ([e.source, e.target, *e.coords] for e in rep.entries)
    rows = [*base, *entries]
    csv_oracle.write_csv(str(tmp_path / "want.csv"), ["source", "target", *rep.sub_names], rows)
    assert (tmp_path / "p_iota.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("spec", sorted(p.name for p in SPECS.glob("*.spec")))
def test_every_number_of_a_run_is_written_as_percent_g(tmp_path, spec):
    run_main("run", str(SPECS / spec), "--out", str(tmp_path))
    cells = 0
    for path in sorted(tmp_path.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert cell == "%.17g" % value, (path.name, cell)
                    cells += 1
    assert cells
