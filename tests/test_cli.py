"""End-to-end checks of the command line interface.

Most tests shell out with ``python -m sikorski.cli`` so that argument
parsing, exit codes, and artifact files are exercised exactly the way a
user sees them; the fuzz test and a few others call ``cli.main`` in
process, which returns the exit status.  Artifact contents are pinned to
the digit where the values are deterministic.
"""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import math
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sikorski
from sikorski import cli, specfile, tangent
from sikorski import space as space_module
from sikorski.expr import MAX_DEPTH
from sikorski.space import embed

SPECS = Path(sikorski.__file__).parent / "specs"
REAL_LINE = str(SPECS / "real_line_atan.spec")
UNIT_INTERVAL = str(SPECS / "unit_interval_compact.spec")
PARABOLA = str(SPECS / "parabola_refinement.spec")
SPIRAL = str(SPECS / "spiral.spec")


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "sikorski.cli", *argv],
        capture_output=True,
        text=True,
    )


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_report(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "compactify" in proc.stdout
    assert "verify-filters" in proc.stdout


def test_complete_adjoins_arctan_endpoints(tmp_path):
    proc = run_cli(
        "complete", REAL_LINE,
        "--family", "g", "--tol", "1e-3", "--tail", "50",
        "--out", str(tmp_path), "--label", "arc",
    )
    assert proc.returncode == 0
    assert proc.stdout == "complete: 2 adjoined, 0 duplicate(s)\n"

    rows = read_rows(tmp_path / "arc_points.csv")
    assert rows[0] == ["point_kind", "probe_name", "g"]
    assert len(rows) == 1 + 2201 + 2
    assert rows[-2] == ["adjoined", "pplus", "1.5698209998564814"]
    assert rows[-1] == ["adjoined", "pminus", "-1.5698209998564814"]

    report = read_report(tmp_path / "arc_report.txt")
    assert report[0].startswith("probe pplus: cauchy")
    assert "limit (1.5698209998564814)" in report[0]
    # the completeness line follows the duplicates line and agrees with the count
    assert report[-3:] == [
        "adjoined: 2",
        "duplicates: none",
        "complete over g: no (probe pplus, 2.8339506719099461e-07 from the nearest sample)",
    ]


def test_complete_identity_family_adjoins_nothing(tmp_path):
    proc = run_cli(
        "complete", REAL_LINE,
        "--family", "f", "--tol", "1e-3", "--tail", "50",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "complete: 0 adjoined, 0 duplicate(s)\n"
    # default label is the command name
    report = read_report(tmp_path / "complete_report.txt")
    assert report[0] == "probe pplus: escaping  oscillation[f=49]  limit -"
    assert report[-1] == "complete over f: yes"


def test_complete_subfamily_writes_iota(tmp_path):
    proc = run_cli(
        "complete", REAL_LINE,
        "--subfamily", "g", "--tol", "1e-3", "--tail", "50",
        "--out", str(tmp_path), "--label", "proj",
    )
    assert proc.returncode == 0

    rows = read_rows(tmp_path / "proj_iota.csv")
    assert rows[0] == ["source", "target", "g"]
    # the full family adjoins nothing, so only base points get mapped
    assert len(rows) == 1 + 2201

    report = read_report(tmp_path / "proj_report.txt")
    assert "iota residual g: 0" in report
    assert "iota uncovered: pplus, pminus" in report


def test_compactify_compact_interval(tmp_path):
    proc = run_cli(
        "compactify", UNIT_INTERVAL, "--tol", "1e-6",
        "--out", str(tmp_path), "--label", "compact",
    )
    assert proc.returncode == 0
    assert proc.stdout == "compactify: 0 adjoined, 2 duplicate(s)\n"
    report = read_report(tmp_path / "compact_report.txt")
    assert report[0] == "normalized g: sup 1 at sample 100"
    assert "adjoined: 0" in report
    assert report[-1] == "duplicates: plow, phigh"  # no completeness line


def sweeps_and_embeddings(monkeypatch):
    """Lists that record the row count of each chart evaluation over a
    carrier's samples and the family of each generator evaluation over
    them: the work `sample` and `embed` do when their memo misses."""
    sweeps, embeddings = [], []
    chart_columns, generator_columns = space_module.chart_columns, space_module.generator_columns

    def counted_chart(carrier, params):
        sweeps.append(len(params))
        return chart_columns(carrier, params)

    def counted_generators(space, ambient):
        embeddings.append(space.family.names)
        return generator_columns(space, ambient)

    monkeypatch.setattr(space_module, "chart_columns", counted_chart)
    monkeypatch.setattr(space_module, "generator_columns", counted_generators)
    return sweeps, embeddings


def test_compactify_sweeps_the_carrier_once(tmp_path, monkeypatch):
    """Normalizing the whole family and embedding it share one chart
    evaluation over the samples, however many generators the family has."""
    sweeps, _ = sweeps_and_embeddings(monkeypatch)
    rc, out, err = run_in_process([
        "compactify", UNIT_INTERVAL, "--family", "maximal:3", "--out", str(tmp_path),
    ])
    assert (rc, err) == (0, "")
    assert out == "compactify: 0 adjoined, 2 duplicate(s)\n"
    assert sweeps == [101]
    # the next invocation sweeps again: no memo outlives its command line
    assert run_in_process(["compactify", UNIT_INTERVAL, "--out", str(tmp_path)])[0] == 0
    assert sweeps == [101, 101]


def test_compactify_reports_the_first_failing_generator(tmp_path):
    """Generators are checked in family order, not in sample order: z
    fails normalization before r's domain error at x = 1/2 is met, and
    r's division by zero at x = 1 is reported before s's at x = 0, which
    a plain sweep of the family would report.  So it is when r is the
    base of a maximal family: r's guard is noted under r, not under the
    monomials r^2 and r*s that read it."""
    spec = tmp_path / "order.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 3\n\n"
        "[generators]\nz = x - x\nr = 1/(x - 1/2)\n",
        encoding="utf-8",
    )
    rc, out, err = run_in_process(["compactify", str(spec), "--out", str(tmp_path)])
    assert rc == 1
    assert out == ""
    assert err == (
        "sikorski compactify (compactify): invariant violated:"
        " generator z is identically zero on the samples\n"
    )
    spec = tmp_path / "late.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 3\n\n"
        "[generators]\nr = 1/(x - 1)\ns = 1/x\n",
        encoding="utf-8",
    )
    for family in ([], ["--family", "maximal:2"]):
        rc, out, err = run_in_process(["compactify", str(spec), *family, "--out", str(tmp_path)])
        assert (rc, out, err) == (
            1,
            "",
            "sikorski compactify (compactify): invariant violated: generator r at (1.0,): division by zero\n",
        )


@pytest.mark.xfail(
    strict=True,
    reason="normalize scales by the sup over the samples alone, and probe c0's"
    " limit in a lies beyond it: adjoined coordinate a of c0 leaves [-1, 1]",
)
def test_spiral_compactification_stays_in_the_cube(tmp_path):
    rc, out, err = run_in_process([
        "compactify", str(SPECS / "spiral.spec"), "--family", "a,b", "--tol", "1e-3",
        "--out", str(tmp_path),
    ])
    assert (rc, err) == (0, "")
    header, *rows = read_rows(tmp_path / "compactify_points.csv")
    assert header == ["point_kind", "probe_name", "a", "b"]
    assert rows
    assert all(abs(float(v)) <= 1.0 for row in rows for v in row[2:])


def test_compactify_divergent_generator_exits_one(tmp_path):
    proc = run_cli(
        "compactify", REAL_LINE, "--family", "f",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "sikorski compactify (compactify): invariant violated:"
    )
    assert "diverges toward" in proc.stderr


def test_boundize_artifact(tmp_path):
    proc = run_cli(
        "boundize", REAL_LINE,
        "--omega", "u1", "--gens", "f", "--point", "0",
        "--out", str(tmp_path), "--label", "bset",
    )
    assert proc.returncode == 0
    assert "residual 0 on 3 local sample(s)" in proc.stdout
    rows = read_rows(tmp_path / "bset_boundize.csv")
    assert rows[0] == ["generator", "mu", "max_abs_gamma", "local_residual"]
    assert rows[1] == ["f", "2", "0.49999954545455694", "0"]


def test_boundize_singular_witness_exits_one(tmp_path):
    proc = run_cli(
        "boundize", REAL_LINE,
        "--omega", "log(u1)", "--gens", "f", "--point", "0.5",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "sikorski boundize (compactify): invariant violated:"
        " witness log(u1) at (0.0,): log of non-positive value 0.0\n"
    )


def log_spec(tmp_path) -> str:
    """The real-line spec with a generator h = log(x), singular at 0."""
    text = Path(REAL_LINE).read_text(encoding="utf-8").replace("g = atan(x)\n", "g = atan(x)\nh = log(x)\n")
    (tmp_path / "unit_interval_compact.spec").write_text(Path(UNIT_INTERVAL).read_text(encoding="utf-8"))
    spec = tmp_path / "log.spec"
    spec.write_text(text, encoding="utf-8")
    return str(spec)


def test_boundize_names_a_generator_singular_at_the_point(tmp_path):
    rc, _, err = run_in_process([
        "boundize", log_spec(tmp_path), "--omega", "u1", "--gens", "h", "--point", "0", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err == (
        "sikorski boundize (compactify): invariant violated:"
        " generator h at (0.0,): log of non-positive value 0.0\n"
    )


def test_tangent_names_a_derivative_singular_at_the_point(tmp_path):
    rc, _, err = run_in_process([
        "tangent", log_spec(tmp_path), "--point", "0", "--vector", "1", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err == (
        "sikorski tangent (tangent): invariant violated:"
        " derivative of log(x) along x at (0.0,): division by zero\n"
    )


def test_tangent_names_a_function_singular_at_the_point(tmp_path):
    # a zero vector skips every derivative; the Leibniz check still
    # evaluates h at the point
    rc, _, err = run_in_process([
        "tangent", log_spec(tmp_path), "--point", "0", "--vector", "0", "--functions", "f,h",
        "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err == (
        "sikorski tangent (tangent): invariant violated:"
        " function log(x) at (0.0,): log of non-positive value 0.0\n"
    )


def test_tangent_names_a_map_component_singular_at_the_point(tmp_path):
    spec = log_spec(tmp_path)
    with open(spec, "a", encoding="utf-8") as fh:
        fh.write("\n[map m]\ntarget = unit_interval_compact.spec\ncomponent x = log(x)\nwitness g = u1 : h\n")
    rc, _, err = run_in_process([
        "tangent", spec, "--point", "0", "--vector", "0", "--functions", "f", "--map", "m", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err == (
        "sikorski tangent (tangent): invariant violated:"
        " map component x at (0.0,): log of non-positive value 0.0\n"
    )


def test_tangent_fails_on_a_derivative_that_overflows(tmp_path):
    # d(x*x) along 1e308 is inf; the product-rule residual used to read nan,
    # which no bound rejects, and the command exited 0
    proc = run_cli("tangent", REAL_LINE, "--point", "1", "--vector", "1e308", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "nan" not in proc.stdout
    assert proc.stderr == (
        "sikorski tangent (tangent): invariant violated:"
        " derivative of x * x along (1e+308,) at (1.0,): weighted sum inf is not finite\n"
    )


def test_compare_uniform_finds_witness_pairs(tmp_path):
    proc = run_cli(
        "compare-uniform", PARABOLA,
        "--g-family", "f1", "--h-family", "f2",
        "--target-eps", "1", "--eps-grid", "1,0.1,0.01",
        "--out", str(tmp_path), "--label", "refine",
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("compare-uniform: 3 of 3 widths produced a witness")

    rows = read_rows(tmp_path / "refine_refinement.csv")
    assert rows[0] == ["candidate_eps", "refines", "target", "violated", "d_g", "x_t", "y_t"]
    assert [r[0] for r in rows[1:]] == ["1", "0.10000000000000001", "0.01"]
    for r in rows[1:]:
        assert r[1] == "false"
        assert r[2] == "V(f2;1.0)"
        assert r[3] == "f2"
        x, y, d = float(r[5]), float(r[6]), float(r[4])
        assert d < float(r[0])
        assert abs(x * x - y * y) >= 1.0
    assert rows[1][5:] == ["0.01", "1.0050000000000001"]


def test_tangent_artifact(tmp_path):
    proc = run_cli(
        "tangent", REAL_LINE,
        "--point", "1", "--vector", "1",
        "--functions", "f,g", "--map", "squash",
        "--out", str(tmp_path), "--label", "tan",
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "apply f = 1"
    rows = read_rows(tmp_path / "tan_tangent.csv")
    assert rows == [
        ["kind", "name", "value"],
        ["apply", "f", "1"],
        ["apply", "g", "0.5"],
        ["leibniz", "f*f", "0"],
        ["leibniz", "f*g", "0"],
        ["leibniz", "g*g", "0"],
        ["pushforward", "squash.x", "-0.5"],
        ["image", "squash.x", "0.5"],
        ["chain", "squash:g", "0"],
    ]


def test_check_map_report(tmp_path):
    proc = run_cli(
        "check-map", REAL_LINE, "--map", "squash", "--tol", "1e-9",
        "--out", str(tmp_path), "--label", "sq",
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = read_rows(tmp_path / "sq_map.csv")
    assert rows == [["generator", "max_residual"], ["g", "0"]]
    report = read_report(tmp_path / "sq_report.txt")
    assert report[0] == "map squash -> unit_interval"
    assert report[1] == "smooth within 1.0000000000000001e-09: yes"
    assert report[2].startswith("max residual: 0 at ")


def test_verify_filters_models(tmp_path):
    proc = run_cli(
        "verify-filters", "--max-size", "3",
        "--out", str(tmp_path), "--label", "filt",
    )
    assert proc.returncode == 0
    assert "counterexamples: none" in proc.stdout

    rows = read_rows(tmp_path / "filt_models.csv")
    assert rows[0] == ["ground_size", "model_index", "entourages", "filters", "checks", "failures"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "2", "3", "3", "3", "3", "3"]
    assert all(r[5] == "0" for r in rows[1:])
    assert all(int(r[4]) > 0 for r in rows[1:])

    report = read_report(tmp_path / "filt_report.txt")
    assert any("counterexamples: none" in line for line in report)


def test_run_executes_declared_experiments(tmp_path):
    proc = run_cli("run", UNIT_INTERVAL, "--out", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "run compact_interval: compactify --tol 1e-6"
    assert "compactify: 0 adjoined, 2 duplicate(s)" in proc.stdout
    assert (tmp_path / "compact_interval_points.csv").exists()
    assert (tmp_path / "compact_interval_report.txt").exists()


def test_run_unknown_label_exits_two(tmp_path):
    proc = run_cli("run", UNIT_INTERVAL, "bogus", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "spec declares no experiment(s)" in proc.stderr


def test_missing_spec_file_exits_two(tmp_path):
    proc = run_cli("complete", str(tmp_path / "nope.spec"), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("sikorski complete:")
    assert "cannot read spec" in proc.stderr


@pytest.mark.parametrize(
    "command", [["complete", "--tol", "0"], ["compactify", "--tail", "1"], ["check-map", "--map", "m", "--tol", "-1"]]
)
def test_a_bad_spec_is_reported_before_a_bad_flag(tmp_path, command):
    """Every command loads its spec before it checks its flag values."""
    rc, out, err = run_in_process([command[0], str(tmp_path / "nope.spec"), *command[1:], "--out", str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"sikorski {command[0]}: ") and "cannot read spec" in err


def test_unknown_family_exits_two(tmp_path):
    proc = run_cli(
        "complete", REAL_LINE, "--family", "zap",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    assert "no generator named 'zap'" in proc.stderr


def test_an_unknown_probe_is_reported_like_an_unknown_generator(tmp_path):
    proc = run_cli("complete", REAL_LINE, "--probes", "pplus,nope", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == "sikorski complete: --probes: no probe named 'nope'\n"


BAD_FLAG_VALUES = [
    (["complete", REAL_LINE, "--subfamily", "zap"], "--subfamily"),
    (["compare-uniform", REAL_LINE, "--g-family", "zap", "--h-family", "g", "--eps-grid", "0.1"], "--g-family"),
    (["compare-uniform", REAL_LINE, "--g-family", "g", "--h-family", "zap", "--eps-grid", "0.1"], "--h-family"),
    (["boundize", REAL_LINE, "--omega", "u1", "--gens", "zap", "--point", "0"], "--gens"),
    (["tangent", REAL_LINE, "--point", "1", "--vector", "1", "--functions", "f,zap"], "--functions"),
    (["complete", REAL_LINE, "--family", "g", "--tail", "1"], "--tail"),
    (["compactify", UNIT_INTERVAL, "--tail", "1"], "--tail"),
    (["complete", REAL_LINE, "--family", "g", "--tol", "0"], "--tol"),
    (["check-map", REAL_LINE, "--map", "squash", "--tol=-1e-9"], "--tol"),
    (["verify-filters", "--max-size", "9"], "--max-size"),
    (["complete", REAL_LINE, "--family", "maximal:0"], "--family"),
    (["embed", REAL_LINE, "--family", "maximal:-2"], "--family"),
    (["complete", REAL_LINE, "--family", "g,g"], "--family"),
    (["complete", REAL_LINE, "--family", "f,g", "--subfamily", "g, g"], "--subfamily"),
    (["compare-uniform", REAL_LINE, "--g-family", "f,g,f", "--h-family", "g", "--eps-grid", "0.1"], "--g-family"),
    (["compare-uniform", REAL_LINE, "--g-family", "g", "--h-family", "g,g", "--eps-grid", "0.1"], "--h-family"),
    (["boundize", REAL_LINE, "--omega", "u1", "--gens", "f,f", "--point", "0"], "--gens"),
    (["tangent", REAL_LINE, "--point", "1", "--vector", "1", "--functions", "g,f,g"], "--functions"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "0"], "--eps-grid"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1,-0.5"], "--eps-grid"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1e-400"], "--eps-grid"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "0/0"], "--eps-grid"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1", "--target-eps", "0"], "--target-eps"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1", "--target-eps=-1"], "--target-eps"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1", "--target-eps", "nan"], "--target-eps"),
    (["tangent", REAL_LINE, "--point", "1,2", "--vector", "1"], "--point"),
    (["tangent", REAL_LINE, "--point", "1", "--vector", "1,0"], "--vector"),
    (["boundize", REAL_LINE, "--omega", "u1", "--gens", "f", "--point", "1,2"], "--point"),
    (["embed", REAL_LINE, "--family", "maximal:100000"], "--family"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1e999"], "--eps-grid"),
    (["tangent", REAL_LINE, "--point", "1e999", "--vector", "1"], "--point"),
    (["tangent", REAL_LINE, "--point", "1", "--vector", "1e999"], "--vector"),
    (["boundize", REAL_LINE, "--omega", "u1", "--gens", "f", "--point", "1e999"], "--point"),
    (["compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2", "--eps-grid", "1", "--target-eps", "inf"], "--target-eps"),
    (["complete", REAL_LINE, "--family", "g", "--tol", "inf"], "--tol"),
    (["compactify", UNIT_INTERVAL, "--tol", "inf"], "--tol"),
    (["check-map", REAL_LINE, "--map", "squash", "--tol", "inf"], "--tol"),
    (["boundize", REAL_LINE, "--omega", "u1 + 1e999", "--gens", "f", "--point", "0"], "--omega"),
    (["complete", REAL_LINE, "--family", "g", "--probes", "pplus,pplus"], "--probes"),
    (["compactify", REAL_LINE, "--family", "g", "--probes", "pplus,pminus,pplus"], "--probes"),
    (["complete", REAL_LINE, "--family="], "--family"),
    (["complete", REAL_LINE, "--family=,"], "--family"),
    (["complete", REAL_LINE, "--family", "g", "--probes="], "--probes"),
    (["complete", REAL_LINE, "--family", "f,g", "--subfamily="], "--subfamily"),
    (["compactify", UNIT_INTERVAL, "--family="], "--family"),
    (["tangent", REAL_LINE, "--point", "1", "--vector", "1", "--functions="], "--functions"),
    (["tangent", REAL_LINE, "--point", "1", "--vector", "1", "--map="], "--map"),
    (["embed", REAL_LINE, "--label="], "--label"),
    (["compactify", REAL_LINE, "--family", "g", "--probes", "pminus,zap"], "--probes"),
    (["tangent", REAL_LINE, "--point", "(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), "--vector", "1"],
     "--point"),
    (["boundize", REAL_LINE, "--omega", "u1" + "+u1" * MAX_DEPTH, "--gens", "f", "--point", "0"], "--omega"),
    (["boundize", REAL_LINE, "--omega", "u1", "--gens", ",".join(f"g{i}" for i in range(1000)), "--point", "0"],
     "--gens"),
    (["complete", SPIRAL, "--family", "a,b", "--tol", "1e-3", "--tail", "100000"], "--tail"),
    (["complete", REAL_LINE, "--family", "maximal:x"], "--family"),
]


@pytest.mark.parametrize("argv, flag", BAD_FLAG_VALUES)
def test_bad_flag_values_are_usage_errors(tmp_path, argv, flag):
    proc = run_cli(*argv, "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"sikorski {argv[0]}: {flag}")
    assert "invariant violated" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [argv for argv, _ in BAD_FLAG_VALUES if argv[1:] != [REAL_LINE, "--label="]])
def test_run_refuses_a_bad_flag_value_by_its_experiment_before_the_first_runs(tmp_path, argv):
    """Each bad flag value above, as the second experiment of a run after
    an `embed`: the run refuses it with the direct command's message,
    named by its experiment, and writes nothing.  (run sets --label.)"""
    command = argv[0]
    source, flags = (UNIT_INTERVAL, argv[1:]) if command == "verify-filters" else (argv[1], argv[2:])
    (tmp_path / "unit_interval_compact.spec").write_text(Path(UNIT_INTERVAL).read_text(encoding="utf-8"))
    spec = tmp_path / "case.spec"
    declared = Path(source).read_text(encoding="utf-8").split("[experiments]")[0]
    spec.write_text(declared + f"[experiments]\na = embed\nb = {shlex.join([command, *flags])}\n", encoding="utf-8")
    direct = [command, *([] if command == "verify-filters" else [str(spec)]), *flags]
    rc, _, err = run_in_process([*direct, "--out", str(tmp_path / "direct")])
    prefix = f"sikorski {command}: "
    assert rc == 2 and err.startswith(prefix)
    out_dir = tmp_path / "out"
    assert run_in_process(["run", str(spec), "--out", str(out_dir)]) == (
        2, "", f"sikorski run: experiment b: {err[len(prefix):]}"
    )
    assert not out_dir.exists()


TAIL_CASES = [
    (["complete", SPIRAL, "--family", "a,b", "--tol", "1e-3"], "1 .. 2000 of probe p0", 2000),
    (["compactify", UNIT_INTERVAL], "1 .. 100 of probe plow", 100),
    (["complete", REAL_LINE, "--family", "g", "--probes", "pminus"], "1 .. 1050 of probe pminus", 1050),
]


@pytest.mark.parametrize("argv, schedule, length", TAIL_CASES)
def test_a_tail_longer_than_a_probe_schedule_is_refused(tmp_path, argv, schedule, length):
    """A tail one index longer than a selected probe's schedule exits 2
    with one line naming the probe and writes nothing; on spiral, `--tail
    100000` once read every probe `escaping` and `complete over a,b: yes`.
    A tail as long as the schedule runs."""
    for tail in (length + 1, 100000):
        rc, out, err = run_in_process([*argv, "--tail", str(tail), "--out", str(tmp_path / "refused")])
        assert (rc, out) == (2, "")
        assert err == f"sikorski {argv[0]}: --tail: tail {tail} is longer than the schedule {schedule}\n"
    assert not (tmp_path / "refused").exists()
    rc, _, err = run_in_process([*argv, "--tail", str(length), "--out", str(tmp_path / "ran")])
    assert (rc, err) == (0, "")
    assert (tmp_path / "ran" / f"{argv[0]}_points.csv").exists()


def test_boundize_takes_at_most_max_depth_generators(tmp_path):
    """The splice is one product of a factor per generator; past
    `MAX_DEPTH` names the list is refused before any sweep, where 986
    names once ended in a RecursionError."""
    def boundize(count):
        """boundize over g0 = x, .., g{count-1} = x on a 101-sample interval."""
        spec = tmp_path / f"g{count}.spec"
        gens = "".join(f"g{i} = x\n" for i in range(count))
        spec.write_text(f"[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 101\n\n[generators]\n{gens}")
        names = ",".join(f"g{i}" for i in range(count))
        return run_in_process(["boundize", str(spec), "--omega", "u1", "--gens", names, "--point", "0.5",
                               "--out", str(tmp_path / "out")])

    rc, out, err = boundize(MAX_DEPTH)
    assert (rc, err) == (0, "")
    assert out.startswith(f"boundize: {MAX_DEPTH} generator(s) at 0.5")
    for count in (MAX_DEPTH + 1, 1000):
        assert boundize(count) == (2, "", f"sikorski boundize: --gens: at most {MAX_DEPTH} generators, got {count}\n")


def test_a_bad_subfamily_writes_nothing(tmp_path):
    """--subfamily is checked before the completion runs, so a bad one
    leaves no artifact behind."""
    out = tmp_path / "out"
    proc = run_cli("complete", REAL_LINE, "--family", "f,g", "--subfamily", "zap", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "sikorski complete: --subfamily: no generator named 'zap'\n"
    assert not out.exists()


def test_one_parser_serves_every_main_call():
    assert cli._parser() is cli._parser()
    argvs = [
        ["complete", REAL_LINE, "--family", "g", "--tol", "1e-3", "--label", "a"],
        ["complete", REAL_LINE],
        ["verify-filters", "--max-size", "2", "--out", "x"],
        ["run", REAL_LINE, "atan_complete", "id_complete"],
        ["run", REAL_LINE],
        ["tangent", REAL_LINE, "--point", "1", "--vector", "1"],
    ]
    for argv in argvs + argvs:
        fresh = cli._parser.__wrapped__().parse_args(argv)
        assert vars(cli._parser().parse_args(argv)) == vars(fresh)


def test_run_refuses_a_nested_run(tmp_path):
    spec = tmp_path / "again.spec"
    spec.write_text(Path(UNIT_INTERVAL).read_text(encoding="utf-8") + "again = run\n", encoding="utf-8")
    proc = run_cli("run", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == f"sikorski run: experiment again is itself a run; runs do not nest\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "first,message",
    [
        ("-h", "experiment a: '-h' is not a command"),
        ("embd", "experiment a: 'embd' is not a command"),
        ("embed --help", "experiment a: asks for help instead of running"),
        ("embed -h", "experiment a: asks for help instead of running"),
        ("embed --hel", "experiment a: asks for help instead of running"),
    ],
)
def test_run_refuses_an_experiment_that_is_not_a_command_run(tmp_path, first, message):
    spec = tmp_path / "t.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\n\n"
        f"[experiments]\na = {first}\nb = embed\n",
        encoding="utf-8",
    )
    proc = run_cli("run", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == f"sikorski run: {message}\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out" / "b_points.csv").exists()


@pytest.mark.parametrize(
    "experiment,given",
    [
        ("embed --out x", "--out"),
        ("embed --out=x", "--out"),
        ("embed --ou=/nonexistent", "--out"),
        ("embed --label q", "--label"),
        ("embed --label=q", "--label"),
        ("embed --lab zz", "--label"),
        ("embed --out . --label=b", "--out and --label"),
        ("verify-filters --max-size 1 --o=z", "--out"),
    ],
)
def test_run_refuses_an_experiment_that_sets_out_or_label(tmp_path, experiment, given):
    # run sets both for every experiment, and argparse would keep the last value
    spec = tmp_path / "t.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\n\n"
        f"[experiments]\na = embed\nb = {experiment}\nc = embed --label=q\n",
        encoding="utf-8",
    )
    proc = run_cli("run", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == f"sikorski run: experiment b: sets {given}, which run sets for every experiment\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_run_checks_every_experiments_flags_before_the_first_runs(tmp_path):
    spec = tmp_path / "t.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\n\n"
        "[experiments]\na = embed\nb = embed --famly f\n",
        encoding="utf-8",
    )
    proc = run_cli("run", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == "sikorski run: experiment b: unrecognized arguments: --famly f\n"
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_run_checks_every_experiments_flag_values_before_the_first_runs(tmp_path):
    spec = tmp_path / "t.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\n\n"
        "[experiments]\na = embed\nb = complete --tol 0\n",
        encoding="utf-8",
    )
    proc = run_cli("run", str(spec), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "sikorski run: experiment b: --tol must be positive and finite, got 0.0\n"
    assert not (tmp_path / "out").exists()


def test_run_runs_a_label_listed_twice_twice(tmp_path):
    rc, out, err = run_in_process(["run", SPIRAL, "plane_complete", "plane_complete", "--out", str(tmp_path)])
    assert (rc, err) == (0, "")
    assert out.count("run plane_complete: ") == 2
    assert out.count("complete: 5 adjoined, 0 duplicate(s)\n") == 2


def test_a_bad_command_line_prints_what_argparse_prints(tmp_path):
    proc = run_cli("embed", UNIT_INTERVAL, "--famly", "f", "--out", str(tmp_path))
    assert proc.returncode == 2
    usage = cli._parser().format_usage()
    assert proc.stderr == usage + "sikorski: error: unrecognized arguments: --famly f\n"
    proc = run_cli("verify-filters", "--max-size", "x", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.endswith("sikorski verify-filters: error: argument --max-size: invalid int value: 'x'\n")
    assert proc.stderr.startswith("usage: sikorski verify-filters")


def test_run_loads_its_spec_once(tmp_path, monkeypatch):
    calls = []
    load_spec = specfile.load_spec
    monkeypatch.setattr(specfile, "load_spec", lambda path: calls.append(path) or load_spec(path))
    spiral = str(SPECS / "spiral.spec")
    rc, out, err = run_in_process(["run", spiral, "--out", str(tmp_path)])
    assert (rc, err) == (0, "")
    assert out.count("\nrun ") == 2  # three experiments
    assert calls == [spiral]


def test_run_parses_each_experiment_once(tmp_path, monkeypatch):
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    rc, out, err = run_in_process(["run", str(SPECS / "spiral.spec"), "--out", str(tmp_path)])
    assert (rc, err) == (0, "")
    assert out.count("\nrun ") == 2  # three experiments, all of them complete
    # the command line once, through the top-level parser and run's; then
    # each experiment once, by its command's parser
    assert sorted(progs) == ["sikorski", "sikorski complete", "sikorski complete", "sikorski complete", "sikorski run"]


def test_every_command_parser_names_its_handler_and_module():
    for name, parser in cli._parser().commands.items():
        assert parser.get_default("handler") is getattr(cli, "cmd_" + name.replace("-", "_")), name
        assert inspect.isgeneratorfunction(parser.get_default("handler")), name
        module = parser.get_default("module")
        assert isinstance(module, str) and module, name


def test_run_runs_an_experiment_that_ends_in_a_double_dash(tmp_path):
    spec = tmp_path / "t.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\n\n"
        "[experiments]\na = embed\nb = embed --\n",
        encoding="utf-8",
    )
    proc = run_cli("run", str(spec), "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "b_points.csv").read_bytes() == (tmp_path / "out" / "a_points.csv").read_bytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        proc = run_cli(
            "complete", REAL_LINE,
            "--family", "g", "--tol", "1e-3", "--tail", "50",
            "--out", str(out),
        )
        assert proc.returncode == 0
        outs.append(out)
    for name in ("complete_points.csv", "complete_report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def run_in_process(argv):
    """`cli.main` in this process, with what it prints captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def memos_are_empty():
    """No memo block is open, so nothing is memoized."""
    return space_module._memo is None


def test_run_sweeps_its_carrier_once_and_embeds_each_family_once(tmp_path, monkeypatch):
    sweeps, embeddings = sweeps_and_embeddings(monkeypatch)
    rc, out, err = run_in_process(["run", SPIRAL, "--out", str(tmp_path)])
    assert (rc, err) == (0, "")
    assert out.count("\nrun ") == 2  # three experiments
    assert sweeps == [2000]
    # plane_complete embeds a,b; unwound_complete embeds a,b,c; projection
    # completes over both again and embeds neither
    assert embeddings == [("a", "b"), ("a", "b", "c")]
    assert memos_are_empty()


def test_a_run_writes_what_its_experiments_write_one_at_a_time(tmp_path):
    rc, _, err = run_in_process(["run", SPIRAL, "--out", str(tmp_path / "run")])
    assert (rc, err) == (0, "")
    for experiment in specfile.load_spec(SPIRAL).experiments:
        argv = [experiment.argv[0], SPIRAL, *experiment.argv[1:]]
        rc, _, err = run_in_process([*argv, "--out", str(tmp_path / "one"), "--label", experiment.label])
        assert (rc, err) == (0, "")
    written = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(written) == 7  # three points and three reports, and projection's iota
    for name in written:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name


def test_the_memos_are_emptied_when_main_returns_or_raises(tmp_path, monkeypatch):
    argv = ["complete", SPIRAL, "--subfamily", "a,b", "--tol", "1e-3", "--out", str(tmp_path)]
    assert run_in_process(argv)[0] == 0
    assert memos_are_empty()

    def failing(cs_full, cs_sub):
        # by now the sweep, both embeddings and the points artifact are memoized
        reprs = [key.split("(", 1)[0] for key in space_module._memo if isinstance(key, str)]
        assert sorted(reprs) == ["Carrier", "DiffSpace", "DiffSpace"]
        assert any(isinstance(key, bytes) for key in space_module._memo)
        raise error

    monkeypatch.setattr(cli, "iota", failing)
    error = ValueError("a failed invariant")
    rc, _, err = run_in_process(argv)
    assert (rc, err) == (1, "sikorski complete (completion): invariant violated: a failed invariant\n")
    assert memos_are_empty()
    error = RuntimeError("a handler that does not return")
    with pytest.raises(RuntimeError, match="does not return"):
        run_in_process(argv)
    assert memos_are_empty()


def test_a_run_never_loads_openssl(tmp_path):
    """The format memo keys on a column's bytes, not a digest: hashlib
    would load OpenSSL's _hashlib, 3.35 MiB of resident memory."""
    code = (
        "import sys\n"
        "from sikorski import cli\n"
        f"assert cli.main(['run', {SPIRAL!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def on_glibc():
    try:
        return sys.platform.startswith("linux") and os.confstr("CS_GNU_LIBC_VERSION") is not None
    except (AttributeError, ValueError):  # no confstr, or no such name
        return False


# The stub, if any, replaces ctypes.CDLL before sikorski.cli is imported.
# The last stdout line is the exit status, the minor page faults of the
# `run` call and the peak resident set size.
MEMORY_CHILD = """\
import ctypes, resource, sys
{stub}
from sikorski import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = cli.main(['run', sys.argv[1], '--out', sys.argv[2]])
usage = resource.getrusage(resource.RUSAGE_SELF)
print(rc, usage.ru_minflt - before, usage.ru_maxrss)
"""


def run_measured(spec, out, stub=""):
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CHILD.format(stub=stub), str(spec), str(out)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *printed, last = proc.stdout.splitlines()
    rc, faults, peak_kib = map(int, last.split())
    return rc, printed, faults, peak_kib


@pytest.fixture(scope="module")
def spiral_kept(tmp_path_factory):
    """The spiral spec at 10,000 samples, and its `run` in a fresh
    interpreter that keeps the memory it frees.  At the bundled 2,000
    samples the faults it saves are too few to tell apart."""
    tmp = tmp_path_factory.mktemp("spiral_kept")
    spec = tmp / "spiral.spec"
    spec.write_text(
        re.sub(r"^samples = \d+$", "samples = 10000", Path(SPIRAL).read_text(encoding="utf-8"), flags=re.M),
        encoding="utf-8",
    )
    return spec, tmp / "out", run_measured(spec, tmp / "out")


@pytest.mark.skipif(not on_glibc(), reason="mallopt and its thresholds are glibc's")
@pytest.mark.parametrize(
    "stub",
    [
        "def CDLL(*args, **kwargs):\n    raise OSError('no C library')\nctypes.CDLL = CDLL",
        "ctypes.CDLL = lambda *args, **kwargs: object()",  # a C library without mallopt
        "def CDLL(*args, **kwargs):\n    raise TypeError('no CDLL(None)')\nctypes.CDLL = CDLL",
    ],
    ids=["no-c-library", "no-mallopt", "no-cdll-none"],
)
def test_keeping_freed_memory_saves_faults_and_changes_no_output(tmp_path, spiral_kept, stub):
    spec, kept_out, (kept_rc, kept_stdout, kept_faults, kept_peak) = spiral_kept
    rc, stdout, faults, peak = run_measured(spec, tmp_path, stub)
    assert (kept_rc, kept_stdout) == (rc, stdout)
    assert rc == 0
    written = sorted(p.name for p in kept_out.iterdir())
    assert written == sorted(p.name for p in tmp_path.iterdir())
    for name in written:
        assert (kept_out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert abs(kept_peak - peak) <= 0.05 * peak
    assert kept_faults <= faults / 2


def test_only_the_first_main_call_sets_malloc_thresholds(tmp_path):
    """Importing the CLI module calls no `mallopt`, so a library caller
    keeps glibc's defaults; the first `main` call sets both thresholds, and
    a second sets nothing more.  A recording C library stands in for
    glibc, in a fresh interpreter."""
    code = (
        "import ctypes\n"
        "calls = []\n"
        "class CDLL:\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        self.mallopt = lambda *args: calls.append(args)\n"
        "ctypes.CDLL = CDLL\n"
        "from sikorski import cli\n"
        "print(calls)\n"
        "for _ in range(2):\n"
        f"    assert cli.main(['verify-filters', '--max-size', '1', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(calls)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[(-1, 268435456), (-3, 268435456)]")


def test_an_iota_residual_above_tolerance_exits_one(tmp_path, monkeypatch):
    iota = cli.iota

    def inflated(cs_full, cs_sub):
        rep = iota(cs_full, cs_sub)
        return dataclasses.replace(rep, residuals=tuple((n, 1e-3) for n, _ in rep.residuals))

    monkeypatch.setattr(cli, "iota", inflated)
    rc, out, err = run_in_process([
        "complete", REAL_LINE, "--subfamily", "g", "--tol", "1e-3", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err == (
        "sikorski complete (completion): invariant violated:"
        " extension compatibility residual 0.001 exceeds 1.0000000000000001e-09\n"
    )
    assert out == "complete: 0 adjoined, 0 duplicate(s)\n"
    assert "iota residual g: 0.001" in read_report(tmp_path / "complete_report.txt")
    assert len(read_rows(tmp_path / "complete_iota.csv")) == 1 + 2201


def test_failed_tangent_residuals_share_one_line(tmp_path, monkeypatch):
    monkeypatch.setattr(tangent, "leibniz_check", lambda space, v, f1, f2: (1.0, 1.0))
    rc, out, err = run_in_process([
        "tangent", REAL_LINE, "--point", "1", "--vector", "1", "--out", str(tmp_path),
    ])
    assert rc == 1
    assert err == (
        "sikorski tangent (tangent): invariant violated: leibniz residual 1 for f*f;"
        " leibniz residual 1 for f*g; leibniz residual 1 for g*g\n"
    )
    assert "leibniz f*g = 1" in out.splitlines()
    rows = read_rows(tmp_path / "tangent_tangent.csv")
    assert [row for row in rows if row[0] == "leibniz"] == [
        ["leibniz", "f*f", "1"], ["leibniz", "f*g", "1"], ["leibniz", "g*g", "1"],
    ]


def test_a_filter_counterexample_exits_one(tmp_path, monkeypatch):
    verify_filter_laws = cli.verify_filter_laws

    def injected(max_size):
        rep = verify_filter_laws(max_size)
        bad = dataclasses.replace(rep.models[-1], failures=("injected counterexample",))
        return dataclasses.replace(rep, models=rep.models[:-1] + (bad,))

    monkeypatch.setattr(cli, "verify_filter_laws", injected)
    rc, _, err = run_in_process(["verify-filters", "--max-size", "2", "--out", str(tmp_path)])
    assert rc == 1
    assert err == "sikorski verify-filters (filters): invariant violated: size 2 model 1: injected counterexample\n"
    assert read_rows(tmp_path / "verify_filters_models.csv")[-1][-1] == "1"
    assert (tmp_path / "verify_filters_report.txt").exists()


def test_a_bad_label_is_refused_before_any_work(tmp_path, monkeypatch):
    def never(max_size):
        raise AssertionError("the verifier ran")

    monkeypatch.setattr(cli, "verify_filter_laws", never)
    rc, out, err = run_in_process(["verify-filters", "--max-size", "5", "--label", "a/b", "--out", str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err == "sikorski verify-filters: --label 'a/b': a label names files in --out, not a path\n"
    # run's own label names no file, and it is refused all the same
    rc, out, err = run_in_process(["run", SPIRAL, "--label", "a/b", "--out", str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err == "sikorski run: --label 'a/b': a label names files in --out, not a path\n"
    assert list(tmp_path.iterdir()) == []


def test_a_wrong_map_witness_exits_one(tmp_path):
    text = Path(REAL_LINE).read_text(encoding="utf-8")
    spec = tmp_path / "real_line_atan.spec"
    spec.write_text(text.replace("witness g = 1 / (1 + u1^2) : f", "witness g = 2 / (1 + u1^2) : f"), encoding="utf-8")
    (tmp_path / "unit_interval_compact.spec").write_text(Path(UNIT_INTERVAL).read_text(encoding="utf-8"))
    rc, out, err = run_in_process(["check-map", str(spec), "--map", "squash", "--out", str(tmp_path)])
    assert rc == 1
    assert err == (
        "sikorski check-map (space): invariant violated:"
        " pullback witness residual 1 exceeds 9.9999999999999995e-07\n"
    )
    assert out == "check-map: max residual 1 (tol 9.9999999999999995e-07)\n"
    assert read_rows(tmp_path / "check_map_map.csv") == [["generator", "max_residual"], ["g", "1"]]
    assert "smooth within 9.9999999999999995e-07: no" in read_report(tmp_path / "check_map_report.txt")


def test_compare_uniform_reports_pairs_examined(tmp_path):
    rc, out, _ = run_in_process([
        "compare-uniform", PARABOLA, "--g-family", "f1", "--h-family", "f2",
        "--target-eps", "1", "--eps-grid", "1,0.1,0.01", "--out", str(tmp_path),
    ])
    assert rc == 0
    # samples are 0.005 apart on f1, and only each width's first flagged
    # row is scanned: width 1, row 2 (x = 0.01) with rows 0..201 (x = 1.01
    # is a gap of 1.0); width 0.1, row 991 with the 20 rows on either side
    # (gaps of 0.09999999999999964); width 0.01, row 9999 with rows 9998,
    # 10000 and 10001 (49.995 - 49.985 rounds to 0.010000000000005116)
    pairs = 201 + 40 + 3
    assert out == (
        f"compare-uniform: 3 of 3 widths produced a witness, {pairs} pairs examined"
        f" -> {tmp_path / 'compare_uniform_refinement.csv'}\n"
    )


def test_compare_uniform_writes_refines_rows(tmp_path):
    """A refines row keeps its quoted target and leaves the witness empty."""
    rc, _, _ = run_in_process([
        "compare-uniform", PARABOLA, "--g-family", "f1,f2", "--h-family", "f1,f2",
        "--target-eps", "1", "--eps-grid", "1,0.5", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "compare_uniform_refinement.csv").read_text(encoding="utf-8") == (
        "candidate_eps,refines,target,violated,d_g,x_t,y_t\n"
        '1,true,"V(f1,f2;1.0)",,,,\n'
        '0.5,true,"V(f1,f2;1.0)",,,,\n'
    )


def test_compare_uniform_witness_cells_are_parameter_values(tmp_path):
    """On the unit circle the ambient point has two coordinates and the
    parameter one: every row has the header's width, and the witness cells
    are the sampled t of a pair that is G-close and H-far."""
    spec = tmp_path / "circle.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = (0, 6)\nchart = x : cos(t), y : sin(t)\nsamples = 61\n\n"
        "[generators]\nf = x\ng = y\nh = 5*x*y\n"
    )
    rc, _, err = run_in_process([
        "compare-uniform", str(spec), "--g-family", "f,g", "--h-family", "h",
        "--eps-grid", "1,0.01", "--out", str(tmp_path),
    ])
    assert rc == 0, err
    header, witness, refines = read_rows(tmp_path / "compare_uniform_refinement.csv")
    assert header == ["candidate_eps", "refines", "target", "violated", "d_g", "x_t", "y_t"]
    assert len(witness) == len(refines) == len(header)
    assert witness[1] == "false" and refines[1] == "true"
    s, t = map(float, witness[5:])
    assert max(abs(math.cos(s) - math.cos(t)), abs(math.sin(s) - math.sin(t))) < 1.0
    assert abs(5 * math.cos(s) * math.sin(s) - 5 * math.cos(t) * math.sin(t)) >= 1.0
    sampled = embed(specfile.load_spec(spec).space).params[:, 0].tolist()
    assert s in sampled and t in sampled


def test_an_inset_that_empties_an_axis_exits_two(tmp_path):
    spec = tmp_path / "inset.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = (0, 1)\nchart = x : t\nsamples = 11\ninset = 5\n\n[generators]\nf = x\n"
    )
    rc, _, err = run_in_process(["embed", str(spec), "--out", str(tmp_path)])
    assert rc == 2
    assert err == f"sikorski embed: {spec}:1: [space]: inset 5.0 empties axis (0.0, 1.0)\n"


WIDE = "[space]\nparams = t\ndomain = [-1e308, 1e308]\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\ng = atan(x)\n"


@pytest.mark.parametrize(
    "command",
    [["embed"], ["complete"], ["compactify"], ["compare-uniform", "--g-family", "f", "--h-family", "g", "--eps-grid", "0.1"]],
)
def test_a_span_float64_cannot_hold_exits_two(tmp_path, command):
    """linspace would sample nan and inf on it, under RuntimeWarnings:
    the spec is refused before any sample is taken."""
    spec = tmp_path / "wide.spec"
    spec.write_text(WIDE)
    proc = run_cli(command[0], str(spec), *command[1:], "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"sikorski {command[0]}: {spec}:1: [space]: axis [-1e+308, 1e+308] with inset 0.001 spans inf,"
        " not a finite float64\n"
    )
    assert not (tmp_path / "out").exists()


HUGE = "[space]\nparams = t\ndomain = [0, 4e18]\nchart = x : t\nsamples = 5\n\n[generators]\ng = x\n\n[probes]\n"


def test_a_probe_bound_beyond_2_53_exits_two(tmp_path):
    """Beyond 2**53 the tail's float64 indices collapse, and the probe
    read Cauchy where it escapes."""
    spec = tmp_path / "huge.spec"
    spec.write_text(HUGE + "small = n @ 1 .. 1000\nbig = n @ 1 .. 1152921504606846976\n")
    proc = run_cli("complete", str(spec), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"sikorski complete: {spec}:12: probe big: probe big has a schedule bound beyond 2**53,"
        " got 1 .. 1152921504606846976\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_probe_bound_of_2_53_keeps_its_indices_exact(tmp_path):
    spec = tmp_path / "huge.spec"
    spec.write_text(HUGE + "big = n @ 1 .. 9007199254740992\n")
    rc, _, err = run_in_process(["complete", str(spec), "--out", str(tmp_path), "--label", "c"])
    assert rc == 0, err
    assert read_report(tmp_path / "c_report.txt")[0] == "probe big: escaping  oscillation[g=49]  limit -"


def test_probes_on_a_two_parameter_carrier_exit_two(tmp_path):
    spec = tmp_path / "t.spec"
    spec.write_text(
        "[space]\nparams = s, t\ndomain = [0, 1] x [0, 1]\nchart = x : s, y : t\nsamples = 5, 5\n\n"
        "[generators]\nf = x\n\n[probes]\np = 1/n @ 1 .. 50\n"
    )
    rc, _, err = run_in_process(["complete", str(spec), "--out", str(tmp_path)])
    assert rc == 2
    assert err == f"sikorski complete: {spec}:10: probes require a single-parameter carrier\n"


UNDECODABLE = b"[space]\nparams = t\n\xff\xfe\n"
DECODE_ERROR = "cannot read spec: 'utf-8' codec can't decode byte 0xff in position 19: invalid start byte"


def test_an_undecodable_spec_exits_two(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_bytes(UNDECODABLE)
    rc, out, err = run_in_process(["embed", str(spec), "--out", str(tmp_path / "out")])
    assert (rc, out, err) == (2, "", f"sikorski embed: {spec}:1: {DECODE_ERROR}\n")


def test_an_undecodable_map_target_exits_two(tmp_path):
    (tmp_path / "bad.spec").write_bytes(UNDECODABLE)
    spec = tmp_path / "source.spec"
    spec.write_text(
        "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 11\n\n[generators]\nf = x\n\n"
        "[map m]\ntarget = bad.spec\ncomponent x = x\nwitness f = u1 : f\n"
    )
    rc, out, err = run_in_process(["check-map", str(spec), "--map", "m", "--out", str(tmp_path / "out")])
    assert (rc, out, err) == (2, "", f"sikorski check-map: {tmp_path / 'bad.spec'}:1: {DECODE_ERROR}\n")


@pytest.mark.parametrize("command", [["tangent", "--point", "1", "--vector", "1"], ["check-map"]])
def test_an_undeclared_map_is_a_usage_error(tmp_path, command):
    rc, out, err = run_in_process([command[0], REAL_LINE, *command[1:], "--map", "zap", "--out", str(tmp_path)])
    assert (rc, err) == (2, f"sikorski {command[0]}: --map: spec declares no map named 'zap'\n")


def test_tangent_checks_its_map_before_any_work(tmp_path, monkeypatch):
    calls = []
    apply = tangent.apply
    monkeypatch.setattr(tangent, "apply", lambda *args: calls.append(args) or apply(*args))
    argv = ["tangent", REAL_LINE, "--point", "1", "--vector", "1", "--out", str(tmp_path)]
    rc, out, err = run_in_process([*argv, "--map", "zap"])
    assert (rc, out, err) == (2, "", "sikorski tangent: --map: spec declares no map named 'zap'\n")
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    assert run_in_process([*argv, "--map", "squash"])[0] == 0
    assert calls  # the wrapper sees the work of a good command


def deep_map_spec(tmp_path, depth, by_variable=False):
    """A spec whose generator, map component and witness, and the map's
    target generator, are each a chain of divisions by 1, or by the
    chain's own variable, `depth` deep."""
    def chain(var):
        return var + f"/{var if by_variable else 1}" * (depth - 1)

    # x^-(depth-2), and that power of it, stay finite on a narrow domain
    domain = "[1, 1.001]" if by_variable else "[1, 2]"
    space = f"[space]\nparams = t\ndomain = {domain}\nchart = {{v}} : t\nsamples = 11\n\n[generators]\n"
    (tmp_path / "target.spec").write_text(space.format(v="y") + f"g = {chain('y')}\n")
    spec = tmp_path / "deep.spec"
    spec.write_text(
        space.format(v="x") + f"f = {chain('x')}\n\n[map m]\ntarget = target.spec\n"
        f"component y = {chain('x')}\nwitness g = {chain('u1')} : f\n"
    )
    return str(spec)


def test_an_expression_at_the_depth_bound_runs_through_tangent_and_check_map(tmp_path):
    """Composed through the map, the trees are twice the bound deep, and
    the chain rule differentiates them; every walk stays under Python's
    recursion limit inside this test."""
    spec = deep_map_spec(tmp_path, MAX_DEPTH)
    point = "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH
    rc, out, err = run_in_process(
        ["tangent", spec, "--point", point, "--vector", "1", "--map", "m", "--out", str(tmp_path)]
    )
    assert (rc, err) == (0, "")
    assert out == "apply f = 1\nleibniz f*f = 0\npushforward m.y = 1\nimage m.y = 1\nchain m:g = 0\n"
    rc, out, err = run_in_process(["check-map", spec, "--map", "m", "--out", str(tmp_path)])
    assert (rc, out, err) == (0, "check-map: max residual 0 (tol 9.9999999999999995e-07)\n", "")


def test_a_chain_of_divisions_by_a_variable_at_the_depth_bound_runs_through_tangent_and_check_map(tmp_path):
    """The derivative of a division holds both operands and the
    numerator's derivative, so these trees share subtrees at every level;
    evaluation walks each shared subtree once, where walking it at every
    reference took seconds."""
    spec = deep_map_spec(tmp_path, MAX_DEPTH, by_variable=True)
    rc, out, err = run_in_process(
        ["tangent", spec, "--point", "1.0005", "--vector", "1", "--map", "m", "--out", str(tmp_path)]
    )
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "apply f = -118.2496156041386"
    rc, out, err = run_in_process(["check-map", spec, "--map", "m", "--out", str(tmp_path)])
    assert (rc, out, err) == (0, "check-map: max residual 0 (tol 9.9999999999999995e-07)\n", "")


def test_an_expression_past_the_depth_bound_exits_two(tmp_path):
    spec = deep_map_spec(tmp_path, MAX_DEPTH + 1)
    offset = 2 * MAX_DEPTH - 1  # the last '/'
    for command in (["tangent", "--point", "1", "--vector", "1", "--map", "m"], ["check-map", "--map", "m"]):
        rc, out, err = run_in_process([command[0], spec, *command[1:], "--out", str(tmp_path)])
        assert (rc, out) == (2, "")
        assert err == (
            f"sikorski {command[0]}: {spec}:8: generator f: expression nested deeper than {MAX_DEPTH} levels"
            f" (offset {offset}), column {5 + offset}\n"
        )


def test_a_non_finite_value_in_a_large_tree_is_reported_in_one_short_line(tmp_path):
    """On [1, 2] the composed chains of divisions by the variable leave
    the float range; the message shows each tree cut to 100 characters,
    not the whole tree."""
    spec = deep_map_spec(tmp_path, MAX_DEPTH, by_variable=True)
    for name in ("deep.spec", "target.spec"):
        path = tmp_path / name
        path.write_text(path.read_text().replace("[1, 1.001]", "[1, 2]"))
    for command in (["check-map", "--map", "m"], ["tangent", "--map", "m", "--point", "1.5", "--vector", "1"]):
        rc, out, err = run_in_process([command[0], spec, *command[1:], "--out", str(tmp_path)])
        assert rc == 1
        assert "non-finite value from " in err and "…" in err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 400


def test_a_sample_grid_too_large_to_allocate_exits_two(tmp_path):
    """10^15 float64 samples are 7.11 PiB, past any 64-bit address space,
    so the allocation fails at once rather than being overcommitted."""
    spec = tmp_path / "huge.spec"
    spec.write_text("[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 1000000000000000\n\n"
                    "[generators]\nf = x\n")
    out_dir = tmp_path / "out"
    rc, out, err = run_in_process(["embed", str(spec), "--out", str(out_dir)])
    assert (rc, out) == (2, "")
    assert re.fullmatch(r"sikorski embed: Unable to allocate 7\.11 PiB [^\n]*\n", err)
    assert not out_dir.exists()


@pytest.mark.parametrize("samples", [2**62, 2**63 - 1, 2**63, 10**20])
def test_a_sample_grid_numpy_cannot_index_exits_two_at_the_space_section(tmp_path, samples):
    """Counts past what a float64 array can hold once exited 1 ("array is
    too big", "Maximum allowed size exceeded") or in an IndexError
    traceback from np.linspace; the carrier now refuses them before
    anything is allocated, at the `[space]` line, on every command."""
    spec = tmp_path / "huge.spec"
    spec.write_text(f"[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = {samples}\n\n"
                    "[generators]\nf = x\n")
    out_dir = tmp_path / "out"
    expected = f"{spec}:1: [space]: a grid of {samples} float64 samples has more bytes than numpy can index\n"
    compare = ["compare-uniform", "--g-family", "f", "--h-family", "f", "--eps-grid", "0.1"]
    for command in (["embed"], ["complete"], compare):
        rc, out, err = run_in_process([command[0], str(spec), *command[1:], "--out", str(out_dir)])
        assert (rc, out, err) == (2, "", f"sikorski {command[0]}: {expected}")
    assert not out_dir.exists()


@pytest.mark.parametrize("samples", [10927, 10986, 11045])
def test_atan_probes_adjoin_both_ends_at_every_count(tmp_path, samples):
    """At these counts a sample's atan lies within DEDUP_TOL of the tail
    mean of a probe still moving by ~4.7e-5; only a settled probe's limit
    is realized by a sample, so both ends are still adjoined."""
    text = Path(REAL_LINE).read_text(encoding="utf-8").replace("samples = 2201", f"samples = {samples}")
    spec = tmp_path / "real_line_atan.spec"
    spec.write_text(text, encoding="utf-8")
    (tmp_path / "unit_interval_compact.spec").write_text(Path(UNIT_INTERVAL).read_text(encoding="utf-8"))
    for command in ("complete", "compactify"):
        argv = [command, str(spec), "--family", "g", "--tol", "1e-3", "--tail", "50", "--out", str(tmp_path)]
        assert run_in_process(argv)[:2] == (0, f"{command}: 2 adjoined, 0 duplicate(s)\n")


FUZZ_NUMBERS = ("0", "-1", "nan", "1e308", "1e999")
FUZZ_VALUES = FUZZ_NUMBERS + (
    "1", "2", "3", "0.5", "1e-3", "-0", "inf", "1e-400", "", ",", "1,2", "0.1,0.01", "1,2,3",
    "x", "u1", "u1*u2", "1/0", "sqrt(-1)", "pi/2", "maximal:2", "maximal:0", "maximal:x",
    "squash", "pplus", "p0,c1", "zap", "f", "g", "f,g", "g,f,g", "a,b", "c", "f1", "f2", "id,dist",
)
_NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")


def _mutate(text, rng):
    """Drop or duplicate lines, or replace a number by a hostile one."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.choice(("drop", "duplicate", "number"))
        numbers = list(_NUMBER.finditer(lines[i]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif numbers:
            m = rng.choice(numbers)
            lines[i] = lines[i][: m.start()] + rng.choice(FUZZ_NUMBERS) + lines[i][m.end():]
    return "\n".join(lines) + "\n"


def _flags():
    """Each subcommand's flags, read off the parser."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.option_strings[-1] for a in p._actions if a.option_strings[-1:] not in ([], ["--help"], ["--out"])]
        for name, p in sub.choices.items()
    }


def fuzz_cases(tmp_path, rng, mutated=55, flagged=400):
    """`run` on every bundled spec at 40 samples and on `mutated` mutated
    copies, then `flagged` subcommands: half of them a declared experiment
    with some flags set to random values, half random values for every
    flag of a random subcommand."""
    bundled = sorted(SPECS.glob("*.spec"))
    (tmp_path / "unit_interval_compact.spec").write_text(Path(UNIT_INTERVAL).read_text(encoding="utf-8"))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "f").write_text("a file where --out wants a directory")
    specs = []
    for n in range(len(bundled) + mutated):
        source = bundled[n % len(bundled)]
        text = re.sub(r"samples = \d+", "samples = 40", source.read_text(encoding="utf-8"))
        spec = tmp_path / f"m{n}_{source.name}"
        spec.write_text(text if n < len(bundled) else _mutate(text, rng), encoding="utf-8")
        specs.append(str(spec))
    declared = [
        [e.argv[0]] + ([] if e.argv[0] == "verify-filters" else [spec]) + list(e.argv[1:])
        for spec in specs[: len(bundled)]
        for e in specfile.load_spec(spec).experiments
    ]
    cases = [["run", spec, "--out", str(tmp_path / "out")] for spec in specs]
    flags = _flags()
    for _ in range(flagged):
        if rng.random() < 0.5:
            argv = list(rng.choice(declared))
            chosen = [flag for flag in flags[argv[0]] if rng.random() < 0.3]
        else:
            command = rng.choice(sorted(flags))
            argv = [command] + ([] if command == "verify-filters" else [rng.choice(specs)])
            chosen = [flag for flag in flags[command] if rng.random() < 0.7]
        for flag in chosen:
            argv += [flag, rng.choice(FUZZ_VALUES)]
        cases.append(argv + ["--out", str(tmp_path / "out" / rng.choice(FUZZ_VALUES))])
    return cases


def test_fuzzed_flags_and_specs_never_raise(tmp_path):
    """Random values for every flag, and bundled specs at 40 samples with
    lines dropped or duplicated and numbers replaced: every case exits
    0, 1 or 2 and none raises."""
    for argv in fuzz_cases(tmp_path, random.Random(20261018)):
        try:
            rc, _, err = run_in_process(argv)
        except (Exception, SystemExit) as exc:  # any escape is the failure under test
            pytest.fail(f"{argv} raised {exc!r}")
        assert rc in (0, 1, 2), (argv, rc, err)
        assert "Traceback" not in err, (argv, err)
