"""The benchmark's workloads: their inputs, operations and verdict checks.

An operation is one `sikorski` CLI invocation with its own artifact
directory.  Each operation carries the checks that decide whether its
verdicts are right; a check returns a list of problems, empty when the
operation's artifacts say what the construction promises.

* ``grid`` rewrites the bundled specs at finer sampling (the seed
  perturbs every sample count by up to 1 % and moves the `boundize` and
  `tangent` points) and adds experiments so that every sample-sweeping
  subcommand runs at scale.
* ``catalog`` is `verify-filters --max-size 5`.  It has no inputs to
  vary: the seed is recorded and otherwise unused.
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

SPEC_NAMES = (
    "real_line_atan",
    "spiral",
    "rationals_sqrt2",
    "parabola_refinement",
    "unit_interval_compact",
)

# Grid sample counts before the seed's perturbation: about 5x the bundled
# counts, 1.5x for parabola_refinement because the windowed
# compare_uniformities grows quadratically, and a spiral_compare whose
# non-monotone refinement search takes about a second.  A pass then takes
# about four seconds on a 2-core Xeon, so a 50-second run holds about ten
# passes; at ~10x sampling a pass took 6.6-9.8 s there.
GRID_SAMPLES = {
    "real_line_atan": 11001,
    "spiral": 10000,
    "spiral_compare": 8001,
    "rationals_sqrt2": 15001,
    "parabola_refinement": 33001,
    "unit_interval_compact": 501,
}
SAMPLE_BAND = 0.01

# Experiments the grid specs gain, so that compactify, embed, boundize and
# a non-monotone compare-uniform sweep the carrier at scale.
GRID_EXTRAS = {
    "real_line_atan": ["atan_compactify = compactify --family g --tol 1e-3 --tail 50"],
    "spiral": [
        "spiral_embed = embed",
        "spiral_boundize = boundize --omega u1*u2 --gens a,b --point {spiral_point}",
    ],
}
SPIRAL_COMPARE = "spiral_compare = compare-uniform --g-family a,b --h-family c --target-eps 1 --eps-grid 0.1,0.01"

# Subcommands that sweep every carrier sample; `grid` counts one sweep of
# the spec's samples per such experiment as its unit of work.
SWEEPING = ("complete", "compactify", "boundize", "check-map", "embed", "compare-uniform")

IOTA_TOL = 1e-9
BOUNDIZE_TOL = 1e-9


@dataclass
class Op:
    """One CLI invocation: its argv (without `--out`) and its checks."""

    name: str
    argv: list[str]
    checks: list[Callable[[str], list[str]]] = field(default_factory=list)

    def verify(self, out_dir: str) -> list[str]:
        problems: list[str] = []
        for check in self.checks:
            try:
                problems.extend(check(out_dir))
            except (OSError, ValueError, IndexError, KeyError, StopIteration) as err:
                problems.append(f"{check.__name__}: unreadable artifact: {err!r}")
        return problems


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    specs: list[str]  # spec files loaded by set-up
    work_units: float  # work in one pass, in the unit of work_per_ref_s
    work_unit: str
    inputs: dict  # what the seed chose, recorded with the results
    # reads the work of one pass from its artifacts, when the inputs do
    # not fix it in advance
    count_work: Callable[[str], float] | None = None


# ---------------------------------------------------------------- artifacts

def _read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return fh.read()


def _csv_rows(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _report_value(text: str, key: str) -> str:
    for line in text.splitlines():
        if line.strip().startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise KeyError(f"report has no {key!r} line")


def _adjoined(label: str, count: int):
    def check(out_dir: str) -> list[str]:
        got = int(_report_value(_read(out_dir, f"{label}_report.txt"), "adjoined"))
        return [] if got == count else [f"{label}: adjoined {got}, expected {count}"]

    check.__name__ = f"adjoined_{label}"
    return check


def _duplicates(label: str, count: int):
    def check(out_dir: str) -> list[str]:
        value = _report_value(_read(out_dir, f"{label}_report.txt"), "duplicates")
        got = 0 if value == "none" else len(value.split(","))
        return [] if got == count else [f"{label}: {got} duplicate(s), expected {count}"]

    check.__name__ = f"duplicates_{label}"
    return check


def _projection(label: str):
    def check(out_dir: str) -> list[str]:
        text = _read(out_dir, f"{label}_report.txt")
        problems = []
        uncovered = _report_value(text, "iota uncovered")
        if uncovered != "c0, c1, c2, c3":
            problems.append(f"{label}: iota uncovered {uncovered!r}, expected c0-c3")
        residuals = [
            float(line.split(":", 1)[1])
            for line in text.splitlines()
            if line.startswith("iota residual ")
        ]
        if not residuals:
            problems.append(f"{label}: no iota residual lines")
        elif max(residuals) > IOTA_TOL:
            problems.append(f"{label}: iota residual {max(residuals)!r} > {IOTA_TOL}")
        return problems

    check.__name__ = f"projection_{label}"
    return check


def _smooth(label: str):
    def check(out_dir: str) -> list[str]:
        text = _read(out_dir, f"{label}_report.txt")
        line = next(line for line in text.splitlines() if line.startswith("smooth within "))
        tol, verdict = line[len("smooth within "):].split(": ")
        ok = verdict == "yes" and float(tol) <= 1e-9
        return [] if ok else [f"{label}: map is not reported smooth within 1e-9 ({line!r})"]

    check.__name__ = f"smooth_{label}"
    return check


def _tangent_zero(label: str):
    def check(out_dir: str) -> list[str]:
        rows = _csv_rows(out_dir, f"{label}_tangent.csv")
        residuals = [r for r in rows if r["kind"] in ("leibniz", "chain")]
        if not residuals:
            return [f"{label}: no residual rows"]
        return [
            f"{label}: {r['kind']} residual {r['name']} = {r['value']}"
            for r in residuals
            if float(r["value"]) != 0.0
        ]

    check.__name__ = f"tangent_{label}"
    return check


def _bounded(label: str):
    def check(out_dir: str) -> list[str]:
        rows = _csv_rows(out_dir, f"{label}_boundize.csv")
        if not rows:
            return [f"{label}: no bounded generators"]
        problems = []
        for r in rows:
            if float(r["max_abs_gamma"]) > 1.0:
                problems.append(f"{label}: generator {r['generator']} exceeds 1")
            if float(r["local_residual"]) > BOUNDIZE_TOL:
                problems.append(f"{label}: local residual {r['local_residual']} > {BOUNDIZE_TOL}")
        return problems

    check.__name__ = f"bounded_{label}"
    return check


def _embedded(label: str, samples: int):
    def check(out_dir: str) -> list[str]:
        with open(os.path.join(out_dir, f"{label}_points.csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        return [] if rows == samples else [f"{label}: {rows} points, expected {samples}"]

    check.__name__ = f"embedded_{label}"
    return check


def _witness_everywhere(label: str, widths: int):
    def check(out_dir: str) -> list[str]:
        rows = _csv_rows(out_dir, f"{label}_refinement.csv")
        found = sum(1 for r in rows if r["refines"] == "false")
        if len(rows) != widths or found != widths:
            return [f"{label}: witnesses at {found} of {len(rows)} widths, expected {widths}"]
        return []

    check.__name__ = f"witnesses_{label}"
    return check


def _spiral_gens(x: float) -> tuple[float, float, float]:
    t = math.tan(x)
    return x * math.cos(t), x * math.sin(t), t


def _genuine_spiral_witnesses(label: str, target: float):
    """Every reported witness is recomputed here, independently of the
    package: d_G over (a, b) below the width and d_H over c at least the
    target.  A `refines` row is not asserted, because the windowed search
    can miss witnesses of a non-monotone family."""

    def check(out_dir: str) -> list[str]:
        rows = _csv_rows(out_dir, f"{label}_refinement.csv")
        if not rows:
            return [f"{label}: no rows"]
        problems = []
        for r in rows:
            if r["refines"] != "false":
                continue
            eps = float(r["candidate_eps"])
            ga = _spiral_gens(float(r["x_t"]))
            gb = _spiral_gens(float(r["y_t"]))
            d_g = max(abs(ga[0] - gb[0]), abs(ga[1] - gb[1]))
            d_h = abs(ga[2] - gb[2])
            if not (d_g < eps and d_h >= target):
                problems.append(f"{label}: witness at eps {eps} is not genuine (d_G {d_g!r}, d_H {d_h!r})")
        return problems

    check.__name__ = f"genuine_{label}"
    return check


def _filter_laws(max_size: int, models: int):
    def check(out_dir: str) -> list[str]:
        text = _read(out_dir, "catalog_report.txt")
        problems = []
        got = int(_report_value(text, "models checked"))
        if got != models:
            problems.append(f"verify-filters: {got} models, expected {models}")
        if _report_value(text, "counterexamples") != "none":
            problems.append("verify-filters: counterexample reported")
        for n in range(1, max_size + 1):
            found = int(_report_value(text, f"size {n}").split()[0])
            if found != 2**n - 1:
                problems.append(f"verify-filters: size {n} has {found} filters, expected {2**n - 1}")
        return problems

    check.__name__ = "filter_laws"
    return check


def _spec_checks(stem: str, samples: int) -> list[Callable[[str], list[str]]]:
    """Checks for `sikorski run` on a grid spec with `samples` samples."""
    if stem == "real_line_atan":
        return [
            _adjoined("atan_complete", 2),
            _adjoined("id_complete", 0),
            _bounded("boundize_id"),
            _smooth("squash_map"),
            _tangent_zero("tangent_at_1"),
            _adjoined("atan_compactify", 2),
        ]
    if stem == "spiral":
        return [
            _adjoined("plane_complete", 5),
            _adjoined("unwound_complete", 1),
            _projection("projection"),
            _embedded("spiral_embed", samples),
            _bounded("spiral_boundize"),
        ]
    if stem == "spiral_compare":
        return [_genuine_spiral_witnesses("spiral_compare", 1.0)]
    if stem == "rationals_sqrt2":
        return [_adjoined("sqrt2_complete", 1), _embedded("sqrt2_embed", samples)]
    if stem == "parabola_refinement":
        return [_witness_everywhere("refinement", 3)]
    if stem == "unit_interval_compact":
        return [_duplicates("compact_interval", 2)]
    raise KeyError(stem)


def law_checks(op_dir: str) -> float:
    """Total law checks in a verify-filters report."""
    text = _read(op_dir, "catalog_report.txt")
    return float(sum(int(line.split(":")[1].split()[0]) for line in text.splitlines() if line.endswith(" checks")))


# ---------------------------------------------------------------- grid specs

def set_samples(text: str, count: int) -> str:
    new, n = re.subn(r"(?m)^samples = \d+", f"samples = {count}", text)
    if n != 1:
        raise ValueError("spec has no single 'samples = <count>' line")
    return new


def _set_point(text: str, label: str, point: str) -> str:
    new, n = re.subn(rf"(?m)^({label} = .*--point )\S+", rf"\g<1>{point}", text)
    if n != 1:
        raise ValueError(f"spec has no experiment {label} with --point")
    return new


def _sweeps(text: str) -> int:
    body = text.split("[experiments]", 1)[1]
    return sum(
        1
        for line in body.splitlines()
        if "=" in line and not line.lstrip().startswith("#")
        and line.split("=", 1)[1].split()[0] in SWEEPING
    )


def build_grid(seed: int, spec_dir: str, out_dir: str) -> Workload:
    rng = random.Random(seed)
    counts = {
        stem: round(n * (1.0 + rng.uniform(-SAMPLE_BAND, SAMPLE_BAND)))
        for stem, n in GRID_SAMPLES.items()
    }
    points = {
        "boundize_id": f"{rng.uniform(-0.5, 0.5):.6f}",
        "tangent_at_1": f"{rng.uniform(0.5, 1.5):.6f}",
        "spiral_boundize": f"{rng.uniform(0.95, 1.05):.6f}",
    }
    os.makedirs(out_dir, exist_ok=True)
    texts = {}
    for stem in SPEC_NAMES:
        with open(os.path.join(spec_dir, f"{stem}.spec"), encoding="utf-8") as fh:
            texts[stem] = fh.read()
    # spiral_compare keeps the spiral space and replaces its experiments
    texts["spiral_compare"] = texts["spiral"].split("[experiments]", 1)[0] + "[experiments]\n" + SPIRAL_COMPARE + "\n"
    texts["real_line_atan"] = _set_point(texts["real_line_atan"], "boundize_id", points["boundize_id"])
    texts["real_line_atan"] = _set_point(texts["real_line_atan"], "tangent_at_1", points["tangent_at_1"])

    ops, specs, swept = [], [], 0
    for stem, text in texts.items():
        text = set_samples(text, counts[stem])
        extra = [line.format(spiral_point=points["spiral_boundize"]) for line in GRID_EXTRAS.get(stem, [])]
        if extra:
            text = text.rstrip("\n") + "\n" + "\n".join(extra) + "\n"
        path = os.path.join(out_dir, f"{stem}.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        specs.append(path)
        swept += counts[stem] * _sweeps(text)
        ops.append(Op(f"run_{stem}", ["run", path], _spec_checks(stem, counts[stem])))
    return Workload(
        "grid", seed, ops, specs, float(swept), "swept samples",
        {"samples": counts, "points": points},
    )


def build_catalog(seed: int) -> Workload:
    # 75 uniformity models: one per partition of each ground set of size
    # 1..5 (Bell numbers 1, 2, 5, 15, 52)
    op = Op(
        "verify_filters_5",
        ["verify-filters", "--max-size", "5", "--label", "catalog"],
        [_filter_laws(5, 75)],
    )
    return Workload(
        "catalog", seed, [op], [], 0.0, "law checks", {},
        count_work=lambda pass_dir: law_checks(os.path.join(pass_dir, op.name)),
    )


WORKLOADS = ("grid", "catalog")


def build(name: str, seed: int, spec_dir: str, work_dir: str) -> Workload:
    if name == "grid":
        return build_grid(seed, spec_dir, os.path.join(work_dir, "specs"))
    if name == "catalog":
        return build_catalog(seed)
    raise ValueError(f"unknown workload {name!r}")
