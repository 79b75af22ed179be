"""Command line front end.

Each subcommand loads a spec file, runs one construction, and writes
CSV artifacts plus a short text report under ``--out``; ``run`` loads its
spec once for all its experiments, parses each experiment once, checking
its command and flags, before the first one runs, and then hands each
parsed experiment straight to its handler.  Every CSV
artifact goes through one writer, `_write_csv`, which owns the float
format and the quoting.  Handlers hand it blocks of rows: a block's
text cells are the same in every row and are quoted once, the way
`csv.writer` quotes them, and its numbers come as one matrix, which is
formatted a fixed-size slice of rows at a time by the byte kernel in
`sikorski._numfmt`: whole columns become the exact bytes of ``%.17g``,
and Python's scalar conversion runs only for the few values whose
digits the kernel cannot prove exact.  Within one `main` call nothing
is computed twice: `sikorski.space` memoizes each carrier's sweep and
each family's embedding, the writer memoizes each column's fields on
the column's bytes, and `main` empties all three when its command line
ends, however it ends, so the experiments of a ``run`` share them and
no invocation sees another's.  Output is
deterministic: floats are printed with 17 significant digits, rows
follow declaration or sample order, and nothing timestamps itself.
Exit status is 0 on success, 1 when a library invariant fails, and 2
for usage or spec-file problems.  `_dispatch` turns one parsed command's
outcome into that status and its one stderr line, for every direct
command and every experiment of a ``run``: a handler writes its
artifacts and summary, then raises ``ValueError`` if an invariant
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import math
import os
import re
import sys
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from . import specfile, tangent
from .compactify import boundize, compactify
from .completion import CompletedSpace, IotaReport, complete, iota, maximal_family
from .expr import ExprError, eval_constant, parse_expr
from .filters import _MAX_GROUND, verify_filter_laws
from .space import (
    DiffSpace,
    SmoothFunction,
    check_smooth_map,
    embed,
    forget_sweeps,
    placeholders,
)
from .specfile import SpecError
from .tangent import TangentVector
from .uniform import Probe, compare_uniformities

__all__ = ["main"]

IOTA_TOL = 1e-9
_RESIDUAL_SCALE = 1e-12
_FLOAT = "%.17g"  # every float the CLI prints, in artifacts and on stdout
_UNSET = object()  # an option the command line did not give

class UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return _FLOAT % float(value)


def _split_names(flag: str, what: str) -> list[str]:
    names = [part.strip() for part in flag.split(",") if part.strip()]
    if not names:
        raise UsageError(f"{what}: empty list {flag!r}")
    return names


def _parse_point(flag: str, what: str, dim: int | None = None) -> tuple[float, ...]:
    """The comma-separated finite constants of a flag; `dim`, when given, is the
    number of coordinates the flag must list."""
    values = []
    for part in _split_names(flag, what):
        try:
            values.append(eval_constant(part))
        except ExprError as err:
            raise UsageError(f"{what}: {err}") from err
    if dim is not None and len(values) != dim:
        raise UsageError(f"{what}: expected {dim} coordinate(s), got {len(values)}")
    return tuple(values)


def _declared_names(flag: str, what: str, declared: Collection[str], kind: str = "generator") -> list[str]:
    """The names a flag lists, each one among the `declared` names of its
    `kind` and listed once."""
    names = _split_names(flag, what)
    for i, name in enumerate(names):
        if name not in declared:
            raise UsageError(f"{what}: no {kind} named {name!r}")
        if name in names[:i]:
            raise UsageError(f"{what}: {kind} {name!r} is listed twice")
    return names


def _resolve_family(space: DiffSpace, flag: str | None) -> DiffSpace:
    if flag is None:
        return space
    if flag.startswith("maximal:"):
        try:
            degree = int(flag.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--family {flag!r}: the degree must be an integer") from None
        try:
            family = maximal_family(space.family, degree)
        except ValueError as err:
            raise UsageError(f"--family {flag!r}: {err}") from None
        return dataclasses.replace(space, family=family)
    return space.with_generators(_declared_names(flag, "--family", space.family.names))


def _check_probe_flags(args) -> None:
    if not 0.0 < args.tol < math.inf:
        raise UsageError(f"--tol must be positive and finite, got {args.tol!r}")
    if args.tail < 2:
        raise UsageError(f"--tail must be at least 2, got {args.tail}")


def _select_probes(spec: specfile.SpecFile, flag: str | None) -> list[Probe]:
    if flag is None:
        return list(spec.probes)
    by_name = {p.name: p for p in spec.probes}
    return [by_name[n] for n in _declared_names(flag, "--probes", by_name, "probe")]


def _artifact(args, suffix: str) -> str:
    label = args.command.replace("-", "_") if args.label is None else args.label
    if not label:
        raise UsageError("--label '': a label cannot be empty")
    if os.sep in label or (os.altsep and os.altsep in label):
        raise UsageError(f"--label {label!r}: a label names files in --out, not a path")
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, f"{label}_{suffix}")


def _map(spec: specfile.SpecFile, name: str) -> specfile.LoadedMap:
    """The map `--map` names, which the spec must declare."""
    if name not in spec.maps:
        raise UsageError(f"--map: spec declares no map named {name!r}")
    return spec.maps[name]


def _spec(args) -> specfile.SpecFile:
    """The spec file the command names: the one `run` has loaded already,
    when `run` is the caller."""
    return args.spec_file or specfile.load_spec(args.spec)


class _Slot(str):
    """A block cell that differs from row to row: the ``%.17g``
    conversion, with constant text around it if need be, filled from the
    next column of the block's values.  An integer below 2**53 is
    written as ``%d`` writes it."""


_FLOAT_SLOT = _Slot(_FLOAT)
_SLICE_ROWS = 4096  # rows formatted per write, so a block is never one whole-file string
# The fields of every column formatted so far in this `main` call, keyed on
# the column's own bytes, so that a hit is a byte-equal column.  Not a
# digest: hashlib loads OpenSSL, 3.35 MiB of resident memory.
_FIELDS: dict[bytes, np.ndarray] = {}
_CONVERSION = re.compile(r"%(%|\.17g)")  # in a row format: an escaped % or a slot


class _Block(NamedTuple):
    """Rows of a CSV artifact that share their constant cells.

    `cells` is the row: each `_Slot` takes the next column of `values`,
    every other cell is written the same in every row.  `values` is a
    float64 matrix with one row per CSV row; the default is one row with
    no slots."""

    cells: Sequence
    values: np.ndarray = np.empty((1, 0))


def _cell_text(cell) -> str:
    """A constant cell's text: None is an empty cell, a float has 17
    significant digits, anything else is what `csv.writer` makes of it."""
    if cell is None:
        return ""
    return _fmt(cell) if isinstance(cell, float) else str(cell)


def _row_format(cells: Sequence) -> str:
    """One CSV row as a `%` format: the row written by `csv.writer`, with
    every ``%`` of a constant cell doubled and each slot a bare conversion."""
    text = [c if isinstance(c, _Slot) else _cell_text(c).replace("%", "%%") for c in cells]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(text)
    return buf.getvalue()


def _row_pieces(cells: Sequence) -> list[bytes]:
    """A row as the constant bytes before, between and after its slots."""
    parts = _CONVERSION.split(_row_format(cells))
    constants, text = [], parts[0]
    for conversion, after in zip(parts[1::2], parts[2::2]):
        if conversion == "%":
            text += "%" + after
        else:
            constants.append(text.encode())
            text = after
    constants.append(text.encode())
    return constants


def _slice_bytes(constants: list[bytes], values: np.ndarray):
    """The rows of one slice of a block: each row's constant bytes with
    its values' fields between them, and every NUL that is not part of a
    constant dropped."""
    n = len(values)
    if len(constants) == 1:
        return constants[0] * n
    from . import _numfmt  # its tables are built for the first block with slots, not at import
    first = np.frombuffer(constants[0], dtype=np.uint8)
    pieces, constant_nul = [np.broadcast_to(first, (n, len(first)))], [first == 0]
    for column, constant in zip(values.T, constants[1:]):
        key = column.tobytes()
        field = _FIELDS.get(key)
        if field is None:
            field = _FIELDS[key] = _numfmt.fields(column)
        const = np.frombuffer(constant, dtype=np.uint8)
        pieces += [field, np.broadcast_to(const, (n, len(const)))]
        constant_nul += [np.zeros(field.shape[1], dtype=bool), const == 0]
    rows = np.concatenate(pieces, axis=1)
    del pieces  # the fields, before the mask is made
    keep = rows != 0
    if b"\0" in b"".join(constants):
        keep |= np.concatenate(constant_nul)
    return rows[keep]


def _write_csv(path: str, header: Sequence[str], blocks: Iterable[_Block]) -> None:
    """Write one CSV artifact: the header, then each block's rows.

    A block's row is quoted once, exactly as `csv.writer` quotes it, and
    split into the constant bytes between its slots.  Its values are then
    written `_SLICE_ROWS` rows at a time, which keeps memory flat however
    many rows the block has: `_numfmt.fields` gives each value's text in a
    NUL-padded field, the constants and fields of every row are laid side
    by side, and one boolean compaction drops the padding."""
    with open(path, "wb") as fh:
        for cells, values in itertools.chain([_Block(header)], blocks):
            constants = _row_pieces(cells)
            for start in range(0, len(values), _SLICE_ROWS):
                fh.write(_slice_bytes(constants, values[start : start + _SLICE_ROWS]))


def _write_report(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_points(path: str, cs: CompletedSpace) -> None:
    base = _Block(("base", "", *[_FLOAT_SLOT] * len(cs.names)), cs.base.coords)
    adjoined = (_Block(("adjoined", a.probe, *a.coords)) for a in cs.adjoined)
    _write_csv(path, ["point_kind", "probe_name", *cs.names], itertools.chain([base], adjoined))


def _completion_lines(cs: CompletedSpace) -> list[str]:
    lines = []
    for v in cs.verdicts:
        osc = ", ".join(f"{n}={_fmt(o)}" for n, o in v.oscillation)
        limit = "-" if v.limit is None else "(" + ", ".join(_fmt(c) for c in v.limit) + ")"
        lines.append(f"probe {v.probe}: {v.status}  oscillation[{osc}]  limit {limit}")
    lines.append(f"adjoined: {len(cs.adjoined)}")
    lines.append("duplicates: " + (", ".join(cs.duplicates) if cs.duplicates else "none"))
    return lines


def _completeness_line(cs: CompletedSpace) -> str:
    """The paper's completeness condition, read off the completion: `no`
    names the first adjoined probe and its max-norm distance to the
    nearest sample, `undecided` the first undecided probe."""
    head = f"complete over {','.join(cs.names)}: "
    if cs.adjoined:
        first = cs.adjoined[0]
        distance = np.abs(cs.base.coords - first.coords).max(axis=1).min()
        return head + f"no (probe {first.probe}, {_fmt(distance)} from the nearest sample)"
    undecided = [v.probe for v in cs.verdicts if v.status == "undecided"]
    return head + (f"undecided (probe {undecided[0]})" if undecided else "yes")


def _write_iota(path: str, rep: IotaReport) -> None:
    label = _Slot("base:%.17g")  # base point i lands on base point i
    index = np.arange(len(rep.base), dtype=float)[:, None]
    base = _Block((label, label, *[_FLOAT_SLOT] * len(rep.sub_names)), np.hstack([index, index, rep.base]))
    entries = (_Block((e.source, e.target, *e.coords)) for e in rep.entries)
    _write_csv(path, ["source", "target", *rep.sub_names], itertools.chain([base], entries))


def cmd_embed(args) -> None:
    spec = _spec(args)
    space = _resolve_family(spec.space, args.family)
    cloud = embed(space)
    path = _artifact(args, "points.csv")
    header = ["point_index", *space.carrier.params, *cloud.names]
    index = np.arange(len(cloud.coords), dtype=float)[:, None]
    values = np.hstack([index, cloud.params, cloud.coords])
    _write_csv(path, header, [_Block((_FLOAT_SLOT,) * values.shape[1], values)])
    print(f"embed: {len(cloud.coords)} points, {len(cloud.names)} coordinates -> {path}")


def cmd_complete(args) -> None:
    _check_probe_flags(args)
    spec = _spec(args)
    space = _resolve_family(spec.space, args.family)
    probes = _select_probes(spec, args.probes)
    sub = None
    if args.subfamily is not None:
        sub = space.with_generators(_declared_names(args.subfamily, "--subfamily", space.family.names))
    cs = complete(space, probes, tol=args.tol, tail=args.tail)
    _write_points(_artifact(args, "points.csv"), cs)
    lines = _completion_lines(cs) + [_completeness_line(cs)]
    if sub is not None:
        cs_sub = complete(sub, probes, tol=args.tol, tail=args.tail)
        rep = iota(cs, cs_sub)
        _write_iota(_artifact(args, "iota.csv"), rep)
        for gen_name, r in rep.residuals:
            lines.append(f"iota residual {gen_name}: {_fmt(r)}")
        lines.append(
            "iota uncovered: " + (", ".join(rep.uncovered) if rep.uncovered else "none")
        )
    _write_report(_artifact(args, "report.txt"), lines)
    print(f"complete: {len(cs.adjoined)} adjoined, {len(cs.duplicates)} duplicate(s)")
    if sub is not None and rep.max_residual() > IOTA_TOL:
        raise ValueError(
            f"extension compatibility residual {_fmt(rep.max_residual())} exceeds {_fmt(IOTA_TOL)}"
        )


def cmd_compactify(args) -> None:
    _check_probe_flags(args)
    spec = _spec(args)
    space = _resolve_family(spec.space, args.family)
    probes = _select_probes(spec, args.probes)
    normalized, cs = compactify(space, probes, tol=args.tol, tail=args.tail)
    lines = [f"normalized {ng.name}: sup {_fmt(ng.sup)} at sample {ng.argmax_index}" for ng in normalized]
    _write_points(_artifact(args, "points.csv"), cs)
    _write_report(_artifact(args, "report.txt"), lines + _completion_lines(cs))
    print(f"compactify: {len(cs.adjoined)} adjoined, {len(cs.duplicates)} duplicate(s)")


def cmd_boundize(args) -> None:
    spec = _spec(args)
    gen_names = _declared_names(args.gens, "--gens", spec.space.family.names)
    omega_vars = placeholders(len(gen_names))
    try:
        omega = parse_expr(args.omega, allowed_vars=omega_vars)
    except ExprError as err:
        raise UsageError(f"--omega: {err}") from err
    fn = SmoothFunction(omega, omega_vars, tuple(gen_names))
    point = _parse_point(args.point, "--point", len(spec.space.carrier.ambient))
    bset = boundize(spec.space, fn, point)
    path = _artifact(args, "boundize.csv")
    columns = zip(bset.gen_names, bset.mus, bset.max_abs_gamma)
    _write_csv(
        path,
        ["generator", "mu", "max_abs_gamma", "local_residual"],
        (_Block((name, mu, mg, bset.local_residual)) for name, mu, mg in columns),
    )
    print(
        f"boundize: {len(bset.gen_names)} generator(s) at {args.point},"
        f" residual {_fmt(bset.local_residual)} on {bset.local_sample_count} local sample(s)"
    )


def cmd_compare_uniform(args) -> None:
    spec = _spec(args)
    g_names = _declared_names(args.g_family, "--g-family", spec.space.family.names)
    h_names = _declared_names(args.h_family, "--h-family", spec.space.family.names)
    eps_grid = list(_parse_point(args.eps_grid, "--eps-grid"))
    if not all(eps > 0.0 for eps in eps_grid):
        raise UsageError(f"--eps-grid: widths must be positive, got {args.eps_grid!r}")
    if not 0.0 < args.target_eps < math.inf:
        raise UsageError(f"--target-eps must be positive and finite, got {args.target_eps!r}")
    rep = compare_uniformities(spec.space, g_names, h_names, eps_grid, args.target_eps)
    params = spec.space.carrier.params
    path = _artifact(args, "refinement.csv")
    blank = (None,) * len(params)  # a refines row has no witness
    _write_csv(
        path,
        ["candidate_eps", "refines", "target", "violated", "d_g"]
        + [f"x_{p}" for p in params]
        + [f"y_{p}" for p in params],
        (
            _Block((row.candidate_eps, "true" if row.refines else "false", row.target, row.violated, row.d_g,
                    *(row.witness_x or blank), *(row.witness_y or blank)))
            for row in rep.rows
        ),
    )
    found = sum(1 for row in rep.rows if not row.refines)
    print(
        f"compare-uniform: {found} of {len(rep.rows)} widths produced a witness,"
        f" {rep.pairs_examined} pairs examined -> {path}"
    )


def cmd_tangent(args) -> None:
    spec = _spec(args)
    space = spec.space
    dim = len(space.carrier.ambient)
    point = _parse_point(args.point, "--point", dim)
    coeffs = _parse_point(args.vector, "--vector", dim)
    v = TangentVector(point, coeffs)
    names = space.family.names
    if args.functions is not None:
        names = _declared_names(args.functions, "--functions", names)
    funcs = [(n, SmoothFunction.of_generator(n)) for n in names]

    rows: list[tuple[str, str, float]] = []
    failures: list[str] = []
    for n, fn in funcs:
        rows.append(("apply", n, tangent.apply(space, v, fn)))
    for i, (n1, f1) in enumerate(funcs):
        for n2, f2 in funcs[i:]:
            residual, scale = tangent.leibniz_check(space, v, f1, f2)
            rows.append(("leibniz", f"{n1}*{n2}", residual))
            if not residual <= _RESIDUAL_SCALE * scale:
                failures.append(f"leibniz residual {_fmt(residual)} for {n1}*{n2}")

    if args.map is not None:
        loaded = _map(spec, args.map)
        pushed = tangent.tangent_map(space, loaded.witness, v)
        target = loaded.witness.target
        for amb, c in zip(target.carrier.ambient, pushed.coeffs):
            rows.append(("pushforward", f"{args.map}.{amb}", c))
        for amb, c in zip(target.carrier.ambient, pushed.point):
            rows.append(("image", f"{args.map}.{amb}", c))
        for gen_name in target.family.names:
            beta = SmoothFunction.of_generator(gen_name)
            residual, scale = tangent.chain_rule_check(space, loaded.witness, v, beta)
            rows.append(("chain", f"{args.map}:{gen_name}", residual))
            if not residual <= _RESIDUAL_SCALE * scale:
                failures.append(f"chain rule residual {_fmt(residual)} for {gen_name}")

    _write_csv(_artifact(args, "tangent.csv"), ["kind", "name", "value"], map(_Block, rows))
    for kind, name, value in rows:
        print(f"{kind} {name} = {_fmt(value)}")
    if failures:
        raise ValueError("; ".join(failures))


def cmd_check_map(args) -> None:
    if not 0.0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be finite and not negative, got {args.tol!r}")
    spec = _spec(args)
    loaded = _map(spec, args.map)
    rep = check_smooth_map(spec.space, loaded.witness, tol=args.tol)
    _write_csv(_artifact(args, "map.csv"), ["generator", "max_residual"], map(_Block, rep.residuals))
    worst = "-" if rep.worst_point is None else "(" + ", ".join(_fmt(c) for c in rep.worst_point) + ")"
    _write_report(
        _artifact(args, "report.txt"),
        [
            f"map {args.map} -> {loaded.target.name}",
            f"smooth within {_fmt(rep.tol)}: {'yes' if rep.smooth else 'no'}",
            f"max residual: {_fmt(rep.max_residual())} at {worst}",
        ],
    )
    print(f"check-map: max residual {_fmt(rep.max_residual())} (tol {_fmt(rep.tol)})")
    if not rep.smooth:
        raise ValueError(f"pullback witness residual {_fmt(rep.max_residual())} exceeds {_fmt(rep.tol)}")


def cmd_verify_filters(args) -> None:
    if not 1 <= args.max_size <= _MAX_GROUND:
        raise UsageError(f"--max-size must be between 1 and {_MAX_GROUND}, got {args.max_size}")
    rep = verify_filter_laws(args.max_size)
    _write_csv(
        _artifact(args, "models.csv"),
        ["ground_size", "model_index", "entourages", "filters", "checks", "failures"],
        (
            _Block((m.ground_size, m.model_index, m.n_entourages, m.n_filters,
                    sum(count for _, count in m.checks), len(m.failures)))
            for m in rep.models
        ),
    )
    summary = rep.summary_text()
    _write_report(_artifact(args, "report.txt"), summary.splitlines())
    print(summary)
    if not rep.passed:
        raise ValueError(rep.first_counterexample)


def cmd_run(args) -> int | None:
    """Each experiment through `_dispatch`, with the spec loaded here,
    stopping at the first that exits non-zero; that exit status is the
    run's.  Every experiment is parsed once, by its command's parser,
    before the first runs: it may not ask for help or set --out or
    --label, which run sets."""
    spec = _spec(args)
    by_label = {e.label: e for e in spec.experiments}
    labels = args.labels or [e.label for e in spec.experiments]
    unknown = [l for l in labels if l not in by_label]
    if unknown:
        raise UsageError(f"spec declares no experiment(s) {unknown}")
    if not labels:
        raise UsageError("spec declares no experiments")
    commands, parsed = _parser().commands, {}
    for label in labels:
        argv = by_label[label].argv
        if argv[0] == "run":
            raise UsageError(f"experiment {label} is itself a run; runs do not nest")
        if argv[0] not in commands:
            raise UsageError(f"experiment {label}: {argv[0]!r} is not a command")
        spec_arg = [] if argv[0] == "verify-filters" else [args.spec]
        # --out and --label start unset, so the parse shows whether the
        # experiment sets them, in any spelling argparse accepts
        given = argparse.Namespace(out=_UNSET, label=_UNSET)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                commands[argv[0]].parse_args([*spec_arg, *argv[1:]], given)
        except _BadArguments as err:
            raise UsageError(f"experiment {label}: {err}") from None
        except SystemExit:  # the help action printed (into the buffer) and exited
            raise UsageError(f"experiment {label}: asks for help instead of running") from None
        own = [f"--{flag}" for flag in ("out", "label") if getattr(given, flag) is not _UNSET]
        if own:
            raise UsageError(
                f"experiment {label}: sets {' and '.join(own)}, which run sets for every experiment"
            )
        given.command, given.out, given.label, given.spec_file = argv[0], args.out, label, spec
        parsed[label] = given
    for label in labels:
        print(f"run {label}: {' '.join(by_label[label].argv)}")
        rc = _dispatch(parsed[label])
        if rc != 0:
            return rc


class _BadArguments(Exception):
    """A command line argparse rejects, with the parser that rejected it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, raising `_BadArguments` where argparse would print
    the usage and exit, so that `run` can check an experiment's flags.
    The top-level parser's ``commands`` maps each command to its parser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise _BadArguments(self, message)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every
    ``main`` call in the process and by ``run``'s experiments.  A
    command's parser holds its ``handler``, and the ``module`` a failed
    invariant is reported from, as defaults."""
    parser = _ArgumentParser(
        prog="sikorski",
        description="generator embeddings, completions, and compactifications of "
        "parametrized differential spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler, module: str, with_spec: bool = True) -> None:
        p.set_defaults(handler=handler, module=module)
        if with_spec:
            p.add_argument("spec", help="path to a spec file")
        p.add_argument("--out", default=".", help="directory for artifacts (default: .)")
        p.add_argument("--label", default=None, help="artifact file prefix (default: command name)")

    p = sub.add_parser("embed", help="sample the carrier and write the generator embedding")
    common(p, cmd_embed, "space")
    p.add_argument("--family", default=None, help="comma list of generators, or maximal:<degree>")

    p = sub.add_parser("complete", help="adjoin the limits of Cauchy probes")
    common(p, cmd_complete, "completion")
    p.add_argument("--family", default=None)
    p.add_argument("--subfamily", default=None, help="also map this completion onto a subfamily")
    p.add_argument("--probes", default=None, help="comma list of probe names (default: all)")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--tail", type=int, default=50)

    p = sub.add_parser("compactify", help="normalize the family and complete into the unit cube")
    common(p, cmd_compactify, "compactify")
    p.add_argument("--family", default=None)
    p.add_argument("--probes", default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--tail", type=int, default=50)

    p = sub.add_parser("boundize", help="bounded replacement generators around a point")
    common(p, cmd_boundize, "compactify")
    p.add_argument("--omega", required=True, help="witness expression in u1..uk")
    p.add_argument("--gens", required=True, help="comma list of generator names")
    p.add_argument("--point", required=True, help="ambient point, comma separated")

    p = sub.add_parser("compare-uniform", help="search for refinement counterexample pairs")
    common(p, cmd_compare_uniform, "uniform")
    p.add_argument("--g-family", required=True)
    p.add_argument("--h-family", required=True)
    p.add_argument("--target-eps", type=float, default=1.0)
    p.add_argument("--eps-grid", required=True, help="comma list of candidate widths")

    p = sub.add_parser("tangent", help="directional derivatives and product/chain residuals")
    common(p, cmd_tangent, "tangent")
    p.add_argument("--point", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--functions", default=None, help="comma list of generators (default: all)")
    p.add_argument("--map", default=None, help="also push the vector through this declared map")

    p = sub.add_parser("check-map", help="validate a declared smooth-map witness on all samples")
    common(p, cmd_check_map, "space")
    p.add_argument("--map", required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("verify-filters", help="exhaustive finite-model checks of the filter laws")
    common(p, cmd_verify_filters, "filters", with_spec=False)
    p.add_argument("--max-size", type=int, default=4)

    p = sub.add_parser("run", help="run experiments declared in the spec file")
    common(p, cmd_run, "cli")
    p.add_argument("labels", nargs="*", help="experiment labels (default: all, in order)")

    parser.commands = sub.choices
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit status."""
    try:
        args = _parser().parse_args(argv)
    except _BadArguments as err:  # what argparse itself prints
        err.parser.print_usage(sys.stderr)
        print(f"{err.parser.prog}: error: {err}", file=sys.stderr)
        return 2
    except SystemExit as exit_:  # argparse has printed the help
        return exit_.code
    args.spec_file = None
    try:
        return _dispatch(args)
    finally:  # the memos serve one command line
        forget_sweeps()
        _FIELDS.clear()


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed command through its handler, and turn the outcome
    into its exit status and its one stderr line."""
    try:
        return args.handler(args) or 0
    except (SpecError, UsageError, OSError) as err:  # OSError: --out cannot be written
        print(f"sikorski {args.command}: {err}", file=sys.stderr)
        return 2
    except (KeyError, ExprError, ValueError) as err:
        # str() of a KeyError is the repr of its message; print the message
        detail = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(
            f"sikorski {args.command} ({args.module}): invariant violated: {detail}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
