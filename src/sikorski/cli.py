"""Command line front end.

Each subcommand runs one construction on a spec file and writes CSV
artifacts plus a short text report under ``--out``; ``run`` loads its
spec once for all its experiments and checks every one of them, its
command, flag names and flag values, before the first one runs.  Every CSV
artifact goes through one writer, `_write_csv`, which owns the float
format and the quoting.  Handlers hand it rows of cells.  A cell that
changes from row to row is a `_Column`: a float64 column the handler
already holds, after a constant prefix if need be, and a row with
columns stands for one CSV row per value.  Such a row is written once
by `csv.writer`, with a private-use mark (U+E000) where each column's
numbers go, and that text split at the marks gives the constant bytes
of every CSV row; no cell's own text may hold NUL or the mark.  The
columns are formatted a fixed-size slice at a time by the byte kernel
in `sikorski._numfmt`: whole columns become the exact bytes of
``%.17g``, and Python's scalar conversion runs only for the few values
whose digits the kernel cannot prove exact.  Within one `main` call nothing
is computed twice: `main` runs its command line in one
`sikorski.space.memo_scope` block, within which each carrier's sweep,
each family's embedding and, keyed on the column's bytes, each column's
fields are made once.  The block ends with the command line, however it
ends, so the experiments of a ``run`` share the memo and no invocation
sees another's.  Output is
deterministic: floats are printed with 17 significant digits, rows
follow declaration or sample order, and nothing timestamps itself.
Exit status is 0 on success, 1 when a library invariant fails, and 2
for usage or spec-file problems.  A handler is a generator over the
parsed flags and the spec: it makes its checks, raising `UsageError`,
then yields once, and only then works: it writes its artifacts and
summary, then raises ``ValueError`` if an invariant failed.
`_dispatch` loads a command's spec, runs the handler through its checks
and then its work, and turns the outcome into that status and its one
stderr line, for every direct command and every experiment of a ``run``.

A process that calls `main` keeps the memory it frees until it exits:
the first call runs `_keep_freed_memory`, which raises glibc's trim and
mmap thresholds to 256 MiB; importing this module changes no malloc
setting, so a library caller that only imports it keeps glibc's
defaults.  By default glibc hands a freed heap top back to the kernel
after every 4,096-row CSV slice and every refinement width, and the next
one faults the same pages in again: a cold ``grid`` benchmark pass
(seed 5) took 7,379 minor page faults, and takes about 1,035 with the
thresholds raised, at the same peak resident memory.  No output depends
on it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import functools
import io
import itertools
import math
import os
import sys
from typing import Collection, Generator, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import specfile, tangent
from .compactify import boundize, compactify
from .completion import CompletedSpace, IotaReport, complete, iota, maximal_family
from .expr import MAX_DEPTH, ExprError, eval_constant, parse_expr
from .filters import _MAX_GROUND, verify_filter_laws
from .space import (
    DiffSpace,
    SmoothFunction,
    _memoized,
    check_smooth_map,
    embed,
    memo_scope,
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
_HEAP_KEPT = 256 << 20  # bytes: glibc trims no free heap top and maps no block below this


@functools.cache  # once per process, at the first `main` call
def _keep_freed_memory() -> None:
    """Have glibc keep the memory this process frees until it exits.

    By default glibc maps a block above its mmap threshold on its own and
    unmaps it when freed, and trims a free heap top above its trim
    threshold; both start at 128 KiB, and freeing a mapped block raises
    them to its size and twice that, up to 32 MiB.  So every next
    sample-sized temporary (a CSV slice, a refinement width's edges and
    flags) faults its pages in anew.  Setting either of M_TRIM_THRESHOLD
    (-1) or M_MMAP_THRESHOLD (-3) stops glibc adjusting the other, so both
    are set.  Without a C library that has `mallopt` this does nothing; no
    output depends on it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library, no mallopt, or no CDLL(None) (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, _HEAP_KEPT)  # M_TRIM_THRESHOLD
    mallopt(-3, _HEAP_KEPT)  # M_MMAP_THRESHOLD


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


def _select_probes(spec: specfile.SpecFile, flag: str | None, tail: int) -> list[Probe]:
    """The probes `--probes` names (default: every probe of the spec); a
    `--tail` longer than one's schedule, which would be judged over fewer
    indices than it asks for, is refused."""
    if flag is None:
        probes = list(spec.probes)
    else:
        by_name = {p.name: p for p in spec.probes}
        probes = [by_name[n] for n in _declared_names(flag, "--probes", by_name, "probe")]
    for p in probes:
        try:
            p.check_tail(tail)
        except ValueError as err:
            raise UsageError(f"--tail: {err}") from None
    return probes


def _artifact(args, suffix: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, f"{args.label}_{suffix}")


def _map(spec: specfile.SpecFile, name: str) -> specfile.LoadedMap:
    """The map `--map` names, which the spec must declare."""
    if name not in spec.maps:
        raise UsageError(f"--map: spec declares no map named {name!r}")
    return spec.maps[name]


_MARK = "\ue000"  # a private-use character: a column's place in a row, in no cell's own text
_SLICE_ROWS = 4096  # values formatted per write, so a column is never one whole-file string


class _Column(NamedTuple):
    """A CSV cell that changes from row to row: `prefix`, then the
    ``%.17g`` text of the row's value in `values`, a float64 column.  An
    integer below 2**53 is written as ``%d`` writes it."""

    values: np.ndarray
    prefix: str = ""


def _cell_text(cell) -> str:
    """A cell's text for `csv.writer`: a column is its prefix and `_MARK`,
    None is an empty cell, a float has 17 significant digits, anything
    else is what `csv.writer` makes of it.  NUL is the fields' padding
    and `_MARK` a column's place, so neither may stand in a cell's own
    text, a column's prefix included."""
    if isinstance(cell, _Column):
        return _cell_text(cell.prefix) + _MARK
    if cell is None:
        return ""
    text = _fmt(cell) if isinstance(cell, float) else str(cell)
    if "\0" in text or _MARK in text:
        raise ValueError(f"a CSV cell cannot hold NUL or U+E000: {text!r}")
    return text


def _row_pieces(row: Sequence) -> list[bytes]:
    """A row as the constant bytes before, between and after its columns:
    the row written by `csv.writer`, split at each column's mark."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(map(_cell_text, row))
    return [piece.encode() for piece in buf.getvalue().split(_MARK)]


def _slice_bytes(constants: list[bytes], columns: Sequence[np.ndarray]):
    """The CSV rows of one slice of a row's columns, all of one length:
    each row's constant bytes with its values' fields between them, and
    the fields' NUL padding dropped; a row without columns is its one
    constant piece.  Within a `memo_scope` block each column's fields
    are made once, keyed on the column's own bytes, so that a hit is a
    byte-equal column; not on a digest, as hashlib loads OpenSSL, 3.35
    MiB of resident memory."""
    if not columns:
        return constants[0]
    from . import _numfmt  # its tables are built for the first row with columns, not at import
    n = len(columns[0])
    first = np.frombuffer(constants[0], dtype=np.uint8)
    pieces = [np.broadcast_to(first, (n, len(first)))]
    for column, constant in zip(columns, constants[1:]):
        field = _memoized(column.tobytes(), functools.partial(_numfmt.fields, column))
        const = np.frombuffer(constant, dtype=np.uint8)
        pieces += [field, np.broadcast_to(const, (n, len(const)))]
    rows = np.concatenate(pieces, axis=1).ravel()  # C-ordered, as the fields are, so a view
    del pieces  # the fields, before the mask is made
    return rows[rows != 0]


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: the header, then each row's CSV rows.

    A row is a sequence of cells.  A row without a `_Column` is one CSV
    row; a row with columns, which share one length, is one CSV row per
    value, none if they are empty.  The row is quoted once, exactly as
    `csv.writer` quotes it, and split into the constant bytes between its
    columns.  The columns are then written `_SLICE_ROWS` values at a
    time, which keeps memory flat however long they are:
    `_numfmt.fields` gives each value's text in a NUL-padded field, the
    constants and fields of every CSV row are laid side by side, and one
    boolean compaction drops the padding."""
    with open(path, "wb") as fh:
        for row in itertools.chain([header], rows):
            constants = _row_pieces(row)
            columns = [cell.values for cell in row if isinstance(cell, _Column)]
            for start in range(0, len(columns[0]) if columns else 1, _SLICE_ROWS):
                fh.write(_slice_bytes(constants, [c[start : start + _SLICE_ROWS] for c in columns]))


def _write_report(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_points(path: str, cs: CompletedSpace) -> None:
    base = ("base", "", *map(_Column, cs.base.coords.T))
    adjoined = (("adjoined", a.probe, *a.coords) for a in cs.adjoined)
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
    label = _Column(np.arange(len(rep.base), dtype=float), "base:")  # base point i lands on base point i
    base = (label, label, *map(_Column, rep.base.T))
    entries = ((e.source, e.target, *e.coords) for e in rep.entries)
    _write_csv(path, ["source", "target", *rep.sub_names], itertools.chain([base], entries))


def cmd_embed(args, spec) -> Iterator[None]:
    space = _resolve_family(spec.space, args.family)
    yield
    cloud = embed(space)
    path = _artifact(args, "points.csv")
    header = ["point_index", *space.carrier.params, *cloud.names]
    index = _Column(np.arange(len(cloud.coords), dtype=float))
    _write_csv(path, header, [(index, *map(_Column, cloud.params.T), *map(_Column, cloud.coords.T))])
    print(f"embed: {len(cloud.coords)} points, {len(cloud.names)} coordinates -> {path}")


def cmd_complete(args, spec) -> Iterator[None]:
    _check_probe_flags(args)
    space = _resolve_family(spec.space, args.family)
    probes = _select_probes(spec, args.probes, args.tail)
    sub = None
    if args.subfamily is not None:
        sub = space.with_generators(_declared_names(args.subfamily, "--subfamily", space.family.names))
    yield
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


def cmd_compactify(args, spec) -> Iterator[None]:
    _check_probe_flags(args)
    space = _resolve_family(spec.space, args.family)
    probes = _select_probes(spec, args.probes, args.tail)
    yield
    normalized, cs = compactify(space, probes, tol=args.tol, tail=args.tail)
    lines = [f"normalized {ng.name}: sup {_fmt(ng.sup)} at sample {ng.argmax_index}" for ng in normalized]
    _write_points(_artifact(args, "points.csv"), cs)
    _write_report(_artifact(args, "report.txt"), lines + _completion_lines(cs))
    print(f"compactify: {len(cs.adjoined)} adjoined, {len(cs.duplicates)} duplicate(s)")


def cmd_boundize(args, spec) -> Iterator[None]:
    # the splice multiplies one factor per generator into one product tree
    count = len(_split_names(args.gens, "--gens"))
    if count > MAX_DEPTH:
        raise UsageError(f"--gens: at most {MAX_DEPTH} generators, got {count}")
    gen_names = _declared_names(args.gens, "--gens", spec.space.family.names)
    try:
        omega = parse_expr(args.omega, allowed_vars=placeholders(len(gen_names)))
    except ExprError as err:
        raise UsageError(f"--omega: {err}") from err
    fn = SmoothFunction(omega, tuple(gen_names))
    point = _parse_point(args.point, "--point", len(spec.space.carrier.ambient))
    yield
    bset = boundize(spec.space, fn, point)
    path = _artifact(args, "boundize.csv")
    columns = zip(bset.gen_names, bset.mus, bset.max_abs_gamma)
    _write_csv(
        path,
        ["generator", "mu", "max_abs_gamma", "local_residual"],
        ((name, mu, mg, bset.local_residual) for name, mu, mg in columns),
    )
    print(
        f"boundize: {len(bset.gen_names)} generator(s) at {args.point},"
        f" residual {_fmt(bset.local_residual)} on {bset.local_sample_count} local sample(s)"
    )


def cmd_compare_uniform(args, spec) -> Iterator[None]:
    g_names = _declared_names(args.g_family, "--g-family", spec.space.family.names)
    h_names = _declared_names(args.h_family, "--h-family", spec.space.family.names)
    eps_grid = list(_parse_point(args.eps_grid, "--eps-grid"))
    if not all(eps > 0.0 for eps in eps_grid):
        raise UsageError(f"--eps-grid: widths must be positive, got {args.eps_grid!r}")
    if not 0.0 < args.target_eps < math.inf:
        raise UsageError(f"--target-eps must be positive and finite, got {args.target_eps!r}")
    yield
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
            (row.candidate_eps, "true" if row.refines else "false", rep.target, row.violated, row.d_g,
             *(row.witness_x or blank), *(row.witness_y or blank))
            for row in rep.rows
        ),
    )
    found = sum(1 for row in rep.rows if not row.refines)
    print(
        f"compare-uniform: {found} of {len(rep.rows)} widths produced a witness,"
        f" {rep.pairs_examined} pairs examined -> {path}"
    )


def cmd_tangent(args, spec) -> Iterator[None]:
    space = spec.space
    dim = len(space.carrier.ambient)
    point = _parse_point(args.point, "--point", dim)
    coeffs = _parse_point(args.vector, "--vector", dim)
    v = TangentVector(point, coeffs)
    names = space.family.names
    if args.functions is not None:
        names = _declared_names(args.functions, "--functions", names)
    funcs = [(n, SmoothFunction.of_generator(n)) for n in names]
    loaded = None if args.map is None else _map(spec, args.map)
    yield

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

    if loaded is not None:
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

    _write_csv(_artifact(args, "tangent.csv"), ["kind", "name", "value"], rows)
    for kind, name, value in rows:
        print(f"{kind} {name} = {_fmt(value)}")
    if failures:
        raise ValueError("; ".join(failures))


def cmd_check_map(args, spec) -> Iterator[None]:
    if not 0.0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be finite and not negative, got {args.tol!r}")
    loaded = _map(spec, args.map)
    yield
    rep = check_smooth_map(spec.space, loaded.witness, tol=args.tol)
    _write_csv(_artifact(args, "map.csv"), ["generator", "max_residual"], rep.residuals)
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


def cmd_verify_filters(args, spec) -> Iterator[None]:
    if not 1 <= args.max_size <= _MAX_GROUND:
        raise UsageError(f"--max-size must be between 1 and {_MAX_GROUND}, got {args.max_size}")
    yield
    rep = verify_filter_laws(args.max_size)
    _write_csv(
        _artifact(args, "models.csv"),
        ["ground_size", "model_index", "entourages", "filters", "checks", "failures"],
        (
            (m.ground_size, m.model_index, m.n_entourages, m.n_filters,
             sum(count for _, count in m.checks), len(m.failures))
            for m in rep.models
        ),
    )
    summary = rep.summary_text()
    _write_report(_artifact(args, "report.txt"), summary.splitlines())
    print(summary)
    if not rep.passed:
        raise ValueError(rep.first_counterexample)


def cmd_run(args, spec) -> Generator[None, None, int | None]:
    """Every listed experiment checked before the first runs: parsed
    once, by its command's parser, and then run through its handler's
    checks with run's own spec; it may not ask for help or set --out or
    --label, which run sets.  Then the work of each, in the listed
    order, through `_dispatch`, stopping at the first that exits
    non-zero; that exit status is the run's."""
    by_label = {e.label: e for e in spec.experiments}
    labels = args.labels or [e.label for e in spec.experiments]
    unknown = [l for l in labels if l not in by_label]
    if unknown:
        raise UsageError(f"spec declares no experiment(s) {unknown}")
    if not labels:
        raise UsageError("spec declares no experiments")
    commands, checked = _parser().commands, []
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
        given.command, given.out, given.label = argv[0], args.out, label
        work = given.handler(given, spec)
        try:
            next(work)  # the checks
        except UsageError as err:
            raise UsageError(f"experiment {label}: {err}") from None
        checked.append((given, work))  # one entry per listed label: one listed twice runs twice
    yield
    for given, work in checked:
        print(f"run {given.label}: {' '.join(by_label[given.label].argv)}")
        rc = _dispatch(given, work)
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


@functools.cache
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
    _keep_freed_memory()
    with memo_scope():  # one memo per command line
        return _dispatch(args)


def _dispatch(args: argparse.Namespace, work: Iterator[None] | None = None) -> int:
    """Run one parsed command through its handler, and turn the outcome
    into its exit status and its one stderr line.  Given the handler's
    `work`, already checked (an experiment of ``run``), only the work
    is left to run.  Otherwise the spec the command names is loaded (a
    command that names none gets None), the artifact label is settled,
    and the handler makes its checks, all before any work."""
    try:
        if work is None:
            spec = specfile.load_spec(args.spec) if "spec" in args else None
            if args.label is None:
                args.label = args.command.replace("-", "_")
            if not args.label:
                raise UsageError("--label '': a label cannot be empty")
            if os.sep in args.label or (os.altsep and os.altsep in args.label):
                raise UsageError(f"--label {args.label!r}: a label names files in --out, not a path")
            work = args.handler(args, spec)
            next(work)  # the checks
        next(work)  # the work
    except StopIteration as done:  # only run returns a status
        return done.value or 0
    # OSError: --out cannot be written; MemoryError: a sample grid too large to allocate
    except (SpecError, UsageError, OSError, MemoryError) as err:
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
