"""Loader for the INI-style experiment files understood by the CLI.

A spec file declares one parametrized carrier with its generator family,
plus optional probes, bound declarations, smooth-map witnesses, and named
experiment command lines.  Sections look like::

    [space]
    name = real_line
    params = t
    domain = [-1100, 1100]
    chart = x : t
    samples = 2201

    [generators]
    g = atan(x)

    [probes]
    pplus = n @ 1 .. 1050

Values on the right of ``=`` are expressions in the scope the key
declares (interval endpoints and numeric fields take constant
expressions, so ``pi/2`` is a legal endpoint).  ``#`` starts a comment.
Every reported problem carries the file and line it came from.

The keyed sections, ``[space]``, ``[generators]``, ``[bounded]``,
``[probes]`` and ``[experiments]``, are read through one entry reader,
`_entries`, which yields a section's entries in file order and refuses
a malformed key with the section's own message and a repeated one as
``duplicate <noun> <key>``.  It is lazy, and each section checks an
entry's value before it reads the next entry, so problems are reported
in file order: a bad value on one line wins over a bad key on the next.
``[space]`` is the exception: it reads all its keys, then its values in
a fixed order.  An expression error becomes a SpecError in one place,
`_located`, which adds the column of the offending token.
"""

from __future__ import annotations

import os
import re
import shlex
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .expr import Expr, ExprError, ParseError, eval_constant, parse_expr
from .space import (
    Carrier,
    DiffSpace,
    Generator,
    GeneratorFamily,
    Interval,
    SmoothFunction,
    SmoothMapWitness,
    placeholders,
)
from .uniform import Probe

__all__ = ["SpecError", "Experiment", "LoadedMap", "SpecFile", "load_spec"]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")
_SCHEDULE_RE = re.compile(r"\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*\Z")

_SPACE_KEYS = ("name", "params", "domain", "chart", "samples", "inset")


class SpecError(Exception):
    """A problem in a spec file, located by path and line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message


@dataclass(frozen=True)
class Experiment:
    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class LoadedMap:
    """A named smooth-map declaration, resolved against its target spec."""

    target: "SpecFile"
    witness: SmoothMapWitness


@dataclass(frozen=True)
class SpecFile:
    path: str
    name: str
    space: DiffSpace
    probes: tuple[Probe, ...]
    maps: Mapping[str, LoadedMap]
    experiments: tuple[Experiment, ...]


@dataclass
class _Section:
    header: tuple[str, ...]
    line: int
    entries: list[tuple[int, str, str, int]]  # line, key, value, value column


def _split_sections(path: str, text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise SpecError(path, lineno, "unterminated section header")
            header = tuple(stripped[1:-1].split())
            if not header:
                raise SpecError(path, lineno, "empty section header")
            current = _Section(header, lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise SpecError(path, lineno, f"entry before any section: {stripped!r}")
        key, eq, value = line.partition("=")
        if not eq:
            raise SpecError(path, lineno, f"expected 'name = value', got {stripped!r}")
        column = len(key) + 1 + (len(value) - len(value.lstrip())) + 1
        current.entries.append((lineno, key.strip(), value.strip(), column))
    return sections


def _entries(
    path: str, section: _Section, noun: str, valid: Callable[[str], object], malformed: str
) -> Iterator[tuple[int, str, str, int]]:
    """A section's entries, in file order, each with a new key that `valid`
    accepts.  A key it refuses is reported as `malformed`, formatted with
    the key, and a repeated one as ``duplicate <noun> <key>``.  Lazy, so
    that a problem in the value of one entry is reported before a problem
    in the key of the next."""
    seen: set[str] = set()
    for lineno, key, value, column in section.entries:
        if not valid(key):
            raise SpecError(path, lineno, malformed.format(key))
        if key in seen:
            raise SpecError(path, lineno, f"duplicate {noun} {key!r}")
        seen.add(key)
        yield lineno, key, value, column


def _located(path: str, lineno: int, column: int, what: str, read: Callable, *args):
    """`read(*args)`, an `ExprError` from it reported as a SpecError at
    `lineno`; a ParseError also names the column of its token, `column`
    being where the text read starts."""
    try:
        return read(*args)
    except ParseError as err:
        raise SpecError(path, lineno, f"{what}: {err}, column {column + err.offset}") from err
    except ExprError as err:
        raise SpecError(path, lineno, f"{what}: {err}") from err


def _split_csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _scan_interval(path: str, lineno: int, column: int, text: str, start: int) -> tuple[Interval, int]:
    opener = text[start]
    lo_open = opener == "("
    j = start + 1
    depth = 0
    parts: list[tuple[int, str]] = []  # each endpoint's start in `text`, and its text
    piece = j
    hi_open: bool | None = None
    while j < len(text):
        ch = text[j]
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                hi_open = True
                break
            depth -= 1
        elif ch == "]":  # no endpoint holds "]" or ",", so each ends one at any depth
            hi_open = False
            break
        elif ch == ",":
            parts.append((piece, text[piece:j]))
            piece = j + 1
        j += 1
    if hi_open is None:
        raise SpecError(path, lineno, "unterminated interval in domain")
    parts.append((piece, text[piece:j]))
    if len(parts) != 2:
        raise SpecError(path, lineno, f"an interval needs two endpoints, got {len(parts)}")
    # the column of each endpoint, not of the whole domain
    lo, hi = (
        _located(path, lineno, column + at + len(p) - len(p.lstrip()), "domain endpoint", eval_constant, p.strip())
        for at, p in parts
    )
    try:
        interval = Interval(lo, hi, lo_open=lo_open, hi_open=hi_open)
    except ValueError as err:
        raise SpecError(path, lineno, f"domain: {err}") from err
    return interval, j + 1


def _parse_domain(path: str, lineno: int, column: int, text: str) -> tuple[Interval, ...]:
    intervals: list[Interval] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if intervals and text[i] == "x":
            i += 1
            continue
        if text[i] not in "([":
            raise SpecError(path, lineno, f"domain: expected an interval at {text[i:]!r}")
        interval, i = _scan_interval(path, lineno, column, text, i)
        intervals.append(interval)
    if not intervals:
        raise SpecError(path, lineno, "domain: no intervals given")
    return tuple(intervals)


def _parse_space(path: str, section: _Section, default_name: str) -> tuple[str, Carrier]:
    entries = _entries(path, section, "[space] key", _SPACE_KEYS.__contains__, "unknown [space] key {!r}")
    values = {key: (lineno, value, column) for lineno, key, value, column in entries}
    for key in ("params", "domain", "chart", "samples"):
        if key not in values:
            raise SpecError(path, section.line, f"[space] is missing {key!r}")

    name = default_name
    if "name" in values:
        lineno, value, _ = values["name"]
        if not _NAME_RE.match(value):
            raise SpecError(path, lineno, f"space name {value!r} is not an identifier")
        name = value

    lineno, value, _ = values["params"]
    params = tuple(re.split(r"[,\s]+", value.strip()))
    for p in params:
        if not _NAME_RE.match(p):
            raise SpecError(path, lineno, f"parameter name {p!r} is not an identifier")

    lineno, value, column = values["domain"]
    box = _parse_domain(path, lineno, column, value)
    if len(box) != len(params):
        raise SpecError(
            path, lineno, f"domain has {len(box)} interval(s) for {len(params)} parameter(s)"
        )

    lineno, value, column = values["chart"]
    ambient: list[str] = []
    chart: list[Expr] = []
    for match in re.finditer(r"[^,]*[^,\s][^,]*", value):  # the non-blank pieces
        amb_text, colon, expr_text = match.group().partition(":")
        if not colon:
            raise SpecError(path, lineno, f"chart component {match.group().strip()!r} needs 'name : expression'")
        amb = amb_text.strip()
        if not _NAME_RE.match(amb):
            raise SpecError(path, lineno, f"ambient name {amb!r} is not an identifier")
        ambient.append(amb)
        # the column of this component's expression, not of the whole chart
        expr_column = column + match.start() + len(amb_text) + 1 + len(expr_text) - len(expr_text.lstrip())
        chart.append(
            _located(path, lineno, expr_column, f"chart component {amb}", parse_expr, expr_text.strip(), params)
        )
    if not ambient:
        raise SpecError(path, lineno, "chart declares no ambient coordinates")

    lineno, value, _ = values["samples"]
    try:
        counts = tuple(int(part) for part in _split_csv(value))
    except ValueError:
        raise SpecError(path, lineno, f"samples must be integers, got {value!r}") from None
    if len(counts) == 1 and len(params) > 1:
        counts = counts * len(params)
    if len(counts) != len(params):
        raise SpecError(
            path, lineno, f"samples has {len(counts)} count(s) for {len(params)} parameter(s)"
        )

    inset = 1e-3
    if "inset" in values:
        lineno, value, column = values["inset"]
        inset = _located(path, lineno, column, "inset", eval_constant, value)

    try:
        carrier = Carrier(params, box, tuple(ambient), tuple(chart), counts, inset)
    except ValueError as err:
        raise SpecError(path, section.line, f"[space]: {err}") from err
    return name, carrier


def _parse_generators(path: str, section: _Section, ambient: Sequence[str]) -> list[Generator]:
    entries = _entries(path, section, "generator name", _NAME_RE.match, "generator name {!r} is not an identifier")
    gens = [
        Generator(key, _located(path, lineno, column, f"generator {key}", parse_expr, value, ambient))
        for lineno, key, value, column in entries
    ]
    if not gens:
        raise SpecError(path, section.line, "[generators] declares nothing")
    return gens


def _parse_probes(path: str, section: _Section) -> list[Probe]:
    probes: list[Probe] = []
    for lineno, key, value, column in _entries(
        path, section, "probe name", _NAME_RE.match, "probe name {!r} is not an identifier"
    ):
        expr_text, at, schedule = value.partition("@")
        start, stop = 1, 1000
        if at:
            match = _SCHEDULE_RE.match(schedule)
            if not match:
                raise SpecError(
                    path, lineno, f"probe schedule must look like '@ 1 .. 1000', got {schedule!r}"
                )
            start, stop = int(match.group(1)), int(match.group(2))
        expr = _located(path, lineno, column, f"probe {key}", parse_expr, expr_text.strip(), ("n",))
        try:
            probes.append(Probe(key, expr, start, stop))
        except ValueError as err:
            raise SpecError(path, lineno, f"probe {key}: {err}") from err
    return probes


def _parse_map(
    path: str,
    section: _Section,
    source_space: DiffSpace,
    stack: tuple[str, ...],
) -> LoadedMap:
    if len(section.header) != 2 or not _NAME_RE.match(section.header[1]):
        raise SpecError(path, section.line, "map sections are headed '[map NAME]'")
    map_name = section.header[1]
    source_ambient = source_space.carrier.ambient

    target_entry: tuple[int, str] | None = None
    components: dict[str, tuple[int, Expr]] = {}
    witnesses: dict[str, tuple[int, SmoothFunction]] = {}
    for lineno, key, value, column in section.entries:
        words = key.split()
        if words == ["target"]:
            if target_entry is not None:
                raise SpecError(path, lineno, "duplicate target line")
            target_entry = (lineno, value)
        elif len(words) == 2 and words[0] == "component":
            amb = words[1]
            if amb in components:
                raise SpecError(path, lineno, f"duplicate component {amb!r}")
            components[amb] = (
                lineno,
                _located(path, lineno, column, f"component {amb}", parse_expr, value, source_ambient),
            )
        elif len(words) == 2 and words[0] == "witness":
            gen_name = words[1]
            if gen_name in witnesses:
                raise SpecError(path, lineno, f"duplicate witness for {gen_name!r}")
            omega_text, colon, gens_text = value.partition(":")
            if not colon:
                raise SpecError(
                    path, lineno, f"witness needs 'omega : generators', got {value!r}"
                )
            gen_names = _split_csv(gens_text)
            for g in gen_names:
                if g not in source_space.family.names:
                    raise SpecError(path, lineno, f"witness for {gen_name!r} references unknown generator {g!r}")
            omega_vars = placeholders(len(gen_names))
            omega = _located(
                path, lineno, column, f"witness for {gen_name}", parse_expr, omega_text.strip(), omega_vars
            )
            witnesses[gen_name] = (lineno, SmoothFunction(omega, omega_vars, tuple(gen_names)))
        else:
            raise SpecError(path, lineno, f"unknown map line {key!r}")

    if target_entry is None:
        raise SpecError(path, section.line, f"map {map_name!r} has no target line")
    target_lineno, target_value = target_entry
    target_file = os.path.join(os.path.dirname(os.path.abspath(path)), target_value)
    if not os.path.exists(target_file):
        raise SpecError(path, target_lineno, f"target spec {target_value!r} does not exist")
    target_spec = load_spec(target_file, _stack=stack)

    target_ambient = target_spec.space.carrier.ambient
    missing = [amb for amb in target_ambient if amb not in components]
    extra = [amb for amb in components if amb not in target_ambient]
    if missing or extra:
        raise SpecError(
            path,
            section.line,
            f"map {map_name!r} components do not match the target ambient coordinates"
            f" (missing {missing}, extra {extra})",
        )
    for gen_name, (lineno, _) in witnesses.items():
        if gen_name not in target_spec.space.family.names:
            raise SpecError(path, lineno, f"witness names unknown target generator {gen_name!r}")
    lacking = set(target_spec.space.family.names) - set(witnesses)
    if lacking:
        raise SpecError(
            path,
            section.line,
            f"map {map_name!r} lacks witnesses for target generators {sorted(lacking)}",
        )
    witness = SmoothMapWitness(
        target_spec.space,
        tuple(components[amb][1] for amb in target_ambient),
        {name: fn for name, (_, fn) in witnesses.items()},
    )
    return LoadedMap(target_spec, witness)


def _parse_experiments(path: str, section: _Section) -> list[Experiment]:
    experiments: list[Experiment] = []
    for lineno, key, value, _ in _entries(
        path, section, "experiment label", _LABEL_RE.match, "experiment label {!r} is not usable as a file stem"
    ):
        try:
            argv = tuple(shlex.split(value))
        except ValueError as err:
            raise SpecError(path, lineno, f"experiment {key}: {err}") from err
        if not argv:
            raise SpecError(path, lineno, f"experiment {key} has no command")
        experiments.append(Experiment(key, argv))
    return experiments


def load_spec(path: str, _stack: tuple[str, ...] = ()) -> SpecFile:
    """Read and fully validate a spec file.

    Maps load their target specs recursively; a cycle is an error rather
    than a hang.
    """
    resolved = os.path.realpath(path)
    if resolved in _stack:
        raise SpecError(path, 1, "circular map target reference")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise SpecError(path, 1, f"cannot read spec: {err}") from err

    sections = _split_sections(path, text)
    by_name: dict[str, _Section] = {}
    map_sections: list[_Section] = []
    for section in sections:
        if section.header[0] == "map":
            map_sections.append(section)
            continue
        if len(section.header) != 1:
            raise SpecError(path, section.line, f"unknown section {' '.join(section.header)!r}")
        key = section.header[0]
        if key not in ("space", "generators", "bounded", "probes", "experiments"):
            raise SpecError(path, section.line, f"unknown section {key!r}")
        if key in by_name:
            raise SpecError(path, section.line, f"duplicate section [{key}]")
        by_name[key] = section

    if "space" not in by_name:
        raise SpecError(path, 1, "spec has no [space] section")
    if "generators" not in by_name:
        raise SpecError(path, 1, "spec has no [generators] section")

    default_name = os.path.splitext(os.path.basename(path))[0]
    name, carrier = _parse_space(path, by_name["space"], default_name)
    generators = _parse_generators(path, by_name["generators"], carrier.ambient)

    if "bounded" in by_name:
        # checked, but not stored: compactify measures each sup itself
        declared = {g.name for g in generators}
        for lineno, key, value, column in _entries(
            path, by_name["bounded"], "bound for", declared.__contains__, "bound for unknown generator {!r}"
        ):
            _located(path, lineno, column, f"bound for {key}", eval_constant, value)

    try:
        space = DiffSpace(carrier, GeneratorFamily(tuple(generators)))
    except ValueError as err:
        raise SpecError(path, by_name["generators"].line, str(err)) from err

    probes = _parse_probes(path, by_name["probes"]) if "probes" in by_name else []
    if probes and len(carrier.params) != 1:
        raise SpecError(path, by_name["probes"].line, "probes require a single-parameter carrier")

    stack = _stack + (resolved,)
    maps: dict[str, LoadedMap] = {}
    for section in map_sections:
        loaded = _parse_map(path, section, space, stack)
        map_name = section.header[1]
        if map_name in maps:
            raise SpecError(path, section.line, f"duplicate map {map_name!r}")
        maps[map_name] = loaded

    experiments = (
        _parse_experiments(path, by_name["experiments"]) if "experiments" in by_name else []
    )

    return SpecFile(path, name, space, tuple(probes), maps, tuple(experiments))
