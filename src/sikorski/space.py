"""Sampled differential spaces and their generator embeddings.

A space is a rectangular parameter box, a chart into ambient coordinates,
and a finite ordered family of generator functions over those ambient
coordinates.  Embedding a space evaluates every generator at every grid
sample, giving the point cloud that the uniformity, completion, and
compactification machinery works on.  Sweeps over the samples are array
evaluations: one matrix row per sample, row-major in parameter order.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import DomainError, Expr, Var, eval_array, substitute, to_string, variables

__all__ = [
    "Interval",
    "Carrier",
    "Generator",
    "GeneratorFamily",
    "DiffSpace",
    "EmbeddedCloud",
    "SmoothFunction",
    "placeholders",
    "SmoothMapWitness",
    "SmoothMapReport",
    "eval_columns",
    "eval_point",
    "chart_columns",
    "generator_columns",
    "sample",
    "embed",
    "forget_sweeps",
    "eval_smooth",
    "compose_ambient",
    "check_smooth_map",
]


@dataclass(frozen=True)
class Interval:
    """One axis of a parameter box; each end is open or closed."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi or (self.lo == self.hi and (self.lo_open or self.hi_open)):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v):
        """Membership of a value, or elementwise of an array of values."""
        above = v > self.lo if self.lo_open else v >= self.lo
        below = v < self.hi if self.hi_open else v <= self.hi
        return above & below

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo!r}, {self.hi!r}{right}"


@dataclass(frozen=True)
class Carrier:
    """Parameter box, sampling plan, and chart into ambient coordinates."""

    params: tuple[str, ...]
    box: tuple[Interval, ...]
    ambient: tuple[str, ...]
    chart: tuple[Expr, ...]
    counts: tuple[int, ...]
    inset: float = 1e-3

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names")
        if len(set(self.ambient)) != len(self.ambient):
            raise ValueError("duplicate ambient names")
        if len(self.box) != len(self.params) or len(self.counts) != len(self.params):
            raise ValueError("box and counts must match the parameter list")
        if len(self.chart) != len(self.ambient):
            raise ValueError("chart must provide one expression per ambient coordinate")
        if any(c < 1 for c in self.counts):
            raise ValueError("sample counts must be positive")
        if self.inset < 0:
            raise ValueError("inset must be non-negative")
        for iv, (lo, hi) in zip(self.box, self._axis_ends()):
            if lo > hi:
                raise ValueError(f"inset {self.inset} empties axis {iv}")
        scope = set(self.params)
        for name, comp in zip(self.ambient, self.chart):
            extra = variables(comp) - scope
            if extra:
                raise ValueError(f"chart component {name} uses unknown names {sorted(extra)}")

    def _axis_ends(self) -> list[tuple[float, float]]:
        """Per-axis first and last grid sample; open ends are pulled in by
        the inset."""
        return [
            (iv.lo + self.inset if iv.lo_open else iv.lo, iv.hi - self.inset if iv.hi_open else iv.hi)
            for iv in self.box
        ]

    def axis_samples(self) -> tuple[tuple[float, ...], ...]:
        """Per-axis sample values: the uniform grid between the axis ends."""
        ends = zip(self._axis_ends(), self.counts)
        return tuple(tuple(np.linspace(lo, hi, count).tolist()) for (lo, hi), count in ends)

    def chart_point(self, values: Sequence[float]) -> tuple[float, ...]:
        return eval_point(self.chart, self.params, values, [f"chart component {name}" for name in self.ambient])


@dataclass(frozen=True)
class Generator:
    """A named generator function over ambient coordinates.  Its sup is
    measured on the samples (`compactify.normalize`), never declared."""

    name: str
    expr: Expr


@dataclass(frozen=True)
class GeneratorFamily:
    generators: tuple[Generator, ...]

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        if not self.generators:
            raise ValueError("a generator family must not be empty")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def get(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(f"no generator named {name!r}")


@dataclass(frozen=True)
class DiffSpace:
    carrier: Carrier
    family: GeneratorFamily

    def __post_init__(self):
        scope = set(self.carrier.ambient)
        for g in self.family.generators:
            extra = variables(g.expr) - scope
            if extra:
                raise ValueError(f"generator {g.name} uses unknown names {sorted(extra)}")

    def with_generators(self, names: Iterable[str]) -> "DiffSpace":
        return dataclasses.replace(self, family=GeneratorFamily(tuple(self.family.get(n) for n in names)))


@dataclass(frozen=True, eq=False)
class EmbeddedCloud:
    """The generator embedding of the sampled carrier, by columns.

    Each matrix has one row per sample, in sample order: the parameter
    values, the ambient point, and one coordinate per generator, in
    family order.  The matrices are read-only.
    """

    names: tuple[str, ...]
    params: np.ndarray
    ambient: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        for matrix in (self.params, self.ambient, self.coords):
            matrix.flags.writeable = False


def eval_columns(
    exprs: Sequence[Expr], names: Sequence[str], rows: np.ndarray, labels: Sequence[str]
) -> np.ndarray:
    """Evaluate every expression on every row of `rows`, whose columns bind
    `names`: one result column per expression, one row per sample.

    On a domain error every column is still evaluated, and the error
    raised is the one a per-sample loop meets first: the smallest
    (sample index, column).  Its message is prefixed with the column's
    label and the row, as ``"{label} at {row}: ..."``, and its `index`
    is the row's index.
    """
    env = dict(zip(names, rows.T))
    out = np.empty((rows.shape[0], len(exprs)))
    errors = []
    for k, expr in enumerate(exprs):
        try:
            out[:, k] = eval_array(expr, env)
        except DomainError as err:
            errors.append((err.index, k, err))
    if errors:
        index, k, err = min(errors, key=lambda e: e[:2])
        row = tuple(rows[index].tolist())
        raise DomainError(f"{labels[k]} at {row}: {err}", err.node, index) from err
    return out


def eval_point(
    exprs: Sequence[Expr], names: Sequence[str], point: Sequence[float], labels: Sequence[str]
) -> tuple[float, ...]:
    """`eval_columns` on the one-row matrix of `point`: every expression's
    value where the coordinates of `point` bind `names`.  A domain error
    is prefixed as ``"{label} at {point}: ..."``, with `index` 0."""
    return tuple(eval_columns(exprs, names, np.array([point], dtype=float), labels)[0].tolist())


def chart_columns(carrier: Carrier, params: np.ndarray) -> np.ndarray:
    """The ambient matrix of a parameter matrix: one row per sample."""
    labels = [f"chart component {name}" for name in carrier.ambient]
    return eval_columns(carrier.chart, carrier.params, params, labels)


def generator_columns(space: DiffSpace, ambient: np.ndarray) -> np.ndarray:
    """The generator coordinates of an ambient matrix: one row per sample,
    one column per generator in family order."""
    exprs = [g.expr for g in space.family.generators]
    labels = [f"generator {name}" for name in space.family.names]
    return eval_columns(exprs, space.carrier.ambient, ambient, labels)


def sample(carrier: Carrier) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples as a parameter matrix and an ambient matrix, one row
    per sample, row-major in parameter order (last axis fastest).

    The matrices are read-only and memoized: a carrier equal to one
    swept before gets the same matrices back, until `forget_sweeps`."""
    return _sweep(carrier, repr(carrier))


def embed(space: DiffSpace) -> EmbeddedCloud:
    """The generator embedding of the sampled carrier, memoized like
    `sample`: a space equal to one embedded before gets the same cloud."""
    return _embedding(space, repr(space))


# The memos key on the frozen value and on its repr: -0.0 == 0.0, but a
# zero's sign shows in the samples and the artifacts, and only the repr
# tells the two apart.  A DomainError is raised, never stored.  `cli.main`
# empties both after every command line, so a memo lives for one
# invocation; the bounds cap what a library caller keeps.
@functools.lru_cache(maxsize=2)
def _sweep(carrier: Carrier, exact: str) -> tuple[np.ndarray, np.ndarray]:
    axes = carrier.axis_samples()
    mesh = np.meshgrid(*axes, indexing="ij")
    params = np.stack([m.ravel() for m in mesh], axis=1)
    ambient = chart_columns(carrier, params)
    params.flags.writeable = ambient.flags.writeable = False
    return params, ambient


@functools.lru_cache(maxsize=4)
def _embedding(space: DiffSpace, exact: str) -> EmbeddedCloud:
    params, ambient = sample(space.carrier)
    return EmbeddedCloud(space.family.names, params, ambient, generator_columns(space, ambient))


def forget_sweeps() -> None:
    """Empty the memos of `sample` and `embed`."""
    _sweep.cache_clear()
    _embedding.cache_clear()


def placeholders(k: int) -> tuple[str, ...]:
    """The names ``u1 .. uk`` a witness expression gives its `k` generators."""
    return tuple(f"u{i + 1}" for i in range(k))


@dataclass(frozen=True)
class SmoothFunction:
    """A structure member presented by witness: omega composed with named
    generators.  `omega` is an expression in `omega_vars`, which pair up
    positionally with `gen_names`."""

    omega: Expr
    omega_vars: tuple[str, ...]
    gen_names: tuple[str, ...]

    def __post_init__(self):
        if len(self.omega_vars) != len(self.gen_names):
            raise ValueError("omega variables and generator names must pair up")
        extra = variables(self.omega) - set(self.omega_vars)
        if extra:
            raise ValueError(f"omega uses undeclared variables {sorted(extra)}")

    @classmethod
    def of_generator(cls, name: str) -> "SmoothFunction":
        (u,) = placeholders(1)
        return cls(Var(u), (u,), (name,))


def compose_ambient(space: DiffSpace, f: SmoothFunction) -> Expr:
    """omega with each placeholder replaced by its generator's expression,
    yielding a single tree over ambient coordinates."""
    mapping = {}
    for var, gen_name in zip(f.omega_vars, f.gen_names):
        mapping[var] = space.family.get(gen_name).expr
    return substitute(f.omega, mapping)


def eval_smooth(space: DiffSpace, f: SmoothFunction, ambient_point: Sequence[float]) -> float:
    composed = compose_ambient(space, f)
    return eval_point([composed], space.carrier.ambient, ambient_point, [f"function {to_string(composed)}"])[0]


@dataclass(frozen=True)
class SmoothMapWitness:
    """A candidate smooth map into `target`, with ambient component
    expressions (over the source ambient names) and, for every target
    generator, a witness presentation of its pullback."""

    target: DiffSpace
    components: tuple[Expr, ...]
    witnesses: Mapping[str, SmoothFunction]

    def __post_init__(self):
        if len(self.components) != len(self.target.carrier.ambient):
            raise ValueError("one component per target ambient coordinate is required")
        missing = set(self.target.family.names) - set(self.witnesses)
        if missing:
            raise ValueError(f"missing pullback witnesses for {sorted(missing)}")

    def image_point(self, source: DiffSpace, ambient_point: Sequence[float]) -> tuple[float, ...]:
        labels = [f"map component {name}" for name in self.target.carrier.ambient]
        return eval_point(self.components, source.carrier.ambient, ambient_point, labels)


@dataclass(frozen=True)
class SmoothMapReport:
    tol: float
    residuals: tuple[tuple[str, float], ...]
    worst_point: tuple[float, ...] | None
    smooth: bool

    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)


def check_smooth_map(source: DiffSpace, witness: SmoothMapWitness, tol: float = 1e-6) -> SmoothMapReport:
    """Compare each pullback witness against the composite generator-after-map
    on every sampled source point.  The worst point is the first sample
    attaining the largest residual."""
    _, ambient = sample(source.carrier)
    target = witness.target
    image = dict(zip(target.carrier.ambient, witness.components))
    # per generator: the witness over the source generators, then the
    # target generator composed with the map components
    exprs = list(witness.components)
    labels = [f"map component {name}" for name in target.carrier.ambient]
    for gen in target.family.generators:
        exprs.append(compose_ambient(source, witness.witnesses[gen.name]))
        exprs.append(substitute(gen.expr, image))
        labels += [f"pullback witness of {gen.name}", f"generator {gen.name} after the map"]
    values = eval_columns(exprs, source.carrier.ambient, ambient, labels)[:, len(witness.components):]
    residual = np.abs(values[:, 0::2] - values[:, 1::2])
    i, _ = np.unravel_index(np.argmax(residual), residual.shape)
    rows = tuple(zip(target.family.names, residual.max(axis=0).tolist()))
    return SmoothMapReport(tol, rows, tuple(ambient[i].tolist()), all(r <= tol for _, r in rows))
