"""Bounded generators and compact completions.

The pieces of the bounded-generator construction: a smooth cube splice
that is exactly one on the inner cube and exactly zero outside the outer
one, the localization of a witnessed function to bounded generators with
unit sup bound, sup-normalization of a family's generators, and the
compactification, which is completion over the normalized family, whose
coordinates all live in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import BinOp, Call, Const, DomainError, Expr, Var, substitute, to_string
from .space import DiffSpace, Generator, GeneratorFamily, SmoothFunction, eval_columns, eval_point, placeholders, sample
from .uniform import Probe
from .completion import CompletedSpace, complete

__all__ = [
    "BoundedGeneratorSet",
    "NormalizedGenerator",
    "bump",
    "boundize",
    "normalize",
    "compactify",
]

INNER_HALF_WIDTH = 1.0
OUTER_HALF_WIDTH = 2.0


def bump(center: Sequence[float], var_names: Sequence[str]) -> Expr:
    """Product splice around `center`: exactly 1 on the cube of half-width
    `INNER_HALF_WIDTH` (1), exactly 0 outside the cube of half-width
    `OUTER_HALF_WIDTH` (2), the widths the splice primitive encodes."""
    if len(center) != len(var_names):
        raise ValueError("one variable per cube axis is required")
    expr: Expr | None = None
    for name, c in zip(var_names, center):
        arg: Expr = Var(name) if c == 0.0 else BinOp("-", Var(name), Const(c))
        factor = Call("bump1", arg)
        expr = factor if expr is None else BinOp("*", expr, factor)
    assert expr is not None
    return expr


@dataclass(frozen=True)
class BoundedGeneratorSet:
    """Output of the localization: bounded replacements for the generators
    of a witnessed function near one point.

    gamma_i = (alpha_i * eta(alpha)) / mu_i has sup at most 1, and
    omega1(gamma_1..gamma_n) agrees with the original function wherever
    the generators stay inside the inner cube.
    """

    gen_names: tuple[str, ...]
    center: tuple[float, ...]  # generator values at the point
    mus: tuple[float, ...]
    eta: Expr  # in the ambient coordinates
    gammas: tuple[Expr, ...]  # in the ambient coordinates
    omega1: Expr
    omega1_vars: tuple[str, ...]
    max_abs_gamma: tuple[float, ...]
    local_residual: float
    local_sample_count: int


def boundize(space: DiffSpace, f: SmoothFunction, point: Sequence[float]) -> BoundedGeneratorSet:
    """Replace the generators under a witnessed function with bounded ones
    that reproduce it near `point`.

    The scale mu_i = max(|alpha_i(point) + 2|, |alpha_i(point) - 2|) bounds
    alpha_i wherever the splice is nonzero, so each gamma_i lands in
    [-1, 1]; rescaling the witness by mu recovers f on the inner cube.
    Both facts are re-checked on the sampled carrier before returning.
    """
    if len(point) != len(space.carrier.ambient):
        raise ValueError("point lives in a different ambient space")
    alpha_exprs = [space.family.get(n).expr for n in f.gen_names]
    labels = [f"generator {name}" for name in f.gen_names]
    center = eval_point(alpha_exprs, space.carrier.ambient, point, labels)
    n = len(alpha_exprs)
    fresh = placeholders(n)
    eta_fresh = bump(center, fresh)
    eta = substitute(eta_fresh, dict(zip(fresh, alpha_exprs)))
    mus = tuple(max(abs(c + OUTER_HALF_WIDTH), abs(c - OUTER_HALF_WIDTH)) for c in center)
    gammas = tuple(
        BinOp("/", BinOp("*", a, eta), Const(mu)) for a, mu in zip(alpha_exprs, mus)
    )
    omega1 = substitute(
        f.omega,
        {
            old: BinOp("*", Const(mu), Var(new))
            for old, new, mu in zip(f.omega_vars, fresh, mus)
        },
    )

    _, ambient = sample(space.carrier)
    labels = [f"bounded generator {name}" for name in f.gen_names]
    labels += [f"generator {name}" for name in f.gen_names]
    values = eval_columns(gammas + tuple(alpha_exprs), space.carrier.ambient, ambient, labels)
    gvals, alpha_vals = values[:, :n], values[:, n:]
    max_abs = np.abs(gvals).max(axis=0).tolist()
    local = (np.abs(alpha_vals - center) < INNER_HALF_WIDTH).all(axis=1)
    # the witness and its rescaled form, each composed down to the ambient
    # coordinates, on the samples inside the inner cube
    checks = [
        substitute(f.omega, dict(zip(f.omega_vars, alpha_exprs))),
        substitute(omega1, dict(zip(fresh, gammas))),
    ]
    labels = [f"witness {to_string(f.omega)}", f"rescaled witness {to_string(omega1)}"]
    try:
        original, rebuilt = eval_columns(checks, space.carrier.ambient, ambient[local], labels).T
    except DomainError as err:
        err.index = int(np.flatnonzero(local)[err.index])
        raise
    residual = float(np.max(np.abs(original - rebuilt), initial=0.0))
    for i, m in enumerate(max_abs):
        if m > 1.0:
            raise ValueError(f"bounded generator {f.gen_names[i]} exceeds 1: {m!r}")
    if residual > 1e-9:
        raise ValueError(f"localization residual {residual!r} exceeds 1e-9")
    return BoundedGeneratorSet(
        tuple(f.gen_names),
        center,
        mus,
        eta,
        gammas,
        omega1,
        fresh,
        tuple(max_abs),
        residual,
        int(local.sum()),
    )


@dataclass(frozen=True)
class NormalizedGenerator:
    name: str
    expr: Expr  # original expression divided by the sampled sup
    sup: float
    argmax_index: int  # the first sample attaining the sup


def _monotone_divergent(line: np.ndarray, toward_end: bool) -> bool:
    """Divergence heuristic: |g| strictly grows into the boundary and the
    growth itself never slows.  A bounded generator flattens toward its
    sup, so its increments shrink; a genuinely unbounded one does not."""
    window = min(8, len(line))
    if window < 3:
        return False
    tail = line[-window:] if toward_end else line[:window][::-1]
    increments = np.diff(tail)
    if np.any(increments <= 0.0):
        return False
    return bool(np.all(increments[1:] >= increments[:-1] * (1.0 - 1e-9)))


def normalize(space: DiffSpace) -> tuple[NormalizedGenerator, ...]:
    """Scale every generator by its sampled sup so its range fits in
    [-1, 1]: one result per generator, in family order.

    The carrier is sampled once, and the generators are checked in family
    order, so the first failing one is the one reported.  A generator is
    rejected when its sampled sup is zero (nothing to scale) or when |g|
    diverges monotonically into an open boundary of the grid, which is
    the sampled shadow of an unbounded generator.
    """
    _, ambient = sample(space.carrier)
    out = []
    for gen in space.family.generators:
        name = gen.name
        values = np.abs(eval_columns([gen.expr], space.carrier.ambient, ambient, [f"generator {name}"])[:, 0])
        index = int(np.argmax(values))
        sup = float(values[index])
        if sup == 0.0:
            raise ValueError(f"generator {name} is identically zero on the samples")
        grid = values.reshape(space.carrier.counts)
        multi = np.unravel_index(index, grid.shape)
        # only an open end can hide an unattained sup; a closed end's boundary
        # sample belongs to the carrier, so the max found there is genuine
        for axis, interval in enumerate(space.carrier.box):
            line = grid[multi[:axis] + (slice(None),) + multi[axis + 1:]]
            for toward_end, is_open, end in ((True, interval.hi_open, "upper"), (False, interval.lo_open, "lower")):
                last = grid.shape[axis] - 1 if toward_end else 0
                if is_open and multi[axis] == last and _monotone_divergent(line, toward_end):
                    raise ValueError(f"generator {name} diverges toward the {end} end of axis {axis}")
        out.append(NormalizedGenerator(name, BinOp("/", gen.expr, Const(sup)), sup, index))
    return tuple(out)


def compactify(
    space: DiffSpace, probes: Sequence[Probe], tol: float = 1e-6, tail: int = 50
) -> tuple[tuple[NormalizedGenerator, ...], CompletedSpace]:
    """Normalize every generator, then complete over the scaled family:
    the normalized generators and the completion.  Every coordinate of
    the result, adjoined points included, is checked to lie in [-1, 1]."""
    normalized = normalize(space)
    scaled = GeneratorFamily(tuple(Generator(ng.name, ng.expr) for ng in normalized))
    cs = complete(DiffSpace(space.carrier, scaled), probes, tol=tol, tail=tail)
    over = np.argwhere(np.abs(cs.base.coords) > 1.0)
    if over.size:
        i, k = over[0]
        point, value = tuple(cs.base.ambient[i].tolist()), float(cs.base.coords[i, k])
        raise ValueError(f"generator {cs.names[k]} exceeds its unit bound at {point}: {value!r}")
    for adj in cs.adjoined:
        for name, value in zip(cs.names, adj.coords):
            if abs(value) > 1.0:
                raise ValueError(f"adjoined coordinate {name} of {adj.probe} leaves [-1, 1]: {value!r}")
    return normalized, cs
