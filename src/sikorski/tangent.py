"""Tangent vectors as derivations along ambient directions.

A tangent vector at a sampled point is a coefficient vector over the
ambient coordinates; it acts on a witnessed function by differentiating
the composed expression symbolically and summing the directional parts.
Smooth maps push vectors forward through their ambient Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .expr import BinOp, DomainError, Expr, diff, excerpt, substitute
from .space import DiffSpace, SmoothFunction, SmoothMapWitness, compose_ambient, eval_point, eval_smooth

__all__ = [
    "TangentVector",
    "apply",
    "leibniz_check",
    "tangent_map",
    "chain_rule_check",
]


@dataclass(frozen=True)
class TangentVector:
    point: tuple[float, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.point) != len(self.coeffs):
            raise ValueError("coefficients must match the ambient dimension")


def _directional(expr: Expr, ambient: Sequence[str], v: TangentVector) -> float:
    if len(v.point) != len(ambient):
        raise ValueError("vector lives in a different ambient space")
    moved = [(name, coeff) for name, coeff in zip(ambient, v.coeffs) if coeff != 0.0]
    partials = [diff(expr, name) for name, _ in moved]
    labels = [f"derivative of {excerpt(expr)} along {name}" for name, _ in moved]
    total = 0.0
    for (_, coeff), value in zip(moved, eval_point(partials, ambient, v.point, labels)):
        total += coeff * value
    if not math.isfinite(total):
        raise DomainError(
            f"derivative of {excerpt(expr)} along {v.coeffs} at {v.point}: weighted sum {total!r} is not finite",
            expr,
        )
    return total


def apply(space: DiffSpace, v: TangentVector, f: SmoothFunction) -> float:
    """The derivation v acting on f: directional derivative of the composed
    ambient expression at the vector's base point.  Symbolic partials, so
    kinks (abs at zero) surface as domain errors instead of noise."""
    return _directional(compose_ambient(space, f), space.carrier.ambient, v)


def leibniz_check(
    space: DiffSpace, v: TangentVector, f: SmoothFunction, g: SmoothFunction
) -> tuple[float, float]:
    """The residual |v(fg) - f(m) v(g) - g(m) v(f)|, zero up to float
    summation order, and the scale 1 + |f(m) v(g)| + |g(m) v(f)| it is
    judged against."""
    fg = BinOp("*", compose_ambient(space, f), compose_ambient(space, g))
    lhs = _directional(fg, space.carrier.ambient, v)
    fvg = eval_smooth(space, f, v.point) * apply(space, v, g)
    gvf = eval_smooth(space, g, v.point) * apply(space, v, f)
    return abs(lhs - (fvg + gvf)), 1.0 + abs(fvg) + abs(gvf)


def tangent_map(source: DiffSpace, witness: SmoothMapWitness, v: TangentVector) -> TangentVector:
    """Push the vector forward through the map's ambient Jacobian; the
    result is based at the image point by construction."""
    ambient = source.carrier.ambient
    if len(v.point) != len(ambient):
        raise ValueError("vector lives in a different ambient space")
    coeffs = tuple(_directional(comp, ambient, v) for comp in witness.components)
    return TangentVector(witness.image_point(source, v.point), coeffs)


def chain_rule_check(
    source: DiffSpace, witness: SmoothMapWitness, v: TangentVector, beta: SmoothFunction
) -> tuple[float, float]:
    """The residual |d beta(TF(v)) - d(beta o F)(v)| for a target function
    beta, and the scale 1 + |d beta(TF(v))| it is judged against.

    The composite side substitutes the map components into beta's ambient
    expression, so both sides are symbolic derivatives of the same data.
    """
    pushed = tangent_map(source, witness, v)
    lhs = apply(witness.target, pushed, beta)
    beta_ambient = compose_ambient(witness.target, beta)
    composed = substitute(
        beta_ambient, dict(zip(witness.target.carrier.ambient, witness.components))
    )
    rhs = _directional(composed, source.carrier.ambient, v)
    return abs(lhs - rhs), 1.0 + abs(lhs)
