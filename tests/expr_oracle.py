"""The recursive scalar walker, kept as the reference ``eval_array`` in
``sikorski.expr`` is compared against.

``eval_scalar`` evaluates a tree at one sample of Python floats with
``math``: it raises at the first guard it meets, children left to right
before their parent.  ``eval_array`` must give each sample this walker's
value up to the last bits, and, where the walker raises at some sample,
raise at the smallest such sample with the same message and node.
Where ``math`` itself refuses a non-finite argument (``sin(inf)``,
``bump1(nan)``) the walker raises ValueError or ZeroDivisionError rather
than a DomainError, so it has no verdict there.
"""

import math
import operator
from typing import Mapping

from sikorski.expr import _TAN_COS_FLOOR, BinOp, Call, Const, DomainError, Expr, ExprError, Pow, Var, excerpt

_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _splice_h(t: float) -> float:
    return math.exp(-1.0 / t) if t > 0.0 else 0.0


def _splice_h_prime(t: float) -> float:
    return math.exp(-1.0 / t) / (t * t) if t > 0.0 else 0.0


def _bump1(t: float) -> float:
    """Smooth splice: exactly 1 on [-1, 1], exactly 0 outside (-2, 2)."""
    a = 2.0 - abs(t)
    if a >= 1.0:
        return 1.0
    if a <= 0.0:
        return 0.0
    num = _splice_h(a)
    return num / (num + _splice_h(1.0 - a))


def _bump1d(t: float) -> float:
    """Derivative of the splice; zero on the flat pieces by construction."""
    a = 2.0 - abs(t)
    if a >= 1.0 or a <= 0.0:
        return 0.0
    ha = _splice_h(a)
    hb = _splice_h(1.0 - a)
    g = (_splice_h_prime(a) * hb + ha * _splice_h_prime(1.0 - a)) / ((ha + hb) ** 2)
    return -math.copysign(1.0, t) * g


_PRIMITIVES = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "atan": math.atan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "bump1": _bump1,
    "bump1d": _bump1d,
}


def _check_finite(value: float, node: Expr) -> float:
    if not math.isfinite(value):
        raise DomainError(f"non-finite value from {excerpt(node)}", node)
    return value


def eval_scalar(node: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with every singularity reported as a DomainError."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise DomainError(f"unbound variable {node.name!r}", node) from None
    if isinstance(node, BinOp):
        left = eval_scalar(node.left, env)
        right = eval_scalar(node.right, env)
        if node.op == "/" and right == 0.0:
            raise DomainError("division by zero", node)
        return _check_finite(_BINARY_OPS[node.op](left, right), node)
    if isinstance(node, Pow):
        base = eval_scalar(node.base, env)
        if base == 0.0 and node.exponent < 0:
            raise DomainError("zero raised to a negative power", node)
        try:
            return _check_finite(base**node.exponent, node)
        except OverflowError:
            raise DomainError("overflow in power", node) from None
    if isinstance(node, Call):
        arg = eval_scalar(node.arg, env)
        if node.func not in _PRIMITIVES:
            raise ExprError(f"unknown primitive {node.func!r}")
        if node.func == "tan" and abs(math.cos(arg)) < _TAN_COS_FLOOR:
            raise DomainError(f"tan singular near {arg!r}", node)
        if node.func == "log" and arg <= 0.0:
            raise DomainError(f"log of non-positive value {arg!r}", node)
        if node.func == "sqrt" and arg < 0.0:
            raise DomainError(f"sqrt of negative value {arg!r}", node)
        try:
            value = _PRIMITIVES[node.func](arg)
        except OverflowError:
            raise DomainError(f"overflow in {node.func}", node) from None
        return _check_finite(value, node) if node.func == "tan" else value
    raise ExprError(f"unknown node {node!r}")
