"""Closed symbolic expressions for generator functions.

Every function handled by this package is a finite composition of a fixed
set of unary primitives with field arithmetic and integer powers.  The
module provides the tree type, a small recursive-descent parser, guarded
evaluation (singular points raise, they never return NaN/inf), exact
symbolic differentiation, substitution, and a printer whose output parses
back to a structurally equal tree.  `eval_array` evaluates a tree over
whole sample arrays with the same guards; the scalar `eval_expr` is its
oracle and decides every sample that trips a guard.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Expr",
    "Var",
    "Const",
    "BinOp",
    "Pow",
    "Call",
    "ExprError",
    "ParseError",
    "DomainError",
    "CONSTANTS",
    "UNARY_PRIMITIVES",
    "parse_expr",
    "eval_expr",
    "eval_constant",
    "eval_array",
    "diff",
    "substitute",
    "variables",
    "to_string",
]


class ExprError(Exception):
    """Base class for everything raised by this module."""


class ParseError(ExprError):
    """Syntax or scope error, with the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation hit a singular point.  Carries the offending node and,
    from an array evaluation, the `index` of the offending sample in
    flattened sample order (None from a plain `eval_expr` call)."""

    def __init__(self, message: str, node: "Expr | None" = None, index: int | None = None):
        super().__init__(message)
        self.node = node
        self.index = index


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses are immutable and compare structurally."""


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+", "-", "*", "/"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Integer power of a subexpression."""

    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


CONSTANTS: Mapping[str, float] = {"pi": math.pi, "e": math.e}

# tan is treated as singular when cos falls below this; keeps tan(pi/2)
# an error instead of a garbage 1e16.
_TAN_COS_FLOOR = 1e-15


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


def _splice_h_array(t: np.ndarray) -> np.ndarray:
    """_splice_h over an array; exp(-1/t) is only ever taken at t > 0."""
    positive = t > 0.0
    return np.where(positive, np.exp(-1.0 / np.where(positive, t, 1.0)), 0.0)


def _bump1_array(t: np.ndarray) -> np.ndarray:
    a = 2.0 - np.abs(t)
    num = _splice_h_array(a)
    middle = num / (num + _splice_h_array(1.0 - a))
    return np.where(a >= 1.0, 1.0, np.where(a <= 0.0, 0.0, middle))


def _bump1d_array(t: np.ndarray) -> np.ndarray:
    a = 2.0 - np.abs(t)
    b = 1.0 - a
    ha = _splice_h_array(a)
    hb = _splice_h_array(b)
    # h'(s) = h(s) / s^2, which is zero wherever h is
    dha = ha / np.where(a > 0.0, a * a, 1.0)
    dhb = hb / np.where(b > 0.0, b * b, 1.0)
    g = (dha * hb + ha * dhb) / ((ha + hb) ** 2)
    return np.where((a >= 1.0) | (a <= 0.0), 0.0, -np.copysign(1.0, t) * g)


# The closed primitive set, each with its scalar and its array form.
# `bump1` and its derivative `bump1d` are the splice used by the
# bounded-generator construction; they are primitives here so that
# differentiation and printing stay total on trees that the
# compactification code builds.
_PRIMITIVES = {
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "tan": (math.tan, np.tan),
    "atan": (math.atan, np.arctan),
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
    "bump1": (_bump1, _bump1_array),
    "bump1d": (_bump1d, _bump1d_array),
}
UNARY_PRIMITIVES = tuple(_PRIMITIVES)

_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


# ---------------------------------------------------------------------------
# Tokenizer / parser
#
# expr   := ["-"] term (("+" | "-") term)*        (leading sign sugar)
# term   := factor (("*" | "/") factor)*
# factor := "-" factor | base ("^" integer)?
# base   := number | ident | ident "(" expr ")" | "(" expr ")"

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        for kind in ("num", "ident", "sym"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allowed_vars: frozenset[str], finite_literals: bool = True):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = allowed_vars
        self.finite_literals = finite_literals

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, value, offset = self.peek()
        if kind != "sym" or value != sym:
            raise ParseError(f"expected {sym!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return BinOp("-", Const(0.0), inner)
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, value, offset = self.peek()
        if kind == "sym" and value == "-":
            sign = -1
            self.advance()
            kind, value, offset = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", value):
            raise ParseError("exponent must be an integer", offset)
        self.advance()
        return sign * int(value)

    def base(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            number = float(value)
            if self.finite_literals and not math.isfinite(number):
                raise ParseError(f"number {value} is not finite", offset)
            return Const(number)
        if kind == "sym" and value == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "sym" and nvalue == "(":
                if value not in UNARY_PRIMITIVES:
                    raise ParseError(f"unknown primitive {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_sym(")")
                return Call(value, arg)
            if value in CONSTANTS:
                return Const(CONSTANTS[value])
            if value not in self.allowed:
                raise ParseError(f"unknown variable {value!r}", offset)
            return Var(value)
        raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", offset)


def parse_expr(text: str, allowed_vars: Iterable[str] = ()) -> Expr:
    """Parse `text` into a tree.  Identifiers must be declared variables,
    the constants pi/e, or a primitive applied to one argument.  A number
    must be finite: evaluation returns a constant unchecked, so ``1e999``
    would otherwise surface only as a non-finite value at sweep time."""
    return _Parser(text, frozenset(allowed_vars)).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _check_finite(value: float, node: Expr) -> float:
    if not math.isfinite(value):
        raise DomainError(f"non-finite value from {to_string(node)}", node)
    return value


def eval_expr(node: Expr, env: Mapping[str, float]) -> float:
    """Evaluate with every singularity reported as a DomainError.

    Raising instead of returning NaN/inf is load-bearing: downstream
    completion and refinement searches treat any returned float as a
    legitimate coordinate.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise DomainError(f"unbound variable {node.name!r}", node) from None
    if isinstance(node, BinOp):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        if node.op == "/" and right == 0.0:
            raise DomainError("division by zero", node)
        return _check_finite(_BINARY_OPS[node.op](left, right), node)
    if isinstance(node, Pow):
        base = eval_expr(node.base, env)
        if base == 0.0 and node.exponent < 0:
            raise DomainError("zero raised to a negative power", node)
        try:
            return _check_finite(base**node.exponent, node)
        except OverflowError:
            raise DomainError("overflow in power", node) from None
    if isinstance(node, Call):
        arg = eval_expr(node.arg, env)
        if node.func not in _PRIMITIVES:
            raise ExprError(f"unknown primitive {node.func!r}")
        if node.func == "tan" and abs(math.cos(arg)) < _TAN_COS_FLOOR:
            raise DomainError(f"tan singular near {arg!r}", node)
        if node.func == "log" and arg <= 0.0:
            raise DomainError(f"log of non-positive value {arg!r}", node)
        if node.func == "sqrt" and arg < 0.0:
            raise DomainError(f"sqrt of negative value {arg!r}", node)
        try:
            value = _PRIMITIVES[node.func][0](arg)
        except OverflowError:
            raise DomainError(f"overflow in {node.func}", node) from None
        return _check_finite(value, node) if node.func == "tan" else value
    raise ExprError(f"unknown node {node!r}")


def eval_constant(text: str) -> float:
    """The value of a constant expression such as ``pi/2``, which must be
    finite.  A ParseError carries the offset of the bad token; every other
    failure is an ExprError, a non-finite number included, since the
    value itself is checked."""
    value = eval_expr(_Parser(text, frozenset(), finite_literals=False).parse(), {})
    if not math.isfinite(value):
        raise ExprError(f"value {value!r} is not finite")
    return value


class _Tripped(Exception):
    """A guard fired somewhere in the batch; the scalar evaluator decides."""


def _eval_node(node: Expr, env: Mapping[str, np.ndarray]) -> np.ndarray:
    """Elementwise `eval_expr`; raises _Tripped where that would raise."""
    bad = False
    if isinstance(node, Const):
        value = np.float64(node.value)
    elif isinstance(node, Var):
        if node.name not in env:
            raise _Tripped
        value = env[node.name]
    elif isinstance(node, BinOp):
        left = _eval_node(node.left, env)
        right = _eval_node(node.right, env)
        if node.op == "/":
            bad = right == 0.0
        value = _BINARY_OPS[node.op](left, right)
    elif isinstance(node, Pow):
        base = _eval_node(node.base, env)
        if node.exponent < 0:
            bad = base == 0.0
        value = base**node.exponent
    elif isinstance(node, Call):
        if node.func not in _PRIMITIVES:
            raise ExprError(f"unknown primitive {node.func!r}")
        arg = _eval_node(node.arg, env)
        if node.func == "tan":
            bad = np.abs(np.cos(arg)) < _TAN_COS_FLOOR
        elif node.func == "log":
            bad = arg <= 0.0
        elif node.func == "sqrt":
            bad = arg < 0.0
        value = _PRIMITIVES[node.func][1](arg)
    else:
        raise ExprError(f"unknown node {node!r}")
    if np.any(bad) or not np.all(np.isfinite(value)):
        raise _Tripped
    return value


def eval_array(node: Expr, env: Mapping[str, np.ndarray | float]) -> np.ndarray:
    """`eval_expr` over whole arrays of samples at once.

    The arrays in `env` broadcast to the shape of the result; samples are
    ordered as the flattened (row-major) result.  Every node checks the
    guards of `eval_expr` on all samples.  When one fires, the scalar
    evaluator walks the samples in order, so the DomainError raised is the
    one a per-sample loop raises: first offending sample, same node, same
    message, and that sample's flattened index as its `index`.  Values
    may differ from `eval_expr` by a few ulps, because numpy's ufuncs are
    not `math`'s.
    """
    names = tuple(env)
    columns = np.broadcast_arrays(*(np.asarray(env[name], dtype=float) for name in names))
    shape = columns[0].shape if columns else ()
    try:
        with np.errstate(all="ignore"):
            value = _eval_node(node, dict(zip(names, columns)))
    except _Tripped:
        flat = [column.ravel().tolist() for column in columns]
        values = []
        for index, row in enumerate(zip(*flat) if flat else [()]):
            try:
                values.append(eval_expr(node, dict(zip(names, row))))
            except DomainError as err:
                err.index = index
                raise
        return np.array(values, dtype=float).reshape(shape)
    return np.array(np.broadcast_to(value, shape), dtype=float)


# ---------------------------------------------------------------------------
# Differentiation
#
# Smart constructors drop exact identities (x+0, x*1, x*0) so derivative
# trees stay readable; they only ever remove evaluation paths, never
# change a representable value.

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _fold(op: str, a: Const, b: Const, value: float) -> Expr:
    # keep overflow as a tree so evaluation reports it instead of
    # smuggling an inf constant past the finiteness guard
    return Const(value) if math.isfinite(value) else BinOp(op, a, b)


def _add(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("+", a, b, a.value + b.value)
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if b == _ZERO:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("-", a, b, a.value - b.value)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold("*", a, b, a.value * b.value)
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return _ZERO
    if b == _ONE:
        return a
    return BinOp("/", a, b)


def diff(node: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to `var`.

    The product rule is applied at tree level, so Leibniz-style identities
    hold up to float summation order, not up to an approximation.
    """
    if isinstance(node, Const):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, BinOp):
        dl = diff(node.left, var)
        dr = diff(node.right, var)
        if node.op == "+":
            return _add(dl, dr)
        if node.op == "-":
            return _sub(dl, dr)
        if node.op == "*":
            return _add(_mul(dl, node.right), _mul(node.left, dr))
        numerator = _sub(_mul(dl, node.right), _mul(node.left, dr))
        return _div(numerator, Pow(node.right, 2))
    if isinstance(node, Pow):
        k = node.exponent
        if k == 0:
            return _ZERO
        du = diff(node.base, var)
        if k == 1:
            return du
        return _mul(_mul(Const(float(k)), Pow(node.base, k - 1)), du)
    if isinstance(node, Call):
        u = node.arg
        du = diff(u, var)
        if node.func == "sin":
            return _mul(Call("cos", u), du)
        if node.func == "cos":
            return _mul(Const(-1.0), _mul(Call("sin", u), du))
        if node.func == "tan":
            return _mul(_add(_ONE, Pow(Call("tan", u), 2)), du)
        if node.func == "atan":
            return _div(du, _add(_ONE, Pow(u, 2)))
        if node.func == "exp":
            return _mul(Call("exp", u), du)
        if node.func == "log":
            return _div(du, u)
        if node.func == "sqrt":
            return _div(du, _mul(Const(2.0), Call("sqrt", u)))
        if node.func == "abs":
            # sign(u) written as u/|u|; evaluating the derivative at u = 0
            # is then a division-by-zero domain error, as it should be.
            return _mul(_div(u, Call("abs", u)), du)
        if node.func == "bump1":
            return _mul(Call("bump1d", u), du)
        if node.func == "bump1d":
            raise ExprError("second derivative of bump1 is not supported")
    raise ExprError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Structure helpers


def variables(node: Expr) -> frozenset[str]:
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Const):
        return frozenset()
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Pow):
        return variables(node.base)
    if isinstance(node, Call):
        return variables(node.arg)
    raise ExprError(f"unknown node {node!r}")


def substitute(node: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace variables by subtrees; names not mentioned stay put."""
    if isinstance(node, Var):
        return replacements.get(node.name, node)
    if isinstance(node, Const):
        return node
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, replacements), substitute(node.right, replacements))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, replacements), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, substitute(node.arg, replacements))
    raise ExprError(f"unknown node {node!r}")


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _render(node: Expr, min_prec: int) -> str:
    if isinstance(node, Const):
        text = repr(node.value)
        # a bare negative literal re-parses through the unary-minus rule
        return text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, _PREC_ADD)})"
    if isinstance(node, Pow):
        if isinstance(node.base, (Var, Call)) or (
            isinstance(node.base, Const) and not repr(node.base.value).startswith("-")
        ):
            base = _render(node.base, _PREC_ATOM)
        else:
            base = f"({_render(node.base, _PREC_ADD)})"
        text = f"{base}^{node.exponent}"
        prec = _PREC_POW
    elif isinstance(node, BinOp):
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        left = _render(node.left, prec)
        right = _render(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
    else:
        raise ExprError(f"unknown node {node!r}")
    if prec < min_prec:
        return f"({text})"
    return text


def to_string(node: Expr) -> str:
    """Render so that parse_expr(to_string(e)) is structurally equal to e."""
    return _render(node, _PREC_ADD)
