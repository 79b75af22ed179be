"""Closed symbolic expressions for generator functions.

Every function handled by this package is a finite composition of a fixed
set of unary primitives with field arithmetic and integer powers.  The
module provides the tree type, a small recursive-descent parser, guarded
evaluation (singular points raise, they never return NaN/inf), exact
symbolic differentiation, substitution, and a printer whose output parses
back to a structurally equal tree.  `eval_array` is the one evaluator: it
takes a tree over whole sample arrays and finds the first failing sample
itself; `eval_expr` and `eval_constant` are one-sample calls of it.  The
tests keep the recursive per-sample walker it replaced as their
reference (``tests/expr_oracle.py``).
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
    "MAX_DEPTH",
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
    """Evaluation hit a singular point.  Carries the offending node and
    the `index` of the offending sample in flattened sample order; a
    one-sample evaluation (`eval_expr`) reports index 0."""

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

# The deepest tree, and the deepest nesting of groups in its text, that
# parse_expr and eval_constant accept.  Every walker recurses once per
# level of the tree it walks.  The deepest walk measured is `tangent
# --map` on a chain of divisions by a variable, as deep as this in the
# map component, the target generator and the witness: it differentiates
# the component put into the generator, and takes 6 * depth + 7 frames.
# A pytest test starts about 33 frames deep, so that walk passes Python's
# default recursion limit of 1000 at a depth of about 158.
MAX_DEPTH = 128

# tan is treated as singular when cos falls below this; keeps tan(pi/2)
# an error instead of a garbage 1e16.
_TAN_COS_FLOOR = 1e-15


def _splice_h_array(t: np.ndarray) -> np.ndarray:
    """The splice's h(t): exp(-1/t) for t > 0, else 0; exp(-1/t) is only
    ever taken at t > 0."""
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


# The closed primitive set, each with its array form.  `bump1` and its
# derivative `bump1d` are the splice used by the bounded-generator
# construction; they are primitives here so that differentiation and
# printing stay total on trees that the compactification code builds.
_PRIMITIVES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "bump1": _bump1_array,
    "bump1d": _bump1d_array,
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
    """Each rule returns its tree and the tree's depth, a leaf being one
    deep.  `open` counts the groups around the current token: parentheses,
    call arguments and unary minuses, which the parser recurses into."""

    def __init__(self, text: str, allowed_vars: frozenset[str], finite_literals: bool = True):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = allowed_vars
        self.finite_literals = finite_literals
        self.open = 0

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

    def nested(self, depth: int, offset: int) -> int:
        """The depth of a node made at `offset` over children at most
        `depth` deep, or of a group opened there around `depth` others."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth + 1

    def group(self, parse, offset: int):
        """`parse()` inside a group opened at `offset`."""
        self.open = self.nested(self.open, offset)
        result = parse()
        self.open -= 1
        return result

    def parse(self) -> Expr:
        e, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", offset)
        return e

    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                right, right_depth = self.term()
                node, depth = BinOp(value, node, right), self.nested(max(depth, right_depth), offset)
            else:
                return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "sym" and value in "*/":
                self.advance()
                right, right_depth = self.factor()
                node, depth = BinOp(value, node, right), self.nested(max(depth, right_depth), offset)
            else:
                return node, depth

    def factor(self) -> tuple[Expr, int]:
        kind, value, offset = self.peek()
        if kind == "sym" and value == "-":
            self.advance()
            inner, depth = self.group(self.factor, offset)
            if isinstance(inner, Const):
                return Const(-inner.value), depth
            return BinOp("-", Const(0.0), inner), self.nested(depth, offset)
        node, depth = self.base()
        kind, value, offset = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            node, depth = Pow(node, self.integer()), self.nested(depth, offset)
        return node, depth

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

    def base(self) -> tuple[Expr, int]:
        kind, value, offset = self.advance()
        if kind == "num":
            number = float(value)
            if self.finite_literals and not math.isfinite(number):
                raise ParseError(f"number {value} is not finite", offset)
            return Const(number), 1
        if kind == "sym" and value == "(":
            result = self.group(self.expr, offset)
            self.expect_sym(")")
            return result
        if kind == "ident":
            nkind, nvalue, noffset = self.peek()
            if nkind == "sym" and nvalue == "(":
                if value not in UNARY_PRIMITIVES:
                    raise ParseError(f"unknown primitive {value!r}", offset)
                self.advance()
                arg, depth = self.group(self.expr, noffset)
                self.expect_sym(")")
                return Call(value, arg), self.nested(depth, offset)
            if value in CONSTANTS:
                return Const(CONSTANTS[value]), 1
            if value not in self.allowed:
                raise ParseError(f"unknown variable {value!r}", offset)
            return Var(value), 1
        raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", offset)


def parse_expr(text: str, allowed_vars: Iterable[str] = ()) -> Expr:
    """Parse `text` into a tree.  Identifiers must be declared variables,
    the constants pi/e, or a primitive applied to one argument.  A number
    must be finite: evaluation returns a constant unchecked, so ``1e999``
    would otherwise surface only as a non-finite value at sweep time.
    The tree may be at most `MAX_DEPTH` deep, and the text may nest at
    most `MAX_DEPTH` parentheses, call arguments and unary minuses; the
    ParseError names the token that passes the bound."""
    return _Parser(text, frozenset(allowed_vars)).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _guard(failures: list, node: Expr, bad, message: str, arg=None) -> None:
    """Note a guard of `node` that fires at the samples where `bad` holds;
    `arg`, when given, completes the message with the sample's argument."""
    if np.any(bad):
        failures.append((bad, node, message, arg))


def _eval_node(node: Expr, env: Mapping[str, np.ndarray], failures: list) -> np.ndarray:
    """The value of `node` at every sample.  Children are walked left to
    right before their parent, and the walk goes on past a guard that
    fires, so `failures` ends up holding every guard that fired, in the
    order a per-sample walk would meet them."""
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Var):
        if node.name not in env:
            failures.append((np.True_, node, f"unbound variable {node.name!r}", None))
            return np.float64(np.nan)
        return env[node.name]
    if isinstance(node, BinOp):
        left = _eval_node(node.left, env, failures)
        right = _eval_node(node.right, env, failures)
        if node.op == "/":
            _guard(failures, node, right == 0.0, "division by zero")
        value = _BINARY_OPS[node.op](left, right)
        bad = ~np.isfinite(value)
        if np.any(bad):
            failures.append((bad, node, f"non-finite value from {to_string(node)}", None))
        return value
    if isinstance(node, Pow):
        base = _eval_node(node.base, env, failures)
        if node.exponent < 0:
            _guard(failures, node, base == 0.0, "zero raised to a negative power")
        value = base**node.exponent
        bad = ~np.isfinite(value)
        if np.any(bad):
            finite_base = np.isfinite(base)
            _guard(failures, node, bad & finite_base, "overflow in power")
            _guard(failures, node, bad & ~finite_base, f"non-finite value from {to_string(node)}")
        return value
    if isinstance(node, Call):
        if node.func not in _PRIMITIVES:
            raise ExprError(f"unknown primitive {node.func!r}")
        arg = _eval_node(node.arg, env, failures)
        if node.func == "tan":
            _guard(failures, node, np.abs(np.cos(arg)) < _TAN_COS_FLOOR, "tan singular near", arg)
        elif node.func == "log":
            _guard(failures, node, arg <= 0.0, "log of non-positive value", arg)
        elif node.func == "sqrt":
            _guard(failures, node, arg < 0.0, "sqrt of negative value", arg)
        value = _PRIMITIVES[node.func](arg)
        bad = ~np.isfinite(value)
        if np.any(bad):
            if node.func == "tan":
                failures.append((bad, node, f"non-finite value from {to_string(node)}", None))
            else:  # a non-finite argument passes through the other primitives
                _guard(failures, node, bad & np.isfinite(arg), f"overflow in {node.func}")
        return value
    raise ExprError(f"unknown node {node!r}")


def _raise_first(failures: list, shape: tuple[int, ...]) -> None:
    """Raise the DomainError a per-sample loop meets first: at the smallest
    sample where a guard fired, the first guard to fire there."""
    masks = [np.broadcast_to(bad, shape) for bad, _, _, _ in failures]
    firing = [int(np.argmax(mask)) for mask in masks if mask.any()]
    if not firing:  # the guards fired on zero samples
        return
    index = min(firing)
    for mask, (_, node, message, arg) in zip(masks, failures):
        if mask.flat[index]:
            if arg is not None:
                message = f"{message} {float(np.broadcast_to(arg, shape).flat[index])!r}"
            raise DomainError(message, node, index)


def eval_array(node: Expr, env: Mapping[str, np.ndarray | float]) -> np.ndarray:
    """Evaluate over whole arrays of samples at once, with every
    singularity reported as a DomainError.

    Raising instead of returning NaN/inf is load-bearing: downstream
    completion and refinement searches treat any returned float as a
    legitimate coordinate.  The guards: division by zero, zero to a
    negative power, tan within `_TAN_COS_FLOOR` of a pole, log of a
    non-positive and sqrt of a negative value; and a non-finite result of
    arithmetic, of a power (an overflow where the base was finite) or of
    tan, or of another primitive at a finite argument (an overflow).
    Variables and constants carry no guard, so a non-finite binding
    passes on through the primitives other than tan; finite bindings
    never give a non-finite value.

    The arrays in `env` broadcast to the shape of the result; samples are
    ordered as the flattened (row-major) result.  The DomainError raised
    is the one a per-sample loop meets first: at the smallest sample where
    a guard fires, the first node to fire there in evaluation order
    (children left to right before their parent), with that node, its
    message, and the sample's flattened index as its `index`.  An unbound
    variable fires at every sample.
    """
    names = tuple(env)
    columns = np.broadcast_arrays(*(np.asarray(env[name], dtype=float) for name in names))
    shape = columns[0].shape if columns else ()
    failures: list = []
    with np.errstate(all="ignore"):
        value = _eval_node(node, dict(zip(names, columns)), failures)
    if failures:
        _raise_first(failures, shape)
    return np.array(np.broadcast_to(value, shape), dtype=float)


def eval_expr(node: Expr, env: Mapping[str, float]) -> float:
    """`eval_array` at the one sample where `env` binds each name to a number."""
    return float(eval_array(node, env))


def eval_constant(text: str) -> float:
    """The value of a constant expression such as ``pi/2``, which must be
    finite.  A ParseError carries the offset of the bad token; every other
    failure is an ExprError, a non-finite number included, since the
    value itself is checked."""
    value = eval_expr(_Parser(text, frozenset(), finite_literals=False).parse(), {})
    if not math.isfinite(value):
        raise ExprError(f"value {value!r} is not finite")
    return value


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
