"""Closed symbolic expressions for generator functions.

Every function handled by this package is a finite composition of a fixed
set of unary primitives with field arithmetic and integer powers.  The
module provides the tree type, a small recursive-descent parser, guarded
evaluation (singular points raise, they never return NaN/inf), exact
symbolic differentiation, substitution, and a printer whose output parses
back to a structurally equal tree.  One walk, `sweep`, evaluates every
sweep: it takes its trees over whole sample arrays, walks a node they
share once, and hands back each tree's first failing sample; each caller
picks its own rule from those.  `eval_columns`, `eval_array`,
`eval_expr` and `eval_constant` call it here, and so do
`compactify.normalize`, which checks a family in family order, and
`uniform.probe_points`, which keeps a probe's values before its first
failure.  The tests keep the recursive per-sample walker it replaced as
their reference (``tests/expr_oracle.py``).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

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
    "eval_columns",
    "sweep",
    "diff",
    "substitute",
    "variables",
    "to_string",
    "excerpt",
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

    def at_row(self, label: str, rows: np.ndarray) -> "DomainError":
        """This error located in a sweep over the rows of `rows`: the same
        node and `index`, its message prefixed as ``"{label} at {row}: ..."``
        with the row at that index."""
        return DomainError(f"{label} at {tuple(rows[self.index].tolist())}: {self}", self.node, self.index)


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
# expr   := term (("+" | "-") term)*           (level 0 of _LEVELS)
# term   := factor (("*" | "/") factor)*       (level 1)
# factor := "-" factor | base ("^" integer)?
# base   := number | ident | ident "(" expr ")" | "(" expr ")"

_LEVELS = ("+-", "*/")  # the binary operators, loosest first

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

    def __init__(self, text: str, allowed_vars: frozenset[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.allowed = allowed_vars
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

    def expr(self, level: int = 0) -> tuple[Expr, int]:
        """Operands joined left to right by the operators of `_LEVELS[level]`:
        the next level's chains, or factors at the last level.  A `partial`
        reaches the next level without a Python frame of its own."""
        operand = partial(self.expr, level + 1) if level + 1 < len(_LEVELS) else self.factor
        node, depth = operand()
        while True:
            kind, value, offset = self.peek()
            if kind != "sym" or value not in _LEVELS[level]:
                return node, depth
            self.advance()
            right, right_depth = operand()
            node, depth = BinOp(value, node, right), self.nested(max(depth, right_depth), offset)

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
            if not math.isfinite(number):
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


def _shared(*roots: Expr) -> dict[int, int]:
    """The node objects that several parents in the trees refer to, as a
    derivative's operands are, or that several trees hold: for each id,
    the number of references, a root counting one."""
    refs: dict[int, int] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        key = id(node)
        if key in refs:
            refs[key] += 1
        else:
            refs[key] = 1
            if isinstance(node, BinOp):
                stack += (node.left, node.right)
            elif isinstance(node, Pow):
                stack.append(node.base)
            elif isinstance(node, Call):
                stack.append(node.arg)
    return {key: count for key, count in refs.items() if count > 1}


def _eval_node(node: Expr, env: Mapping[str, np.ndarray], failures: list, unread: dict, memo: dict) -> np.ndarray:
    """The value of `node` at every sample.  Children are walked left to
    right before their parent, and the walk goes on past a guard that
    fires, so `failures` ends up holding every guard that fired, in the
    order a per-sample walk would meet them.

    A shared node object is walked once: its guards are noted at its
    first position, which is where a per-sample walk meets them first,
    and `memo` keeps its value, by id, until the last of its `unread`
    references has read it.  Other values are freed as soon as their
    parent is computed, as without sharing.  One frame per tree level
    keeps a tree at the depth bound, composed and differentiated, under
    the recursion limit."""
    key = id(node)
    if key in memo:
        unread[key] -= 1
        return memo[key] if unread[key] else memo.pop(key)
    if isinstance(node, Const):
        value = np.float64(node.value)
    elif isinstance(node, Var):
        if node.name in env:
            value = env[node.name]
        else:
            failures.append((np.True_, node, f"unbound variable {node.name!r}", None))
            value = np.float64(np.nan)
    elif isinstance(node, BinOp):
        left = _eval_node(node.left, env, failures, unread, memo)
        right = _eval_node(node.right, env, failures, unread, memo)
        if node.op == "/":
            _guard(failures, node, right == 0.0, "division by zero")
        value = _BINARY_OPS[node.op](left, right)
        bad = ~np.isfinite(value)
        if np.any(bad):
            failures.append((bad, node, f"non-finite value from {excerpt(node)}", None))
    elif isinstance(node, Pow):
        base = _eval_node(node.base, env, failures, unread, memo)
        if node.exponent < 0:
            _guard(failures, node, base == 0.0, "zero raised to a negative power")
        value = base**node.exponent
        bad = ~np.isfinite(value)
        if np.any(bad):
            finite_base = np.isfinite(base)
            _guard(failures, node, bad & finite_base, "overflow in power")
            _guard(failures, node, bad & ~finite_base, f"non-finite value from {excerpt(node)}")
    elif isinstance(node, Call):
        if node.func not in _PRIMITIVES:
            raise ExprError(f"unknown primitive {node.func!r}")
        arg = _eval_node(node.arg, env, failures, unread, memo)
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
                failures.append((bad, node, f"non-finite value from {excerpt(node)}", None))
            else:  # a non-finite argument passes through the other primitives
                _guard(failures, node, bad & np.isfinite(arg), f"overflow in {node.func}")
    else:
        raise ExprError(f"unknown node {node!r}")
    if key in unread:
        unread[key] -= 1
        memo[key] = value
    return value


def sweep(
    roots: Sequence[Expr], env: Mapping[str, np.ndarray | float]
) -> tuple[np.ndarray, list[DomainError | None]]:
    """Evaluate every root over whole arrays of samples in one walk: the
    values, root k's in ``values[..., k]``, and for each root None or the
    DomainError a per-sample walk of that root alone meets first, with the
    sample's flattened index as its `index`.

    The arrays in `env` broadcast to the shape of each root's values;
    samples are ordered as the flattened (row-major) values.  A root's
    first failure is at the smallest sample where one of its guards
    fires, and there the first guard in evaluation order (children left
    to right before their parent).  The walk goes on past a guard that
    fires, so every root gets its values, which hold at every sample
    before its first failure.  An unbound variable fires at every sample.

    One memo serves every root, so a node the roots share is walked once.
    Its guards are noted under the first root to reach it, which fails
    wherever a later root that reads it would.  So a root misses a
    failure only after an earlier root has failed: the failures are
    exact up to the first failing root in root order, which is all any
    caller reads.
    """
    names = tuple(env)
    columns = np.broadcast_arrays(*(np.asarray(env[name], dtype=float) for name in names))
    bound, shape = dict(zip(names, columns)), columns[0].shape if columns else ()
    values = np.empty(shape + (len(roots),))
    unread, memo, failures = _shared(*roots), {}, []
    with np.errstate(all="ignore"):
        for k, root in enumerate(roots):
            found: list = []
            values[..., k] = _eval_node(root, bound, found, unread, memo)
            masks = [np.broadcast_to(bad, shape) for bad, *_ in found]
            index = min((int(np.argmax(mask)) for mask in masks if mask.any()), default=None)
            if index is None:  # no guard fired, or one fired on zero samples
                failures.append(None)
                continue
            node, message, arg = next(rest for (_, *rest), mask in zip(found, masks) if mask.flat[index])
            if arg is not None:
                message += f" {float(np.broadcast_to(arg, shape).flat[index])!r}"
            failures.append(DomainError(message, node, index))
    return values, failures


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

    `sweep` of the one tree: the arrays in `env` broadcast to the shape
    of the result, and the DomainError raised is the tree's first failure
    there, with its node, its message, and the sample's flattened index
    as its `index`.
    """
    values, (failure,) = sweep([node], env)
    if failure:
        raise failure
    return values[..., 0]


def eval_columns(
    exprs: Sequence[Expr], names: Sequence[str], rows: np.ndarray, labels: Sequence[str]
) -> np.ndarray:
    """Evaluate every expression on every row of `rows`, whose columns bind
    `names`: one result column per expression, one row per sample.

    One `sweep` walks the expressions, so a node they share is evaluated
    once.  The error raised is the first a per-sample loop over the
    columns meets: of the columns' first failures, the one at the
    smallest (sample index, column).  `DomainError.at_row` prefixes its
    message with the column's label and the row, as
    ``"{label} at {row}: ..."``, and its `index` is the row's index.
    """
    values, failures = sweep(exprs, dict(zip(names, rows.T)))
    found = [(err.index, k) for k, err in enumerate(failures) if err]
    if found:
        _, k = min(found)
        raise failures[k].at_row(labels[k], rows) from failures[k]
    return values


def eval_expr(node: Expr, env: Mapping[str, float]) -> float:
    """`eval_array` at the one sample where `env` binds each name to a number."""
    return float(eval_array(node, env))


def eval_constant(text: str) -> float:
    """The value of a constant expression such as ``pi/2``, which must be
    finite.  It is parsed as any expression is, so a ParseError carries the
    offset of the bad token, a number such as ``1e999`` included; every
    other failure is an ExprError, a value such as ``1e308*10`` included."""
    return eval_expr(parse_expr(text), {})


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


_EXCERPT_CHARS = 100  # the most of a tree that one message or label shows


def excerpt(node: Expr) -> str:
    """`node` rendered for a message or a label: its `to_string`, cut to
    100 characters and ``…`` when longer, so that a message about a large
    tree stays one short line."""
    text = to_string(node)
    return text if len(text) <= _EXCERPT_CHARS else text[:_EXCERPT_CHARS] + "…"
