import contextlib
import io
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import sikorski
from sikorski import cli
from sikorski import expr as expr_module
from sikorski.expr import (
    BinOp,
    Call,
    Const,
    DomainError,
    ExprError,
    MAX_DEPTH,
    ParseError,
    Pow,
    UNARY_PRIMITIVES,
    Var,
    diff,
    eval_array,
    eval_columns,
    eval_constant,
    eval_expr,
    parse_expr,
    substitute,
    sweep,
    to_string,
    variables,
)

from expr_oracle import eval_scalar
from exprgen import random_expr


def test_parse_builds_the_expected_tree():
    e = parse_expr("x1 * cos(tan(x1))", ["x1"])
    assert e == BinOp("*", Var("x1"), Call("cos", Call("tan", Var("x1"))))
    assert parse_expr("x ", ["x"]) == Var("x")  # trailing blanks end the input


def test_parse_call_chain():
    assert parse_expr("atan(x)", ["x"]) == Call("atan", Var("x"))


def test_precedence_and_associativity():
    assert eval_expr(parse_expr("1 + 2 * 3"), {}) == 7.0
    assert eval_expr(parse_expr("2 * 3 ^ 2"), {}) == 18.0
    assert eval_expr(parse_expr("8 - 3 - 2"), {}) == 3.0
    assert eval_expr(parse_expr("(1 + 2) * 3"), {}) == 9.0


def test_unary_minus_binds_below_power():
    # -2^2 reads as -(2^2), matching the usual convention
    assert eval_expr(parse_expr("-2^2"), {}) == -4.0
    assert eval_expr(parse_expr("(-2)^2"), {}) == 4.0
    assert eval_expr(parse_expr("2 * -1.5"), {}) == -3.0


def test_scientific_notation_literals():
    assert parse_expr("1e-3") == Const(0.001)
    assert parse_expr("2.5e+2") == Const(250.0)
    assert parse_expr("1E6") == Const(1000000.0)


def test_named_constants():
    assert parse_expr("pi") == Const(math.pi)
    assert eval_expr(parse_expr("e"), {}) == math.e


def test_unknown_variable_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown variable 'y'"):
        parse_expr("cos(y)", ["x1"])


def test_unknown_primitive_is_a_parse_error():
    with pytest.raises(ParseError, match="unknown primitive"):
        parse_expr("sinh(x)", ["x"])


def test_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing input"):
        parse_expr("1 + 2 3")


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="exponent must be an integer"):
        parse_expr("x^1.5", ["x"])


def test_negative_integer_exponent_parses():
    e = parse_expr("x^-2", ["x"])
    assert e == Pow(Var("x"), -2)
    assert eval_expr(e, {"x": 2.0}) == 0.25


# at the bound and one past it, with the offset of the token that passes it
DEEP = [
    ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
    ("sin(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1), "sin(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, 0),
    ("x" + "+x" * (MAX_DEPTH - 1), "x" + "+x" * MAX_DEPTH, 2 * MAX_DEPTH - 1),
    ("-" * MAX_DEPTH + "1", "-" * (MAX_DEPTH + 1) + "1", MAX_DEPTH),
    ("-" * (MAX_DEPTH - 1) + "x", "-" * MAX_DEPTH + "x", 0),
    ("(" * (MAX_DEPTH - 2) + "x^2" + ")^2" * (MAX_DEPTH - 2), "(" * (MAX_DEPTH - 1) + "x^2" + ")^2" * (MAX_DEPTH - 1),
     4 * MAX_DEPTH - 3),
]


@pytest.mark.parametrize("at_bound, past, offset", DEEP)
def test_parse_refuses_an_expression_past_the_depth_bound(at_bound, past, offset):
    parse_expr(at_bound, ["x"])
    with pytest.raises(ParseError) as info:
        parse_expr(past, ["x"])
    assert str(info.value) == f"expression nested deeper than {MAX_DEPTH} levels (offset {offset})"
    assert info.value.offset == offset


def test_eval_constant_refuses_a_constant_past_the_depth_bound():
    assert eval_constant("(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH) == 1.0
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels \\(offset {MAX_DEPTH}\\)"):
        eval_constant("(" * 300 + "1" + ")" * 300)


def test_eval_constant_names_the_node_that_leaves_the_float_range(tmp_path):
    """Literals are finite when parsed and every evaluated node is
    guarded, so a constant that overflows fails at its node, and a flag
    holding it is a usage error naming that node."""
    with pytest.raises(DomainError) as info:
        eval_constant("1e308*10")
    assert str(info.value) == "non-finite value from 1e+308 * 10.0"
    spec = str(Path(sikorski.__file__).parent / "specs" / "real_line_atan.spec")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["tangent", spec, "--point", "1e308*10", "--vector", "1", "--out", str(tmp_path)])
    assert (rc, err.getvalue()) == (2, "sikorski tangent: --point: non-finite value from 1e+308 * 10.0\n")
    assert list(tmp_path.iterdir()) == []


def test_every_walker_takes_a_tree_at_the_depth_bound():
    """A chain of divisions, whose derivative is three times as deep, and
    its composition with itself, twice as deep."""
    e = parse_expr("x" + "/x" * (MAX_DEPTH - 1), ["x"])
    composed = substitute(e, {"x": e})
    assert variables(composed) == frozenset({"x"})
    assert parse_expr(to_string(e), ["x"]) == e
    at = {"x": np.array([1.0, 1.01])}
    assert eval_array(composed, at)[0] == 1.0
    derivative = diff(e, "x")
    assert to_string(derivative).endswith(" / x^2")
    assert eval_array(derivative, at)[0] == pytest.approx(2.0 - MAX_DEPTH)


def test_eval_atan_of_one():
    assert eval_expr(Call("atan", Const(1.0)), {}) == 0.7853981633974483


def test_eval_square_at_three():
    assert eval_expr(Pow(Var("x"), 2), {"x": 3.0}) == 9.0


def test_tan_near_its_pole_raises():
    with pytest.raises(DomainError, match="tan singular"):
        eval_expr(parse_expr("tan(pi/2)"), {})


def test_domain_errors_from_partial_primitives():
    with pytest.raises(DomainError, match="log of non-positive"):
        eval_expr(Call("log", Const(0.0)), {})
    with pytest.raises(DomainError, match="log of non-positive"):
        eval_expr(Call("log", Const(-1.0)), {})
    with pytest.raises(DomainError, match="sqrt of negative"):
        eval_expr(Call("sqrt", Const(-1.0)), {})
    with pytest.raises(DomainError, match="division by zero"):
        eval_expr(parse_expr("1 / (x - x)", ["x"]), {"x": 4.0})
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        eval_expr(Pow(Const(0.0), -1), {})


def test_unbound_variable_is_a_domain_error():
    with pytest.raises(DomainError, match="unbound variable"):
        eval_expr(Var("x"), {})


def test_overflow_is_reported_not_returned():
    with pytest.raises(DomainError):
        eval_expr(Call("exp", Const(1000.0)), {})


def test_diff_square():
    """d(x^2)/dx at 3 is exactly 6."""
    d = diff(parse_expr("x^2", ["x"]), "x")
    assert eval_expr(d, {"x": 3.0}) == 6.0
    assert diff(parse_expr("x^0", ["x"]), "x") == Const(0.0)
    assert diff(parse_expr("x^1", ["x"]), "x") == Const(1.0)


def test_diff_atan():
    d = diff(Call("atan", Var("x")), "x")
    assert eval_expr(d, {"x": 1.0}) == 0.5
    assert eval_expr(diff(Call("sqrt", Var("x")), "x"), {"x": 4.0}) == 0.25


def test_diff_matches_central_difference():
    e = parse_expr("x * cos(tan(x))", ["x"])
    d = diff(e, "x")
    at = 0.5
    h = 1e-6
    fd = (eval_expr(e, {"x": at + h}) - eval_expr(e, {"x": at - h})) / (2 * h)
    sym = eval_expr(d, {"x": at})
    assert abs(sym - fd) <= 1e-8 * (1.0 + abs(sym))


def test_diff_of_absent_variable_is_zero():
    d = diff(parse_expr("y^3", ["y"]), "x")
    assert eval_expr(d, {}) == 0.0


def test_diff_abs_away_from_the_kink():
    d = diff(Call("abs", Var("x")), "x")
    assert eval_expr(d, {"x": -2.0}) == -1.0
    assert eval_expr(d, {"x": 3.0}) == 1.0


def test_diff_abs_at_zero_is_a_domain_error():
    d = diff(Call("abs", Var("x")), "x")
    with pytest.raises(DomainError, match="division by zero"):
        eval_expr(d, {"x": 0.0})


def test_bump_splice_has_no_second_derivative():
    once = diff(Call("bump1", Var("x")), "x")
    with pytest.raises(ExprError, match="second derivative"):
        diff(once, "x")


def test_variables_and_substitute():
    e = parse_expr("u1 + u2^2", ["u1", "u2"])
    assert variables(e) == frozenset({"u1", "u2"})
    swapped = substitute(e, {"u1": Var("a"), "u2": Const(3.0)})
    assert eval_expr(swapped, {"a": 1.0}) == 10.0


def test_to_string_round_trips_awkward_literals():
    for text in ("x - -3.0", "x^-2", "2 * -1.5", "1e+20 * x"):
        e = parse_expr(text, ["x"])
        assert parse_expr(to_string(e), ["x"]) == e


@given(st.integers(0, 10**9))
def test_to_string_parse_round_trip(seed):
    rng = random.Random(seed)
    e = random_expr(rng, ("x", "y"), 4)
    assert parse_expr(to_string(e), ("x", "y")) == e


@given(st.integers(0, 10**9), st.floats(-3.0, 3.0, allow_nan=False))
def test_derivative_is_additive(seed, at):
    """d(e1 + e2) evaluates to exactly de1 + de2: the sum rule is applied
    at tree level, so no rounding enters beyond the final addition."""
    rng = random.Random(seed)
    e1 = random_expr(rng, ("x",), 3)
    e2 = random_expr(rng, ("x",), 3)
    env = {"x": at}
    try:
        lhs = eval_expr(diff(BinOp("+", e1, e2), "x"), env)
        d1 = eval_expr(diff(e1, "x"), env)
        d2 = eval_expr(diff(e2, "x"), env)
    except DomainError:
        return
    assert lhs == d1 + d2


def scalar_batch(expr, env):
    """The per-sample loop that eval_array replaces."""
    names = list(env)
    return [eval_scalar(expr, dict(zip(names, row))) for row in zip(*(env[n] for n in names))]


def scalar_outcomes(expr, env):
    """The walker at each sample of the broadcast `env`, in flattened order:
    its value, its DomainError, or None where math refuses a non-finite
    argument (``sin(inf)``, ``bump1(nan)``) and so gives no verdict."""
    names = list(env)
    columns = np.broadcast_arrays(*(np.asarray(env[n], dtype=float) for n in names))
    out = []
    for row in zip(*(c.ravel().tolist() for c in columns)):
        try:
            out.append(eval_scalar(expr, dict(zip(names, row))))
        except DomainError as err:
            out.append(err)
        except (ValueError, ZeroDivisionError):
            out.append(None)
    return out


def wild_expr(rng, names, depth):
    """Random trees over the whole primitive set, domain holes and all."""
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.6:
            return Var(rng.choice(names))
        if roll < 0.9:
            return Const(rng.choice([0.0, 1.0, -2.0, 0.5, 1e200, 710.0, math.pi / 2]))
        return Const(rng.choice([math.inf, -math.inf]))
    roll = rng.random()
    if roll < 0.4:
        return BinOp(rng.choice("+-*/"), wild_expr(rng, names, depth - 1), wild_expr(rng, names, depth - 1))
    if roll < 0.8:
        return Call(rng.choice(UNARY_PRIMITIVES), wild_expr(rng, names, depth - 1))
    return Pow(wild_expr(rng, names, depth - 1), rng.choice((-2, -1, 2, 3)))


# zero, the infinities, nan, tan's poles, the splice's corners, overflow
_EDGE_SAMPLES = (0.0, -0.0, math.inf, -math.inf, math.nan, math.pi / 2, -math.pi / 2, 1.0, -2.0, 1e200, 710.0)
_SAMPLES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_EDGE_SAMPLES))


@given(
    st.integers(0, 10**9),
    st.lists(_SAMPLES, min_size=1, max_size=30),
    st.lists(_SAMPLES, min_size=1, max_size=5),
    st.sampled_from(["paired", "grid", "scalar"]),
)
# sin(atan(x^3) - -inf): x^3 is the first node to fire (at sample 1),
# but the subtraction fires at sample 0
@example(116, [0.0, math.inf], [0.0], "paired")
# abs(-inf)^3: abs passes -inf on, and the power reports a non-finite value
@example(113, [0.0], [0.0], "paired")
def test_eval_array_matches_the_scalar_oracle(seed, xs, ys, layout):
    rng = random.Random(seed)
    # now and then a name the environment leaves unbound
    e = wild_expr(rng, ("x", "y", "z") if rng.random() < 0.1 else ("x", "y"), 4)
    env = {
        "paired": {"x": np.array(xs), "y": np.array(xs[::-1])},
        "grid": {"x": np.array(xs)[:, None], "y": np.array(ys)},  # broadcast to 2-D
        "scalar": {"x": np.array(xs), "y": ys[0]},
    }[layout]
    assert_matches_the_walker(e, env)


def assert_matches_the_walker(e, env):
    """Sample by sample, eval_array gives the walker's value; where the
    walker raises, eval_array raises at the smallest such sample, with the
    walker's message and node, and that sample as its index."""
    expected = scalar_outcomes(e, env)
    try:
        got = eval_array(e, env)
    except DomainError as err:
        assert not any(isinstance(o, DomainError) for o in expected[: err.index])
        if expected[err.index] is not None:
            assert isinstance(expected[err.index], DomainError)
            assert str(err) == str(expected[err.index])
            assert err.node == expected[err.index].node
        return
    assert got.shape == np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    for a, b in zip(got.ravel().tolist(), expected):
        assert not isinstance(b, DomainError)
        if b is not None:
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) or (math.isnan(a) and math.isnan(b))


def node_objects(e):
    """The distinct node objects of a tree, shared subtrees counted once."""
    seen = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, field) for field in ("left", "right", "base", "arg") if hasattr(node, field))
    return seen


def test_eval_array_walks_each_node_object_once(monkeypatch):
    """A derivative holds its operands as shared subtrees; evaluation
    applies each operation and primitive once per node object, however
    many parents refer to it, and keeps no value past its last reader."""
    e = diff(parse_expr("sin(x)" + "/(x+2)" * 40, ["x"]), "x")
    applied = []
    for table in (expr_module._BINARY_OPS, expr_module._PRIMITIVES):
        for name, fn in list(table.items()):
            monkeypatch.setitem(table, name, lambda *args, fn=fn: applied.append(fn) or fn(*args))
    memos = []
    walk = expr_module._eval_node

    def first_call(node, env, failures, unread, memo):
        memos.append(memo)
        monkeypatch.setattr(expr_module, "_eval_node", walk)
        return walk(node, env, failures, unread, memo)

    monkeypatch.setattr(expr_module, "_eval_node", first_call)
    eval_array(e, {"x": np.array([0.5, 1.0, 1.5])})
    operations = [node for node in node_objects(e).values() if isinstance(node, (BinOp, Call))]
    assert len(applied) == len(operations) == 201
    # each shared value is dropped once its last parent has read it
    assert memos == [{}]
    # a parsed tree shares nothing, so no value outlives its parent
    assert expr_module._shared(parse_expr("x * sin(x) + x / (1 + x)", ["x"])) == {}
    # a node that two roots of one sweep hold is referred to twice
    s = Call("sin", Var("x"))
    assert expr_module._shared(BinOp("+", s, Const(1.0)), BinOp("*", s, Const(2.0))) == {id(s): 2}


def test_eval_columns_walks_a_node_two_columns_share_once(monkeypatch):
    calls = []
    sin = expr_module._PRIMITIVES["sin"]
    monkeypatch.setitem(expr_module._PRIMITIVES, "sin", lambda arg: calls.append(arg) or sin(arg))
    s = Call("sin", Var("x"))
    rows = np.array([[0.5], [1.0], [2.0]])
    got = eval_columns([BinOp("+", s, Const(1.0)), BinOp("*", s, Const(2.0))], ["x"], rows, ["a", "b"])
    assert len(calls) == 1
    assert got.tolist() == np.stack([np.sin(rows[:, 0]) + 1.0, np.sin(rows[:, 0]) * 2.0], axis=1).tolist()


def per_column_loop(exprs, names, rows, labels):
    """The loop eval_columns replaces: the walker at every row, and within
    a row at every column; or the first DomainError it meets, prefixed as
    eval_columns prefixes it, with the row's index."""
    out = []
    for index, row in enumerate(rows.tolist()):
        env = dict(zip(names, row))
        values = []
        for label, e in zip(labels, exprs):
            try:
                values.append(eval_scalar(e, env))
            except DomainError as err:
                return DomainError(f"{label} at {tuple(row)}: {err}", err.node, index)
        out.append(values)
    return out


def column_order_loop(exprs, names, rows, labels):
    """The walker down each column in turn, up to the first column where
    it raises: the values of the columns before that one, and None or the
    column's first DomainError, prefixed as eval_columns prefixes it, with
    the row's index."""
    columns = []
    for label, e in zip(labels, exprs):
        column = []
        for index, row in enumerate(rows.tolist()):
            try:
                column.append(eval_scalar(e, dict(zip(names, row))))
            except DomainError as err:
                return columns, DomainError(f"{label} at {tuple(row)}: {err}", err.node, index)
        columns.append(column)
    return columns, None


@given(
    st.integers(0, 10**9),
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0])), min_size=1, max_size=12),
)
# t vanishes at the first row: the power column meets the division first
@example(3, [1.0, 0.0])
# in reverse order the quotient fails at the second row, and the power
# column after it fails at the first, where u vanishes
@example(971456464, [1.0, 0.0])
def test_eval_columns_over_shared_trees_matches_a_per_column_loop(seed, xs):
    """Columns built on the same node objects give the walker's values, or
    the failure the loop meets first: the same label, row, message, node
    and index.  The quotient's division guard is noted under the power
    column, the first to reach it, and the column after reads it again.

    `sweep` hands back each column's first failure, which is exact up to
    the first failing column: that column's error, located by `at_row`,
    is the one a column-order loop meets first, no column before it
    fails, and their values are the walker's.  In reverse order the
    quotient comes first and fails only where t vanishes, while the
    power column after it also fails where u does, maybe at an earlier
    row."""
    rng = random.Random(seed)
    t, u = random_expr(rng, ("x", "y"), 3), random_expr(rng, ("x", "y"), 3)
    q = BinOp("/", u, t)
    exprs = [t, BinOp("*", t, u), Pow(q, -2), q]
    labels = ["t", "t * u", "(u / t)^-2", "u / t"]
    rows = np.array([xs, xs[::-1]]).T
    for order in (slice(None), slice(None, None, -1)):
        columns, first = column_order_loop(exprs[order], ("x", "y"), rows, labels[order])
        values, failures = sweep(exprs[order], dict(zip(("x", "y"), rows.T)))
        k = len(columns)
        assert failures[:k] == [None] * k
        if first is not None:
            got = failures[k].at_row(labels[order][k], rows)
            assert (str(got), got.node, got.index) == (str(first), first.node, first.index)
        for a, b in zip(values[:, :k].T.ravel().tolist(), [v for column in columns for v in column]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    expected = per_column_loop(exprs, ("x", "y"), rows, labels)
    if isinstance(expected, DomainError):
        with pytest.raises(DomainError) as err:
            eval_columns(exprs, ("x", "y"), rows, labels)
        assert (str(err.value), err.value.node, err.value.index) == (str(expected), expected.node, expected.index)
        return
    got = eval_columns(exprs, ("x", "y"), rows, labels)
    assert got.shape == (len(xs), len(exprs))
    for a, b in zip(got.ravel().tolist(), [v for values in expected for v in values]):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_a_shared_subtree_raises_what_the_walker_raises(seed):
    """The walker evaluates a shared subtree at every reference; eval_array
    walks it once, and raises the same error at the same sample."""
    rng = random.Random(seed)
    shared = wild_expr(rng, ("x", "y"), 3)
    other = wild_expr(rng, ("x", "y"), 2)
    e = BinOp(rng.choice("+-*/"), BinOp(rng.choice("+-*/"), other, shared), Call(rng.choice(UNARY_PRIMITIVES), shared))
    xs = [rng.choice(_EDGE_SAMPLES + (0.5, -1.5)) for _ in range(8)]
    assert_matches_the_walker(e, {"x": np.array(xs), "y": np.array(xs[::-1])})


def test_a_derivative_chain_raises_what_the_walker_raises():
    """At x = 1 the chain divides by zero, in operands that the
    derivative shares among many parents."""
    e = diff(parse_expr("x" + "/(x-1)" * 20, ["x"]), "x")
    assert len(node_objects(e)) == 159  # written out as a tree, 979 nodes
    env = {"x": np.array([0.5, 2.0, 1.0, 3.0])}
    with pytest.raises(DomainError) as err:
        eval_array(e, env)
    assert err.value.index == 2
    assert str(err.value) == "division by zero"
    assert_matches_the_walker(e, env)


def test_eval_array_splice_pieces_match_the_scalar_oracle():
    edges = []
    for t in (1.0, 2.0):
        edges += [t, np.nextafter(t, 1.5), np.nextafter(t, 0.0 if t == 1.0 else 3.0)]
    t = np.array(edges + [-v for v in edges] + [0.0, -0.0, 1.5, 1.9999, 3.0, -7.0])
    for func in ("bump1", "bump1d"):
        expr = Call(func, Var("t"))
        got = eval_array(expr, {"t": t})
        expected = scalar_batch(expr, {"t": t.tolist()})
        for a, b in zip(got.tolist(), expected):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    # the flat pieces are exact
    flat = eval_array(Call("bump1", Var("t")), {"t": np.array([-1.0, 0.0, 1.0, 2.0, -2.0, 5.0])})
    assert flat.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert not np.any(eval_array(Call("bump1d", Var("t")), {"t": np.array([-1.0, 1.0, 2.0, -3.0])}))


def test_eval_array_respects_the_tan_floor():
    e = Call("tan", Var("x"))
    near = math.pi / 2 - 4e-15  # |cos| just above the floor: finite, huge
    assert eval_array(e, {"x": np.array([0.5, near])}).tolist() == scalar_batch(e, {"x": [0.5, near]})
    with pytest.raises(DomainError, match="tan singular near 1.5707963267948966"):
        eval_array(e, {"x": np.array([0.5, math.pi / 2, near])})


def test_eval_array_reports_the_first_offending_sample():
    """log trips first in tree order, at sample 2; the scalar loop meets the
    sqrt failure of sample 1 first, and so must eval_array."""
    e = parse_expr("log(x) + sqrt(y)", ["x", "y"])
    env = {"x": [1.0, 1.0, -1.0], "y": [1.0, -1.0, 1.0]}
    with pytest.raises(DomainError) as err:
        scalar_batch(e, env)
    with pytest.raises(DomainError) as got:
        eval_array(e, {k: np.array(v) for k, v in env.items()})
    assert str(got.value) == str(err.value) == "sqrt of negative value -1.0"
    assert got.value.node == err.value.node == Call("sqrt", Var("y"))


def test_eval_array_reports_every_scalar_singularity():
    cases = [
        ("1 / (x - 1)", "division by zero"),
        ("(x - 1)^-2", "zero raised to a negative power"),
        ("log(x - 1)", "log of non-positive value"),
        ("sqrt(1 - x)", "sqrt of negative value"),
        ("exp(x * 1000)", "overflow in exp"),
        ("(x * 1e200)^2", "overflow in power"),
        ("x * 1e308 * 10", "non-finite value"),
    ]
    xs = np.array([0.5, 1.0, 2.0])
    for text, message in cases:
        e = parse_expr(text, ["x"])
        with pytest.raises(DomainError, match=message):
            eval_array(e, {"x": xs})


def test_domain_errors_carry_the_flattened_sample_index():
    e = parse_expr("log(x + y)", ["x", "y"])
    # x + y is [[3, 1.5], [2, 0.5], [1, -0.5]]: row-major, the sixth sample
    with pytest.raises(DomainError) as err:
        eval_array(e, {"x": np.array([[3.0], [2.0], [1.0]]), "y": np.array([0.0, -1.5])})
    assert err.value.index == 5
    assert str(err.value) == "log of non-positive value -0.5"
    with pytest.raises(DomainError) as err:
        eval_expr(e, {"x": 1.0, "y": -1.5})
    assert err.value.index == 0


def test_eval_array_broadcasts_constants_and_scalars():
    assert eval_array(parse_expr("2 * pi"), {}).shape == ()
    got = eval_array(parse_expr("x + y", ["x", "y"]), {"x": np.arange(3.0), "y": 0.5})
    assert got.tolist() == [0.5, 1.5, 2.5]
    assert eval_array(Const(3.0), {"x": np.zeros(4)}).tolist() == [3.0] * 4


def test_domain_messages_show_a_python_float():
    """numpy's own repr of a sample reads ``np.float64(x)``; the messages
    show the float as Python prints it, at one sample and in a 2-D sweep."""
    cases = [
        ("tan(x)", math.pi / 2, "tan singular near 1.5707963267948966"),
        ("log(x)", -0.5, "log of non-positive value -0.5"),
        ("sqrt(x)", -2.0, "sqrt of negative value -2.0"),
    ]
    for text, at, message in cases:
        e = parse_expr(text, ["x"])
        with pytest.raises(DomainError) as err:
            eval_expr(e, {"x": at})
        assert str(err.value) == message
        assert err.value.index == 0
        with pytest.raises(DomainError) as err:
            eval_array(e, {"x": np.array([[1.0, 1.0], [1.0, at]])})
        assert str(err.value) == message
        assert err.value.index == 3
