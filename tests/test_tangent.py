import math
import random

import pytest
from hypothesis import given, strategies as st

from sikorski.expr import Var, diff, eval_expr, parse_expr
from sikorski.space import (
    Carrier,
    DiffSpace,
    Generator,
    GeneratorFamily,
    Interval,
    SmoothFunction,
    SmoothMapWitness,
    eval_smooth,
)
from sikorski.tangent import (
    TangentVector,
    apply,
    chain_rule_check,
    leibniz_check,
    tangent_map,
)

from exprgen import finite_small, random_expr


def plane_space():
    carrier = Carrier(
        params=("s", "t"),
        box=(Interval(-4.0, 4.0), Interval(-4.0, 4.0)),
        ambient=("x", "y"),
        chart=(Var("s"), Var("t")),
        counts=(5, 5),
    )
    family = GeneratorFamily(
        (
            Generator("p", Var("x")),
            Generator("q", Var("y")),
            Generator("h", parse_expr("x * y", ["x", "y"])),
        )
    )
    return DiffSpace(carrier, family)


def line_space(gens):
    carrier = Carrier(
        params=("t",),
        box=(Interval(-5.0, 5.0),),
        ambient=("x",),
        chart=(Var("t"),),
        counts=(11,),
    )
    family = GeneratorFamily(tuple(Generator(n, parse_expr(e, ["x"])) for n, e in gens))
    return DiffSpace(carrier, family)


PLANE = plane_space()
LINE = line_space([("f", "x"), ("g", "x^2")])


def test_directional_derivative_of_the_square():
    v = TangentVector((2.0,), (1.0,))
    square = SmoothFunction(parse_expr("u1^2", ["u1"]), ("f",))
    assert apply(LINE, v, square) == 4.0


def test_zero_vector_kills_everything():
    v = TangentVector((2.0,), (0.0,))
    for name in LINE.family.names:
        assert apply(LINE, v, SmoothFunction.of_generator(name)) == 0.0


def test_mixed_direction_on_the_product():
    v = TangentVector((1.0, 1.0), (1.0, 2.0))
    value = apply(PLANE, v, SmoothFunction.of_generator("h"))
    assert value == 3.0
    composed = parse_expr("x * y", ["x", "y"])
    h = 1e-6
    fd = (
        eval_expr(composed, {"x": 1.0 + h, "y": 1.0 + 2 * h})
        - eval_expr(composed, {"x": 1.0 - h, "y": 1.0 - 2 * h})
    ) / (2 * h)
    assert abs(value - fd) <= 1e-8


def test_vector_dimension_is_checked():
    with pytest.raises(ValueError, match="different ambient"):
        apply(PLANE, TangentVector((1.0,), (1.0,)), SmoothFunction.of_generator("p"))
    with pytest.raises(ValueError, match="coefficients must match"):
        TangentVector((1.0, 2.0), (1.0,))


def test_differential_of_constants_and_coordinates():
    """df(v) is apply(space, v, f): zero on constants, and the coordinate
    reading of the vector on a generator."""
    v = TangentVector((1.0, 2.0), (3.0, 4.0))
    const = SmoothFunction(parse_expr("2.5"), ())
    assert apply(PLANE, v, const) == 0.0
    assert apply(PLANE, v, SmoothFunction.of_generator("p")) == 3.0
    assert apply(PLANE, v, SmoothFunction.of_generator("q")) == 4.0


def test_product_rule_on_the_square():
    v = TangentVector((2.0,), (1.0,))
    ident = SmoothFunction.of_generator("f")
    assert leibniz_check(LINE, v, ident, ident)[0] == 0.0
    # v(x * x) = 4 decomposes as 2 + 2
    assert apply(LINE, v, SmoothFunction(parse_expr("u1 * u2", ["u1", "u2"]), ("f", "f"))) == 4.0


def test_product_rule_with_a_constant_factor():
    v = TangentVector((1.5,), (1.0,))
    const = SmoothFunction(parse_expr("3.0"), ())
    ident = SmoothFunction.of_generator("f")
    assert leibniz_check(LINE, v, const, ident)[0] == 0.0


def test_product_rule_residuals_stay_at_rounding_scale():
    rng = random.Random(20240817)
    checked = 0
    while checked < 60:
        f = SmoothFunction(random_expr(rng, ("u1", "u2"), 3), ("p", "q"))
        g = SmoothFunction(random_expr(rng, ("u1", "u2"), 3), ("p", "q"))
        v = TangentVector((rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7)), (rng.uniform(-2, 2), rng.uniform(-2, 2)))
        try:
            fm = eval_smooth(PLANE, f, v.point)
            gm = eval_smooth(PLANE, g, v.point)
            vf = apply(PLANE, v, f)
            vg = apply(PLANE, v, g)
            residual, _ = leibniz_check(PLANE, v, f, g)
        except Exception:
            continue
        if not finite_small(fm, gm, vf, vg):
            continue
        scale = 1.0 + abs(fm * vg) + abs(gm * vf)
        assert residual <= 1e-12 * scale
        checked += 1


def square_first_map():
    target = plane_space()
    return SmoothMapWitness(
        target=target,
        components=(parse_expr("x^2", ["x", "y"]), Var("y")),
        witnesses={
            "p": SmoothFunction(parse_expr("u1^2", ["u1"]), ("p",)),
            "q": SmoothFunction(Var("u1"), ("q",)),
            "h": SmoothFunction(parse_expr("u1^2 * u2", ["u1", "u2"]), ("p", "q")),
        },
    )


def test_pushforward_through_the_squaring_map():
    w = square_first_map()
    v = TangentVector((3.0, 4.0), (1.0, 0.0))
    pushed = tangent_map(PLANE, w, v)
    assert pushed.point == (9.0, 4.0)
    assert pushed.coeffs == (6.0, 0.0)


def test_identity_and_constant_pushforwards():
    ident = SmoothMapWitness(
        target=PLANE,
        components=(Var("x"), Var("y")),
        witnesses={n: SmoothFunction.of_generator(n) for n in PLANE.family.names},
    )
    v = TangentVector((1.0, 2.0), (3.0, -1.0))
    pushed = tangent_map(PLANE, ident, v)
    assert pushed.point == v.point
    assert pushed.coeffs == v.coeffs

    frozen = SmoothMapWitness(
        target=LINE,
        components=(parse_expr("2.0", ["x", "y"]),),
        witnesses={
            "f": SmoothFunction(parse_expr("2 + 0 * u1", ["u1"]), ("p",)),
            "g": SmoothFunction(parse_expr("4 + 0 * u1", ["u1"]), ("p",)),
        },
    )
    squashed = tangent_map(PLANE, frozen, v)
    assert squashed.point == (2.0,)
    assert squashed.coeffs == (0.0,)


def test_base_point_law_holds_by_construction():
    w = square_first_map()
    for point in ((3.0, 4.0), (-1.0, 0.5), (0.0, 0.0)):
        v = TangentVector(point, (1.0, 1.0))
        pushed = tangent_map(PLANE, w, v)
        assert pushed.point == w.image_point(PLANE, point)


def test_chain_rule_on_the_first_projection():
    w = square_first_map()
    v = TangentVector((3.0, 4.0), (1.0, 0.0))
    beta = SmoothFunction.of_generator("p")
    assert apply(w.target, tangent_map(PLANE, w, v), beta) == 6.0
    assert chain_rule_check(PLANE, w, v, beta)[0] == 0.0


def test_chain_rule_degenerate_cases():
    w = square_first_map()
    v = TangentVector((3.0, 4.0), (1.0, 2.0))
    const = SmoothFunction(parse_expr("7.0"), ())
    assert chain_rule_check(PLANE, w, v, const)[0] == 0.0
    ident = SmoothMapWitness(
        target=PLANE,
        components=(Var("x"), Var("y")),
        witnesses={n: SmoothFunction.of_generator(n) for n in PLANE.family.names},
    )
    beta = SmoothFunction.of_generator("h")
    assert chain_rule_check(PLANE, ident, v, beta)[0] == 0.0


def test_checks_return_the_scale_they_are_judged_by():
    p, q, h = (SmoothFunction.of_generator(n) for n in ("p", "q", "h"))
    # 1 + |p(m) v(q)| + |q(m) v(p)| = 1 + |3 * -2| + |4 * 1|
    assert leibniz_check(PLANE, TangentVector((3.0, 4.0), (1.0, -2.0)), p, q) == (0.0, 11.0)
    # TF(v) has coefficients (-6, 2) at (9, 4), so d h(TF(v)) = 4 * -6 + 9 * 2
    v = TangentVector((3.0, 4.0), (-1.0, 2.0))
    assert chain_rule_check(PLANE, square_first_map(), v, h) == (0.0, 7.0)


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_linearity_over_the_coordinate_directions(a, b):
    """Combining the two axis directions commutes with apply exactly: both
    sides perform the same multiplications in the same order."""
    h = SmoothFunction.of_generator("h")
    at = (1.25, -0.75)
    ex = TangentVector(at, (1.0, 0.0))
    ey = TangentVector(at, (0.0, 1.0))
    mixed = TangentVector(at, (float(a), float(b)))
    assert apply(PLANE, mixed, h) == float(a) * apply(PLANE, ex, h) + float(b) * apply(PLANE, ey, h)


def test_chart_directions_reproduce_parameter_derivatives():
    carrier = Carrier(
        params=("t",),
        box=(Interval(0.1, 1.4),),
        ambient=("x", "y"),
        chart=(parse_expr("cos(t)", ["t"]), parse_expr("sin(t)", ["t"])),
        counts=(9,),
    )
    family = GeneratorFamily(
        (
            Generator("p", Var("x")),
            Generator("h", parse_expr("x * y^2", ["x", "y"])),
        )
    )
    space = DiffSpace(carrier, family)
    t0 = 0.7
    column = tuple(eval_expr(diff(comp, "t"), {"t": t0}) for comp in carrier.chart)
    v = TangentVector(carrier.chart_point((t0,)), column)
    for name in family.names:
        gen_expr = family.get(name).expr

        def along(t):
            px, py = carrier.chart_point((t,))
            return eval_expr(gen_expr, {"x": px, "y": py})

        h = 1e-3
        fd = (-along(t0 + 2 * h) + 8 * along(t0 + h) - 8 * along(t0 - h) + along(t0 - 2 * h)) / (12 * h)
        sym = apply(space, v, SmoothFunction.of_generator(name))
        assert abs(sym - fd) <= 1e-10 * (1.0 + abs(sym))
