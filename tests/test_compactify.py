import math
from pathlib import Path

import numpy as np
import pytest

import sikorski
from sikorski import specfile
from sikorski import compactify as compactify_module
from sikorski import expr as expr_module
from sikorski.compactify import (
    NormalizedGenerator,
    boundize,
    bump,
    compactify,
    normalize,
)
from sikorski.completion import maximal_family
from sikorski.expr import Call, DomainError, Var, diff, eval_expr, parse_expr
from sikorski.space import (
    DiffSpace,
    Generator,
    GeneratorFamily,
    SmoothFunction,
    embed,
)
from sikorski.uniform import Probe
from spaces import line_space


def test_splice_values_on_and_off_the_cubes():
    eta = bump((0.0,), ("u",))
    assert eval_expr(eta, {"u": 0.0}) == 1.0
    assert eval_expr(eta, {"u": 1.0}) == 1.0
    assert eval_expr(eta, {"u": -1.0}) == 1.0
    assert eval_expr(eta, {"u": 2.5}) == 0.0
    assert eval_expr(eta, {"u": -3.0}) == 0.0
    mid = eval_expr(eta, {"u": 1.5})
    assert mid == 0.5
    for u in (1.1, 1.3, 1.7, 1.9):
        v = eval_expr(eta, {"u": u})
        assert 0.0 < v < 1.0
        assert eval_expr(eta, {"u": -u}) == v


def test_splice_is_monotone_on_the_shoulder():
    eta = bump((0.0,), ("u",))
    values = [eval_expr(eta, {"u": 1.0 + k * 0.05}) for k in range(21)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_splice_derivative_matches_finite_differences():
    eta = bump((0.0,), ("u",))
    d = diff(eta, "u")
    h = 1e-6
    for at in (0.5, 1.2, 1.5, 1.8, 2.3):
        fd = (eval_expr(eta, {"u": at + h}) - eval_expr(eta, {"u": at - h})) / (2 * h)
        sym = eval_expr(d, {"u": at})
        assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym))
    # flat on both sides of the gluing points
    assert eval_expr(d, {"u": 0.9}) == 0.0
    assert eval_expr(d, {"u": 2.1}) == 0.0


def test_two_axis_bump_is_a_product():
    eta = bump((0.0, 3.0), ("u", "v"))
    one_d = bump((0.0,), ("u",))
    for u, v in ((0.0, 3.0), (1.5, 3.0), (0.5, 4.5), (1.5, 4.5)):
        expected = eval_expr(one_d, {"u": u}) * eval_expr(one_d, {"u": v - 3.0})
        assert eval_expr(eta, {"u": u, "v": v}) == pytest.approx(expected, abs=1e-15)


def test_bump_validates_its_cubes():
    with pytest.raises(ValueError, match="one variable per cube axis"):
        bump((0.0, 0.0), ("u",))


INTEGER_SLAB = line_space(-5.0, 5.0, 11, [("f", "x"), ("g", "x^2")])
IDENTITY = SmoothFunction(Var("u1"), ("f",))


def test_bounded_replacement_at_the_origin():
    out = boundize(INTEGER_SLAB, IDENTITY, (0.0,))
    assert out.mus == (2.0,)
    assert out.center == (0.0,)
    assert out.max_abs_gamma == (0.5,)
    assert out.local_residual == 0.0
    assert out.local_sample_count == 1
    env = {"x": 1.0}
    assert eval_expr(out.gammas[0], env) == 0.5
    assert eval_expr(out.gammas[0], {"x": 3.0}) == 0.0


def test_boundize_refuses_a_point_of_another_dimension():
    """A point binds the ambient coordinates one to one: a stray
    coordinate is refused, not dropped."""
    for point in ((0.5, 99.0), ()):
        with pytest.raises(ValueError, match="point lives in a different ambient space"):
            boundize(INTEGER_SLAB, IDENTITY, point)


def test_scale_tracks_the_center():
    for m, expected in ((-3.0, 5.0), (0.0, 2.0), (5.0, 7.0)):
        out = boundize(INTEGER_SLAB, IDENTITY, (m,))
        assert out.mus == (expected,)
        assert max(out.max_abs_gamma) <= 1.0
        assert out.local_residual <= 1e-9


def test_rebuilt_witness_uses_rescaled_arguments():
    out = boundize(INTEGER_SLAB, IDENTITY, (0.0,))
    # omega1(u) = omega(mu * u), so feeding gamma recovers f on the inner cube
    assert eval_expr(out.omega1, {"u1": 0.25}) == 0.5


def test_boundize_through_a_two_generator_witness():
    total = SmoothFunction(parse_expr("u1 + u2", ["u1", "u2"]), ("f", "g"))
    out = boundize(INTEGER_SLAB, total, (0.0,))
    assert out.mus == (2.0, 2.0)
    assert out.local_residual <= 1e-9
    assert max(out.max_abs_gamma) <= 1.0
    eta_at = eval_expr(out.eta, {"x": 1.0})
    assert eta_at == eval_expr(Call("bump1", Var("t")), {"t": 1.0}) ** 2


def test_sweep_errors_name_the_expression_and_the_sample():
    space = line_space(-3.0, 3.0, 7, [("f", "1 / (x - 1)")])
    with pytest.raises(DomainError) as err:
        boundize(space, SmoothFunction.of_generator("f"), (0.0,))
    assert err.value.index == 4
    assert str(err.value) == "bounded generator f at (1.0,): division by zero"
    with pytest.raises(DomainError) as err:
        normalize(space)
    assert err.value.index == 4
    assert str(err.value) == "generator f at (1.0,): division by zero"
    # the witness is checked on the local samples 1100 and 1101 only; the
    # index still counts every sample
    real_line = specfile.load_spec(str(Path(sikorski.__file__).parent / "specs" / "real_line_atan.spec")).space
    with pytest.raises(DomainError) as err:
        boundize(real_line, SmoothFunction(parse_expr("log(u1)", ["u1"]), ("f",)), (0.5,))
    assert err.value.index == 1100
    assert str(err.value) == "witness log(u1) at (0.0,): log of non-positive value 0.0"


def test_normalize_divides_by_the_sampled_sup():
    space = line_space(-2.0, 2.0, 41, [("f", "x")])
    (ng,) = normalize(space)
    assert ng.sup == 2.0
    assert eval_expr(ng.expr, {"x": 1.0}) == 0.5
    assert ng.argmax_index == 0


def test_normalize_accepts_a_flattening_generator():
    slab = line_space(-1100.0, 1100.0, 2201, [("a", "atan(x)")], lo_open=True, hi_open=True)
    (ng,) = normalize(slab)
    assert abs(ng.sup - math.pi / 2) < 1e-3
    assert abs(eval_expr(ng.expr, {"x": 1.0}) - 0.5) < 1e-3


def test_normalize_rejects_divergence_into_an_open_end():
    slab = line_space(-1100.0, 1100.0, 2201, [("f", "x")], lo_open=True, hi_open=True)
    with pytest.raises(ValueError, match="diverges toward"):
        normalize(slab)


def test_closed_boundary_maxima_are_genuine():
    """On a closed box the boundary sample belongs to the carrier, so a
    growing profile is just a generator peaking at the edge."""
    space = line_space(0.0, 10.0, 21, [("f", "x")])
    (ng,) = normalize(space)
    assert ng.sup == 10.0


def test_normalize_rejects_the_zero_generator():
    space = line_space(-1.0, 1.0, 11, [("z", "x - x")])
    with pytest.raises(ValueError, match="identically zero"):
        normalize(space)


def test_renormalizing_keeps_the_argmax():
    space = line_space(-2.0, 2.0, 41, [("f", "x^3 - x")])
    (first,) = normalize(space)
    rescaled = DiffSpace(space.carrier, GeneratorFamily((Generator("f", first.expr),)))
    (second,) = normalize(rescaled)
    assert second.argmax_index == first.argmax_index
    assert second.sup == pytest.approx(1.0, abs=1e-12)


def test_normalize_matches_the_embedding_column_by_column():
    """Every bundled generator that normalizes gets the sup and the first
    argmax of its column of |embed(space).coords|, in one sweep."""
    checked = 0
    for path in sorted((Path(sikorski.__file__).parent / "specs").glob("*.spec")):
        space = specfile.load_spec(str(path)).space
        names = []
        for name in space.family.names:
            try:
                normalize(space.with_generators([name]))
            except (ValueError, DomainError):
                continue
            names.append(name)
        if not names:
            continue
        sub = space.with_generators(names)
        values = np.abs(embed(sub).coords)
        normalized = normalize(sub)
        assert tuple(ng.name for ng in normalized) == sub.family.names
        for column, ng in zip(values.T, normalized):
            assert ng.sup == column.max()
            assert ng.argmax_index == int(np.argmax(column))
        checked += len(names)
    assert checked == 8


def test_normalize_walks_a_node_the_generators_share_once(monkeypatch):
    """The monomials of a maximal family hold its base generators' trees,
    and one sweep of the family walks each tan of the spiral once."""
    calls = []
    tan = expr_module._PRIMITIVES["tan"]
    monkeypatch.setitem(expr_module._PRIMITIVES, "tan", lambda arg: calls.append(arg) or tan(arg))
    spiral = specfile.load_spec(str(Path(sikorski.__file__).parent / "specs" / "spiral.spec")).space
    space = DiffSpace(spiral.carrier, maximal_family(spiral.with_generators(["a", "b"]).family, 2))
    normalized = normalize(space)
    assert [ng.name for ng in normalized] == ["a", "b", "a^2", "a*b", "b^2"]
    assert len(calls) == 2


def test_compactify_rechecks_the_unit_bound_on_the_samples(monkeypatch):
    liar = line_space(-3.0, 3.0, 13, [("f", "x")])
    # a normalization that leaves the generator unscaled
    monkeypatch.setattr(
        compactify_module, "normalize", lambda space: (NormalizedGenerator("f", Var("x"), 1.0, 0),)
    )
    with pytest.raises(ValueError, match=r"generator f exceeds its unit bound at \(-3.0,\): -3.0"):
        compactify(liar, [])


def test_compactified_arc_lands_just_inside_the_unit_interval():
    slab = line_space(-1100.0, 1100.0, 2201, [("a", "(2/pi) * atan(x)")])
    plus = Probe("plus", Var("n"), 1, 1050)
    minus = Probe("minus", parse_expr("-n", ["n"]), 1, 1050)
    _, cs = compactify(slab, [plus, minus], tol=1e-3, tail=50)
    assert [a.probe for a in cs.adjoined] == ["plus", "minus"]
    for a, sign in zip(cs.adjoined, (1.0, -1.0)):
        assert abs(a.coords[0] - sign) < 1e-3
        assert abs(a.coords[0]) <= 1.0
    for coords in cs.all_coords():
        assert abs(coords[0]) <= 1.0


def test_compact_carrier_gains_nothing():
    space = line_space(0.0, 1.0, 101, [("g", "x")])
    low = Probe("low", parse_expr("exp(-n)", ["n"]), 1, 100)
    high = Probe("high", parse_expr("1 - exp(-n)", ["n"]), 1, 100)
    _, cs = compactify(space, [low, high], tol=1e-6, tail=50)
    assert cs.adjoined == ()
    assert cs.duplicates == ("low", "high")
    assert all(abs(c[0]) <= 1.0 for c in cs.all_coords())
