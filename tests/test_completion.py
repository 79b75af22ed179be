import math

import numpy as np
import pytest

from sikorski.cli import _completeness_line
from sikorski.completion import DEDUP_TOL, complete, iota, maximal_family
from sikorski.expr import Var, parse_expr
from sikorski.space import Generator, GeneratorFamily
from sikorski.uniform import Probe
from spaces import line_space


SLAB = line_space(-1100.0, 1100.0, 2201, [("f", "x"), ("g", "atan(x)")])
PLUS = Probe("pplus", Var("n"), 1, 1050)
MINUS = Probe("pminus", parse_expr("-n", ["n"]), 1, 1050)


def test_arc_family_gains_two_horizon_points():
    cs = complete(SLAB.with_generators(["g"]), [PLUS, MINUS], tol=1e-3, tail=50)
    assert [a.probe for a in cs.adjoined] == ["pplus", "pminus"]
    assert cs.adjoined[0].coords == (1.5698209998564814,)
    assert cs.adjoined[1].coords == (-1.5698209998564814,)
    for a in cs.adjoined:
        assert abs(abs(a.coords[0]) - math.pi / 2) < 1e-3
    assert all(v.max_oscillation() <= 1e-3 for v in cs.verdicts)
    assert cs.duplicates == ()


def test_coordinate_family_gains_nothing():
    cs = complete(SLAB.with_generators(["f"]), [PLUS, MINUS], tol=1e-3, tail=50)
    assert cs.adjoined == ()
    assert [v.status for v in cs.verdicts] == ["escaping", "escaping"]


def test_constant_probe_limit_is_deduplicated():
    space = line_space(0.0, 10.0, 11, [("f", "x")])
    const = Probe("sit", parse_expr("3 + n - n", ["n"]), 1, 100)
    cs = complete(space, [const], tol=1e-6, tail=20)
    assert cs.adjoined == ()
    assert cs.duplicates == ("sit",)


def test_two_probes_with_one_limit_adjoin_once():
    space = line_space(0.001, 2.0, 50, [("f", "x")], inset=0.0)
    low_a = Probe("a", parse_expr("1/n", ["n"]), 1, 1000)
    low_b = Probe("b", parse_expr("1/n", ["n"]), 1, 1000)
    cs = complete(space, [low_a, low_b], tol=1e-3, tail=50)
    assert [a.probe for a in cs.adjoined] == ["a"]
    assert cs.duplicates == ("b",)


def test_duplicate_probe_names_rejected():
    with pytest.raises(ValueError, match="duplicate probe names"):
        complete(SLAB, [PLUS, Probe("pplus", Var("n"))], tol=1e-3)


def test_iota_onto_itself_is_the_identity():
    cs = complete(SLAB.with_generators(["g"]), [PLUS, MINUS], tol=1e-3, tail=50)
    rep = iota(cs, cs)
    assert rep.max_residual() == 0.0
    assert rep.uncovered == ()
    assert np.array_equal(rep.base, cs.base.coords)
    assert [(e.source, e.target) for e in rep.entries] == [
        ("adjoined:pplus", "adjoined:pplus"),
        ("adjoined:pminus", "adjoined:pminus"),
    ]


def test_iota_flags_points_outside_its_image():
    """Both probes escape once the raw coordinate joins the family, so the
    map from the larger completion misses the two arc-limit points."""
    cs_full = complete(SLAB, [PLUS, MINUS], tol=1e-3, tail=50)
    cs_sub = complete(SLAB.with_generators(["g"]), [PLUS, MINUS], tol=1e-3, tail=50)
    rep = iota(cs_full, cs_sub)
    assert cs_full.names == ("f", "g")
    assert rep.sub_names == ("g",)
    assert rep.max_residual() == 0.0
    assert rep.uncovered == ("pplus", "pminus")
    assert rep.entries == ()


def test_iota_base_points_project_exactly():
    cs_full = complete(SLAB, [PLUS, MINUS], tol=1e-3, tail=50)
    cs_sub = complete(SLAB.with_generators(["g"]), [PLUS, MINUS], tol=1e-3, tail=50)
    rep = iota(cs_full, cs_sub)
    assert np.array_equal(rep.base, cs_full.base.coords[:, [1]])


def test_iota_sends_a_limit_realized_by_a_sample_to_that_sample():
    """-0.9 is sampled and 0.9 is not: over (f, g) the constant probe at 0.9
    adjoins a point, while over g alone its limit 0.81 is the sample -0.9."""
    space = line_space(-0.9, 1.0, 2, [("f", "x"), ("g", "x^2")])
    probe = Probe("p", parse_expr("0.9 + 0*n", ["n"]), 1, 100)
    cs_full = complete(space, [probe], tol=1e-3, tail=50)
    cs_sub = complete(space.with_generators(["g"]), [probe], tol=1e-3, tail=50)
    assert [a.probe for a in cs_full.adjoined] == ["p"]
    assert cs_sub.duplicates == ("p",)
    rep = iota(cs_full, cs_sub)
    assert [(e.source, e.target, e.coords) for e in rep.entries] == [("adjoined:p", "base:0", (0.9 * 0.9,))]
    assert rep.max_residual() == 0.0
    assert rep.uncovered == ()


def test_iota_sends_a_limit_realized_by_an_earlier_probe_to_that_point():
    """On (0, 1), f = x*(1-x) tends to 0 at both ends: over (f, g) the
    probes 1/n and 1 - 1/n adjoin two points, while over f alone q's limit
    is p's adjoined point, up to the rounding of the two tail means."""
    space = line_space(0.0, 1.0, 101, [("f", "x*(1-x)"), ("g", "x")], lo_open=True, hi_open=True)
    p = Probe("p", parse_expr("1/n", ["n"]), 1, 1000)
    q = Probe("q", parse_expr("1 - 1/n", ["n"]), 1, 1000)
    cs_full = complete(space, [p, q], tol=1e-3)
    cs_sub = complete(space.with_generators(["f"]), [p, q], tol=1e-3)
    assert [a.probe for a in cs_full.adjoined] == ["p", "q"]
    assert ([a.probe for a in cs_sub.adjoined], cs_sub.duplicates) == (["p"], ("q",))
    rep = iota(cs_full, cs_sub)
    assert [(e.source, e.target) for e in rep.entries] == [("adjoined:p", "adjoined:p"), ("adjoined:q", "adjoined:p")]
    assert rep.max_residual() < 1e-17
    assert rep.uncovered == ()


def test_iota_refuses_a_limit_with_no_target():
    """Over f alone, without the probe, no point lies near the projection
    of p's adjoined point: the completions were run with different probes."""
    space = line_space(0.0, 1.0, 101, [("f", "x*(1-x)"), ("g", "x")], lo_open=True, hi_open=True)
    p = Probe("p", parse_expr("1/n", ["n"]), 1, 1000)
    cs_full = complete(space, [p], tol=1e-3)
    cs_sub = complete(space.with_generators(["f"]), [], tol=1e-3)
    assert [a.probe for a in cs_full.adjoined] == ["p"]
    with pytest.raises(ValueError, match="^no target for probe p: run both completions with the same probes$"):
        iota(cs_full, cs_sub)


def test_iota_requires_one_sample_cloud():
    cs_full = complete(line_space(0.0, 1.0, 11, [("f", "x"), ("g", "x^2")]), [], tol=1e-3)
    cs_sub = complete(line_space(0.0, 1.0, 12, [("g", "x^2")]), [], tol=1e-3)
    with pytest.raises(ValueError, match="^completions were built over different sample clouds$"):
        iota(cs_full, cs_sub)


def test_iota_requires_a_subfamily():
    cs_sub = complete(SLAB.with_generators(["g"]), [PLUS, MINUS], tol=1e-3, tail=50)
    cs_f = complete(SLAB.with_generators(["f"]), [PLUS, MINUS], tol=1e-3, tail=50)
    with pytest.raises(ValueError, match="not contained"):
        iota(cs_f, cs_sub)


def test_iota_composes_transitively():
    space = line_space(
        -1100.0,
        1100.0,
        2201,
        [("g", "atan(x)"), ("h", "atan(x)^2"), ("k", "atan(x)^3")],
    )
    probes = [PLUS, MINUS]
    cs_k = complete(space, probes, tol=1e-3, tail=50)
    cs_h = complete(space.with_generators(["g", "h"]), probes, tol=1e-3, tail=50)
    cs_g = complete(space.with_generators(["g"]), probes, tol=1e-3, tail=50)
    second_step = iota(cs_h, cs_g)
    via_h = {e.source: e for e in second_step.entries}
    direct = iota(cs_k, cs_g)
    step_one = iota(cs_k, cs_h)
    # base points: projecting onto (g, h) and then onto g is projecting onto g
    assert np.array_equal(step_one.base[:, [0]], direct.base)
    assert np.array_equal(second_step.base, direct.base)
    assert len(step_one.entries) == len(direct.entries)
    for first, straight in zip(step_one.entries, direct.entries):
        second = via_h[first.target]
        assert second.coords == straight.coords
        assert second.target == straight.target


def test_open_end_defeats_the_completeness_hypothesis():
    space = line_space(0.0, 1.0, 101, [("f", "x")], lo_open=True, hi_open=True, inset=0.01)
    low = Probe("low", parse_expr("1/n", ["n"]), 1, 100000)
    cs = complete(space, [low], tol=1e-3, tail=50)
    assert [v.status for v in cs.verdicts] == ["cauchy"]
    # the limit, about 1e-5, is a whole inset short of the first sample, 0.01
    assert _completeness_line(cs) == (
        "complete over f: no (probe low, 0.0099899975491911999 from the nearest sample)"
    )


def test_closed_carrier_realizes_boundary_limits():
    """The probes still move by 4.9e-9 and 9.8e-9 over their tails, more
    than DEDUP_TOL, so both adjoin a point, and the line says so: the
    tail mean of `1/n` lies 1.0002e-05 from sample 0.  Probes that have
    settled land on samples 0 and 1, and the carrier reads complete."""
    space = line_space(0.0, 1.0, 101, [("f", "x"), ("g", "x^2")])
    low = Probe("low", parse_expr("1/n", ["n"]), 1, 100000)
    high = Probe("high", parse_expr("1 - 1/n", ["n"]), 1, 100000)
    cs = complete(space, [low, high], tol=1e-3, tail=50)
    assert [a.probe for a in cs.adjoined] == ["low", "high"]
    assert cs.verdicts[0].max_oscillation() > DEDUP_TOL
    assert _completeness_line(cs) == (
        "complete over f,g: no (probe low, 1.0002450808800246e-05 from the nearest sample)"
    )
    fast_low = Probe("low", parse_expr("exp(-n)", ["n"]), 1, 100)
    fast_high = Probe("high", parse_expr("1 - exp(-n)", ["n"]), 1, 100)
    cs = complete(space, [fast_low, fast_high], tol=1e-3, tail=50)
    assert cs.adjoined == ()
    assert cs.duplicates == ("low", "high")
    assert _completeness_line(cs) == "complete over f,g: yes"


def test_escaping_probes_never_contradict_completeness():
    cs = complete(SLAB, [PLUS], tol=1e-3, tail=50)
    assert [v.status for v in cs.verdicts] == ["escaping"]
    assert _completeness_line(cs) == "complete over f,g: yes"


def test_the_arc_family_is_not_complete():
    """Both horizon limits lie 2.8e-7 from the outermost samples, well
    inside tol 1e-3, yet neither probe has settled within DEDUP_TOL, so
    each adjoins a point and the space over atan is not complete."""
    cs = complete(SLAB.with_generators(["g"]), [PLUS, MINUS], tol=1e-3, tail=50)
    assert len(cs.adjoined) == 2
    assert _completeness_line(cs) == (
        "complete over g: no (probe pplus, 2.8250814931851664e-07 from the nearest sample)"
    )


def test_an_undecided_probe_leaves_completeness_undecided():
    space = line_space(-2.0, 2.0, 41, [("f", "x")])
    still = Probe("p", parse_expr("0*n", ["n"]), 1, 100)
    wander = Probe("q", parse_expr("sin(n)", ["n"]), 1, 1000)
    cs = complete(space, [still, wander], tol=1e-3, tail=50)
    assert [v.status for v in cs.verdicts] == ["cauchy", "undecided"]
    assert cs.adjoined == ()
    assert _completeness_line(cs) == "complete over f: undecided (probe q)"


def test_maximal_family_lists_monomials_by_degree():
    fam = GeneratorFamily(
        (
            Generator("f", Var("x")),
            Generator("g", parse_expr("x^2", ["x"])),
        )
    )
    big = maximal_family(fam, 2)
    assert big.names == ("f", "g", "f^2", "f*g", "g^2")
    env = {"x": 1.5}
    from sikorski.expr import eval_expr

    assert eval_expr(big.get("f*g").expr, env) == 1.5 * 2.25
    assert eval_expr(big.get("f^2").expr, env) == 2.25
    # by degree, then by the exponent vector in reverse-lex order
    three = GeneratorFamily(tuple(Generator(n, Var("x")) for n in ("a", "b", "c")))
    assert maximal_family(three, 3).names == (
        "a", "b", "c",
        "a^2", "a*b", "a*c", "b^2", "b*c", "c^2",
        "a^3", "a^2*b", "a^2*c", "a*b^2", "a*b*c", "a*c^2", "b^3", "b^2*c", "b*c^2", "c^3",
    )


def test_maximal_family_of_one_generator_lists_its_powers():
    fam = GeneratorFamily((Generator("f", Var("x")),))
    big = maximal_family(fam, 3)
    assert big.names == ("f", "f^2", "f^3")
    with pytest.raises(ValueError, match="degree"):
        maximal_family(fam, 0)


def test_maximal_family_is_bounded_before_it_is_built():
    pair = GeneratorFamily((Generator("f", Var("x")), Generator("g", Var("x"))))
    with pytest.raises(ValueError, match="5000150000 monomials, more than 1000"):
        maximal_family(pair, 100000)
    # C(44 + 2, 2) - 1 = 1034 is over the bound, C(43 + 2, 2) - 1 = 989 is not
    with pytest.raises(ValueError, match="1034 monomials"):
        maximal_family(pair, 44)
    assert len(maximal_family(pair, 43).generators) == 989
    # forty generators at degree 1: forty monomials, not 2^40 exponent tuples
    many = GeneratorFamily(tuple(Generator(f"g{i}", Var("x")) for i in range(40)))
    assert maximal_family(many, 1).names == many.names
