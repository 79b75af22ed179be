import itertools
import math
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import probe_oracle
from exprgen import random_expr
import sikorski
from sikorski import expr as expr_module
from sikorski import uniform
from sikorski.expr import DomainError, Var, parse_expr
from sikorski.space import Carrier, DiffSpace, Generator, GeneratorFamily, Interval, embed
from sikorski.specfile import load_spec
from sikorski.uniform import (
    CauchyVerdict,
    Probe,
    RefinementRow,
    compare_uniformities,
    probe_cauchy,
    probe_points,
)
from uniform_oracle import entourage_contains, first_witness, pseudometric


def line_space(lo, hi, count, gens, **kwargs):
    carrier = Carrier(
        params=("t",),
        box=(Interval(lo, hi, kwargs.get("lo_open", False), kwargs.get("hi_open", False)),),
        ambient=("x",),
        chart=(Var("t"),),
        counts=(count,),
        inset=kwargs.get("inset", 1e-3),
    )
    family = GeneratorFamily(tuple(Generator(n, parse_expr(e, ["x"])) for n, e in gens))
    return DiffSpace(carrier, family)


SPECS = Path(sikorski.__file__).parent / "specs"
PARABOLA = line_space(0.0, 20.0, 401, [("f", "x"), ("g", "x^2")])
SLAB = line_space(-1100.0, 1100.0, 221, [("f", "x"), ("a", "atan(x)")])


def test_entourage_validation():
    """The target entourage needs a generator and a positive width; the
    search refuses either before sampling."""
    with mock.patch.object(uniform, "embed", side_effect=AssertionError("sampled")):
        with pytest.raises(ValueError, match="^an entourage needs at least one generator$"):
            compare_uniformities(PARABOLA, ["f"], [], [0.1])
        for target_eps in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="^entourage widths must be positive$"):
                compare_uniformities(PARABOLA, ["f"], ["g"], [0.1], target_eps=target_eps)


def test_entourage_membership_is_strict():
    assert entourage_contains(PARABOLA, ["f"], 1.0, (0.0,), (0.7,))
    assert not entourage_contains(PARABOLA, ["f"], 1.0, (0.0,), (1.5,))
    assert not entourage_contains(PARABOLA, ["f"], 1.0, (0.0,), (1.0,))


def test_every_listed_generator_must_agree():
    assert not entourage_contains(PARABOLA, ["f", "g"], 1.0, (10.0,), (10.05,))
    assert pseudometric(PARABOLA, ["f", "g"], (10.0,), (10.05,)) == pytest.approx(1.0025, abs=1e-9)


def test_entourage_is_symmetric_and_reflexive():
    names = ["f", "g"]
    for x, y in [((0.0,), (0.2,)), ((3.0,), (3.4,)), ((1.0,), (1.0,))]:
        assert entourage_contains(PARABOLA, names, 0.5, x, y) == entourage_contains(PARABOLA, names, 0.5, y, x)
        assert entourage_contains(PARABOLA, names, 0.5, x, x)


def test_pseudometric_examples():
    assert pseudometric(PARABOLA, ["f"], (1.0,), (2.0,)) == 1.0
    assert pseudometric(PARABOLA, ["f", "g"], (1.0,), (2.0,)) == 3.0
    assert pseudometric(PARABOLA, ["f", "g"], (1.3,), (1.3,)) == 0.0


@given(
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(-5.0, 5.0, allow_nan=False),
)
def test_pseudometric_symmetry_and_triangle(a, b, c):
    x, y, z = (a,), (b,), (c,)
    names = ["f", "g"]
    assert pseudometric(PARABOLA, names, x, y) == pseudometric(PARABOLA, names, y, x)
    assert pseudometric(PARABOLA, names, x, z) <= (
        pseudometric(PARABOLA, names, x, y) + pseudometric(PARABOLA, names, y, z) + 1e-12
    )


def test_coordinate_family_does_not_refine_the_square():
    """A small coordinate gap cannot force a small gap of the squares far
    from the origin; the scan surfaces a concrete sampled pair."""
    report = compare_uniformities(PARABOLA, ["f"], ["g"], [0.1], target_eps=1.0)
    assert report.sample_count == 401
    assert report.target == "V(g;1.0)"
    row = report.rows[0]
    assert not row.refines
    assert row.violated == "g"
    x, y = row.witness_x[0], row.witness_y[0]
    assert abs(x - y) < 0.1
    assert abs(x * x - y * y) >= 1.0
    assert x == pytest.approx(5.05, abs=1e-9)
    assert y == pytest.approx(5.15, abs=1e-9)
    assert row.d_g == pytest.approx(0.1, abs=1e-12)


def test_witnesses_exist_for_every_scale():
    report = compare_uniformities(PARABOLA, ["f"], ["g"], [1.0, 0.1], target_eps=1.0)
    assert not all(r.refines for r in report.rows)
    for row in report.rows:
        assert not row.refines
        x, y = row.witness_x[0], row.witness_y[0]
        assert abs(x - y) < row.candidate_eps
        assert abs(x * x - y * y) >= 1.0


def test_refinement_rows_carry_python_floats():
    """An int width and a numpy gap come back as the floats the row declares."""
    space = load_spec(str(SPECS / "parabola_refinement.spec")).space
    report = compare_uniformities(space, ["f1"], ["f2"], [1, 0.1], 1.0)
    assert [row.candidate_eps for row in report.rows] == [1.0, 0.1]
    for row in report.rows:
        assert type(row.candidate_eps) is float
        assert type(row.d_g) is float


def test_a_row_refines_exactly_when_it_has_no_witness():
    assert RefinementRow(0.1, None, None, None, None).refines
    assert not RefinementRow(0.1, (0.0,), (0.5,), 0.5, "g").refines
    report = compare_uniformities(PARABOLA, ["f"], ["g"], [1.0, 0.1, 0.01], target_eps=1.0)
    assert [row.refines for row in report.rows] == [False, False, True]
    for row in report.rows:
        fields = (row.witness_x, row.witness_y, row.d_g, row.violated)
        assert [v is None for v in fields] == [row.refines] * 4


def test_finer_grids_find_witnesses_at_smaller_widths():
    """The 0.05-step grid has no pair closer than 0.01, so the narrow
    candidate needs a denser sample before its witness appears."""
    coarse = compare_uniformities(PARABOLA, ["f"], ["g"], [0.01], target_eps=1.0)
    assert coarse.rows[0].refines
    fine = compare_uniformities(
        line_space(0.0, 110.0, 22001, [("f", "x"), ("g", "x^2")]),
        ["f"],
        ["g"],
        [0.01],
        target_eps=1.0,
    )
    row = fine.rows[0]
    assert not row.refines
    x, y = row.witness_x[0], row.witness_y[0]
    assert abs(x - y) < 0.01
    assert abs(x * x - y * y) >= 1.0


def test_a_family_refines_entourages_over_its_own_members():
    report = compare_uniformities(PARABOLA, ["f", "g"], ["g"], [1.0, 0.5], target_eps=1.0)
    assert all(r.refines for r in report.rows)
    same = compare_uniformities(PARABOLA, ["f"], ["f"], [1.0], target_eps=1.0)
    assert all(r.refines for r in same.rows)


def test_nonpositive_widths_rejected():
    with pytest.raises(ValueError, match="positive"):
        compare_uniformities(PARABOLA, ["f"], ["g"], [0.0], target_eps=1.0)
    with pytest.raises(ValueError, match="positive"):
        compare_uniformities(PARABOLA, ["f"], ["g"], [0.1], target_eps=-1.0)


def test_probe_rejects_stray_variables_and_empty_schedules():
    with pytest.raises(ValueError, match="may only use n"):
        Probe("p", parse_expr("n + m", ["n", "m"]))
    with pytest.raises(ValueError, match="empty schedule"):
        Probe("p", Var("n"), start=10, stop=5)
    with pytest.raises(ValueError, match=r"probe p needs at least two schedule indices, got 5 \.\. 5"):
        Probe("p", Var("n"), start=5, stop=5)
    assert Probe("p", Var("n"), start=5, stop=6).stop == 6


@pytest.mark.parametrize("start, stop", [(1, 2**60), (1, 2**53 + 1), (-(2**53) - 1, 0)])
def test_a_probe_bound_beyond_2_53_is_refused(start, stop):
    """n is bound as float64, so beyond 2**53 the tail's indices collapse."""
    with pytest.raises(ValueError, match=r"probe p has a schedule bound beyond 2\*\*53"):
        Probe("p", Var("n"), start=start, stop=stop)


def test_a_probe_bound_of_2_53_is_accepted():
    probe = Probe("p", Var("n"), start=-(2**53), stop=2**53)
    assert (probe.start, probe.stop) == (-(2**53), 2**53)


def test_probe_points_walk_the_tail():
    probe = Probe("p", Var("n"), start=1, stop=1000)
    ns, values, ambient = probe_points(SLAB, probe, tail=50)
    assert len(ns) == len(values) == len(ambient) == 50
    assert ns[0] == 951
    assert (ns[-1], values[-1], tuple(ambient[-1].tolist())) == (1000, 1000.0, (1000.0,))


def test_a_tail_longer_than_the_schedule_is_refused():
    """A tail is judged over exactly the indices it asks for: one longer
    than the schedule is refused, not cut to the schedule."""
    probe = Probe("p", Var("n"), start=5, stop=14)
    with pytest.raises(ValueError, match=r"^tail 11 is longer than the schedule 5 \.\. 14 of probe p$"):
        probe_points(SLAB, probe, tail=11)
    with pytest.raises(ValueError, match="longer than the schedule"):
        probe_cauchy(SLAB, probe, tail=10**5)
    ns, _, _ = probe_points(SLAB, probe, tail=10)
    assert ns.tolist() == list(range(5, 15))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda probe: probe_points(SLAB, probe, tail=1), "tail must be at least 2"),
        (lambda probe: probe_cauchy(SLAB, probe, tol=0.0), "tol must be positive"),
    ],
)
def test_a_tail_below_two_or_a_tol_not_positive_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(Probe("p", Var("n"), start=1, stop=1000))


def test_probe_that_leaves_the_box_is_a_domain_error():
    probe = Probe("p", parse_expr("2000 * n", ["n"]), start=1, stop=10)
    with pytest.raises(DomainError, match="leaves the box"):
        probe_points(SLAB, probe, tail=5)


def test_probe_points_walk_a_failing_probe_once(monkeypatch):
    """The probe's first failure and its values before it come from one
    sweep of the tail."""
    calls = []
    atan = expr_module._PRIMITIVES["atan"]
    monkeypatch.setitem(expr_module._PRIMITIVES, "atan", lambda arg: calls.append(arg) or atan(arg))
    with pytest.raises(DomainError, match=r"^division by zero$") as err:
        probe_points(SLAB, Probe("p", parse_expr("atan(n) / (n - 8)", ["n"]), stop=10), tail=5)
    assert err.value.index == 2
    assert len(calls) == 1


def test_probe_errors_follow_the_tail_order():
    """Among the probe, the box and the chart, the smallest failing n wins:
    at n=6 the probe leaves the box, which a walk through the tail meets
    before the division by zero at n=10.  Generators are evaluated only
    after the whole tail, so 1/x failing at n=6 loses to the box at n=10."""
    probe = Probe("p", parse_expr("2000*n + 1/(n-10)", ["n"]), start=1, stop=10)
    with pytest.raises(DomainError, match=r"^probe p leaves the box at n=6: 11999.75 not in \[") as err:
        probe_cauchy(SLAB, probe, tail=5)
    assert err.value.index == 0
    slab = line_space(-1100.0, 3.0, 5, [("r", "1/x")])
    with pytest.raises(DomainError, match=r"^probe p leaves the box at n=10: 4.0 not in") as err:
        probe_cauchy(slab, Probe("p", parse_expr("n - 6", ["n"]), stop=10), tail=5)
    assert err.value.index == 4
    with pytest.raises(DomainError, match=r"^division by zero$") as err:
        probe_cauchy(SLAB, Probe("p", parse_expr("1/(n-8)", ["n"]), stop=10), tail=5)
    assert err.value.index == 2


def test_probe_chart_and_generator_errors_carry_their_index():
    space = DiffSpace(
        Carrier(("t",), (Interval(0.0, 20.0),), ("x",), (parse_expr("1/(t-7)", ["t"]),), (3,)),
        GeneratorFamily((Generator("r", parse_expr("1/(x-1/4)", ["x"])),)),
    )
    with pytest.raises(DomainError, match=r"^chart component x at \(7\.0,\): division by zero$") as err:
        probe_points(space, Probe("p", Var("n"), stop=10), tail=5)
    assert err.value.index == 1
    with pytest.raises(DomainError, match=r"^generator r at \(0\.25,\): division by zero$") as err:
        probe_cauchy(space, Probe("p", Var("n"), stop=12), tail=5)
    assert err.value.index == 3


def test_probes_need_a_one_parameter_carrier():
    plane = DiffSpace(
        Carrier(
            params=("s", "t"),
            box=(Interval(0.0, 1.0), Interval(0.0, 1.0)),
            ambient=("x", "y"),
            chart=(Var("s"), Var("t")),
            counts=(3, 3),
        ),
        GeneratorFamily((Generator("f", Var("x")),)),
    )
    with pytest.raises(ValueError, match="single-parameter"):
        probe_points(plane, Probe("p", Var("n")), tail=5)


def test_arc_probe_settles_on_a_quarter_turn():
    space = SLAB.with_generators(["a"])
    verdict = probe_cauchy(space, Probe("p", Var("n"), stop=1050), tol=1e-3, tail=50)
    assert verdict.status == "cauchy"
    assert verdict.limit is not None
    assert abs(verdict.limit[0] - math.pi / 2) < 1e-3


def test_unbounded_coordinate_escapes():
    space = SLAB.with_generators(["f"])
    verdict = probe_cauchy(space, Probe("p", Var("n"), stop=1000), tol=1e-3, tail=50)
    assert verdict.status == "escaping"
    assert verdict.limit is None


def test_constant_probe_lands_on_its_embedding():
    verdict = probe_cauchy(SLAB, Probe("p", parse_expr("3 + n - n", ["n"]), stop=100), tol=1e-9, tail=20)
    assert verdict.status == "cauchy"
    assert verdict.limit == (3.0, math.atan(3.0))


def test_oscillation_without_flight_is_undecided():
    space = line_space(-2.0, 2.0, 5, [("f", "x")])
    verdict = probe_cauchy(space, Probe("p", parse_expr("sin(n)", ["n"]), stop=500), tol=1e-3, tail=50)
    assert verdict.status == "undecided"


@pytest.mark.parametrize("stop, status", [(400, "escaping"), (10**4, "undecided"), (10**6, "cauchy")])
def test_slow_monotone_convergence_escapes_at_an_early_stop(stop, status):
    """`escaping` reports flight within the tail, not divergence: 3/n
    converges to 0, yet its tail at stop 400 spans 1.05e-3 > 10 tol and
    every step leaves the range of the steps before it."""
    space = line_space(-1.0, 4.0, 11, [("f", "x")])
    verdict = probe_cauchy(space, Probe("p", parse_expr("3/n", ["n"]), stop=stop), tol=1e-6, tail=50)
    assert verdict.status == status


def test_larger_families_dominate_smaller_ones():
    """Adding a generator can only raise the pseudometric, so a verdict of
    cauchy over the larger family carries down to the smaller one."""
    both = probe_cauchy(SLAB, Probe("p", Var("n"), stop=1000), tol=1e-3, tail=50)
    arc_only = probe_cauchy(SLAB.with_generators(["a"]), Probe("p", Var("n"), stop=1000), tol=1e-3, tail=50)
    assert both.status != "cauchy"
    assert arc_only.status == "cauchy"
    assert both.max_oscillation() >= arc_only.max_oscillation()


def test_verdict_reports_per_generator_oscillation():
    verdict = probe_cauchy(SLAB, Probe("p", Var("n"), stop=1000), tol=1e-3, tail=50)
    osc = dict(verdict.oscillation)
    assert set(osc) == {"f", "a"}
    assert osc["f"] == 49.0
    assert osc["a"] < 1e-4


def test_nonmonotone_family_witness_far_apart_in_sample_order():
    """|x| brings the two ends of the interval within 0.003 of each other;
    the pair sits 2048 steps apart in sample order."""
    space = line_space(-10.003, 10.0, 2049, [("g", "abs(x)"), ("h", "x/100")], inset=0.0)
    report = compare_uniformities(space, ["g"], ["h"], [0.01], target_eps=0.05)
    row = report.rows[0]
    assert not row.refines
    assert (row.witness_x, row.witness_y) == ((-10.003,), (10.0,))
    assert row.d_g == pytest.approx(0.003, abs=1e-12)
    assert row.violated == "h"


def test_pairs_examined_counts_the_sweep():
    """On the half-integer grid of [0, 10], a row's partners within lead
    gap 1 are its two neighbours, at gap 0.5.  Width 1: x^2 grows by
    0.5 * (x + y) between neighbours x and y, which first reaches 1 from
    the row at 1.0 (index 2) to 1.5, so row 2 is the first flagged row and
    its scan computes its 2 partners.  Width 0.25 holds no partner, so no
    row is flagged and nothing is computed; neither is an empty grid."""
    space = line_space(0.0, 10.0, 21, [("f", "x"), ("g", "x^2")])
    report = compare_uniformities(space, ["f"], ["g"], [1.0, 0.25], target_eps=1.0)
    assert report.pairs_examined == 2
    assert [row.refines for row in report.rows] == [False, True]
    assert (report.rows[0].witness_x, report.rows[0].witness_y) == ((1.0,), (1.5,))
    assert compare_uniformities(space, ["f"], ["g"], [], target_eps=1.0).pairs_examined == 0


def plane_space(s_count, t_count, gens):
    """The integer grid 0..s_count-1 by 0..t_count-1 as (x, y), row-major:
    sample s * t_count + t is the point (s, t)."""
    carrier = Carrier(
        params=("s", "t"),
        box=(Interval(0.0, s_count - 1.0), Interval(0.0, t_count - 1.0)),
        ambient=("x", "y"),
        chart=(Var("s"), Var("t")),
        counts=(s_count, t_count),
        inset=0.0,
    )
    family = GeneratorFamily(tuple(Generator(n, parse_expr(e, ["x", "y"])) for n, e in gens))
    return DiffSpace(carrier, family)


def test_the_cell_scan_on_a_5x2_grid():
    """G = (x/4, y*(x-3)) and H = y at width 0.5 on the 5x2 grid.  The cell
    side is 0.5 widened by a few ulps, so the cells over (a, b) are
    A = {(0, 0), (1, 0), (2, 0)}, B = {(3, 0), (4, 0), (3, 1)}, F = {(4, 1)}
    and one cell each for (0, 1), (1, 1) and (2, 1).  A, B and F neighbour
    one another; the other three stand alone, and none of their rows is
    flagged.  A row with y = 0 can find an H gap of 1 only in B and F, a row
    with y = 1 only in A and B, so those are the cells scanned: 4 partners
    for each of the 3 rows of A, 3 for (3, 0) and for (4, 0), 5 for (3, 1)
    and 6 for (4, 1).  Row (0, 0), the first in sample order, has no
    witness: its partners with y = 1 are 0.75 or more away in a.  The first
    witness is (2, 0)-(3, 1), where b is 0 at both ends, so the pairs
    examined are those of the first three flagged rows, up to (2, 0), in
    one chunk of all 7 flagged rows or in chunks of one row each."""
    space = plane_space(5, 2, [("a", "x/4"), ("b", "y*(x-3)"), ("c", "y")])
    report = compare_uniformities(space, ["a", "b"], ["c"], [0.5], target_eps=1.0)
    row = report.rows[0]
    assert (row.witness_x, row.witness_y) == ((2.0, 0.0), (3.0, 1.0))
    assert (row.d_g, row.violated) == (0.25, "c")
    assert report.pairs_examined == 3 * 4
    with mock.patch.object(uniform, "_CHUNK_PAIRS", 1):
        report = compare_uniformities(space, ["a", "b"], ["c"], [0.5], target_eps=1.0)
    assert (report.rows[0].witness_x, report.rows[0].witness_y) == ((2.0, 0.0), (3.0, 1.0))
    assert report.pairs_examined == 3 * 4


def test_scaled_spiral_scans_only_flagged_neighbourhoods(tmp_path):
    """The bundled spiral at 8,001 samples with G = a,b, H = c: every row's
    lead range holds a c gap of 1, but few rows' 3x3 cell neighbourhoods
    do, so the search computes a small share of the 15,459,348 pairs that
    a sweep over every pair within the lead width computed, and finds the
    same witnesses."""
    path = tmp_path / "spiral.spec"
    path.write_text((SPECS / "spiral.spec").read_text().replace("samples = 2000", "samples = 8001"))
    space = load_spec(str(path)).space
    params = embed(space).params
    report = compare_uniformities(space, ["a", "b"], ["c"], [0.1, 0.01], target_eps=1.0)
    assert report.sample_count == 8001
    assert [(row.witness_x, row.witness_y) for row in report.rows] == [
        (tuple(params[i]), tuple(params[j])) for i, j in [(7004, 7592), (7825, 7874)]
    ]
    assert report.pairs_examined <= 200_000


def test_scaled_parabola_never_reaches_the_sweep():
    """At 220,001 samples of [0, 110] (spacing 0.0005) each width's first
    flagged row is a witness, so only its range is scanned: about
    1 / 0.0005 partners at width 1 (row 2 has none below it), and
    2 * 0.1 / 0.0005 and 2 * 0.01 / 0.0005 at the others, some 2,400 pairs
    where the offset sweep computed 4.4e8."""
    space = line_space(0.0, 110.0, 220001, [("f", "x"), ("g", "x^2")])
    ambient = embed(space).ambient
    report = compare_uniformities(space, ["f"], ["g"], [1, 0.1, 0.01], target_eps=1.0)
    expected = [(2, 2001), (9902, 10102), (99990, 100010)]
    assert [(row.witness_x, row.witness_y) for row in report.rows] == [
        (tuple(ambient[i]), tuple(ambient[j])) for i, j in expected
    ]
    assert report.pairs_examined < 10_000


# lead values: multiples of 0.1 (whose gaps round), small integers (which
# tie), and any finite float up to 1e16 in magnitude
_lead_value = st.one_of(
    st.integers(-40, 40).map(lambda k: k * 0.1),
    st.integers(-3, 3).map(float),
    st.floats(-1e16, 1e16, allow_nan=False),
)


@given(lead=st.lists(_lead_value, min_size=1, max_size=30).map(sorted), data=st.data())
@example(lead=[0.0, 0.1, 0.2, 0.30000000000000004, 0.4], data=None)
@example(lead=[1e16, 1e16, 1e16 + 2.0, 1e16 + 4.0], data=None)
@example(lead=[-0.3, -0.3, -0.2, 0.0, 0.0, 0.1], data=None)
def test_upper_edges_match_their_definition(lead, data):
    """Each upper edge is one past the last j with fl(lead[j] - lead[r]) <
    eps, and each lead range, which `_lead_ranges` counts off the upper
    edges, starts at the first j with fl(lead[r] - lead[j]) < eps and ends
    at the upper edge, at a width that may equal a rounded gap exactly."""
    gaps = sorted({b - a for a in lead for b in lead if b > a})
    widths = [0.1, 0.2, 0.3, 1.0, 5e-324, *gaps]
    n = len(lead)
    if data is not None:
        widths.append(data.draw(st.floats(min_value=0.0, max_value=1e17, exclude_min=True), label="eps"))
    column = np.array(lead)
    for eps in widths:
        upper = [max(j for j in range(n) if lead[j] - lead[r] < eps) + 1 for r in range(n)]
        lower = [min(j for j in range(n) if lead[r] - lead[j] < eps) for r in range(n)]
        assert uniform._upper_edges(column, eps).tolist() == upper
        lo, length = uniform._lead_ranges(column, eps)
        assert lo.tolist() == lower
        assert (lo + length).tolist() == upper


def _brute_force_witness(space, g_names, h_names, eps, target_eps):
    """The first sampled pair (i, j), i < j, in lexicographic order with
    d_G < eps and d_H >= target_eps, by the scalar pseudometric."""
    points = [tuple(row) for row in embed(space).ambient.tolist()]
    for i, x in enumerate(points):
        for y in points[i + 1:]:
            if pseudometric(space, g_names, x, y) < eps and pseudometric(space, h_names, x, y) >= target_eps:
                return x, y
    return None


_polynomial = st.tuples(*[st.integers(-2, 2)] * 3).map(lambda c: f"({c[0]})*x^2 + ({c[1]})*x + ({c[2]})")


@given(
    count=st.integers(1, 14),
    lo=st.integers(-4, 2),
    step=st.sampled_from([0.5, 1.0]),
    exprs=st.lists(
        st.one_of(_polynomial, st.sampled_from(["abs(x)", "x", "x^2", "1"])), min_size=3, max_size=3
    ),
    g_names=st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "c"]]),
    h_names=st.sampled_from([["c"], ["a"], ["b", "c"]]),
    eps_grid=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 100.0]), min_size=1, max_size=4),
    target_eps=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
)
# a constant lead coordinate: no pair one step apart is G-close, but the
# two ends of the grid are
@example(3, -1, 1.0, ["1", "x^2", "x"], ["a", "b"], ["c"], [0.5], 2.0)
def test_sweep_matches_a_brute_force_scan(count, lo, step, exprs, g_names, h_names, eps_grid, target_eps):
    """Integer-valued generators on a half-integer grid repeat lead values
    and put gaps exactly on the widths; the sweep must agree with a scan of
    every pair on the verdict and the witness at each width."""
    space = line_space(lo, lo + step * max(count - 1, 1), count, list(zip("abc", exprs)), inset=0.0)
    report = compare_uniformities(space, g_names, h_names, eps_grid, target_eps)
    assert report.sample_count == count
    for eps, row in zip(eps_grid, report.rows):
        expected = _brute_force_witness(space, g_names, h_names, eps, target_eps)
        assert row.refines == (expected is None)
        if expected is not None:
            assert (row.witness_x, row.witness_y) == expected


def _all_pairs_witness(space, g_names, h_names, eps, target_eps):
    """The first pair (i, j), i < j, in lexicographic order with d_G < eps
    and d_H >= target_eps, from the gaps of every pair at once, with the
    count of other samples whose d_G from i is below eps."""
    names = space.family.names
    coords = embed(space).coords
    gaps = np.abs(coords[None, :, :] - coords[:, None, :])
    d_g = gaps[:, :, [names.index(n) for n in g_names]].max(axis=2)
    d_h = gaps[:, :, [names.index(n) for n in h_names]].max(axis=2)
    i, j = np.nonzero(np.triu((d_g < eps) & (d_h >= target_eps), 1))
    if not i.size:
        return None
    return int(i[0]), int(j[0]), int(np.count_nonzero(d_g[i[0]] < eps)) - 1


# on integer grids, x/10 puts lead gaps such as 0.30000000000000004 and
# 0.29999999999999993 next to the width 0.3; generators free of y repeat
# each lead value t_count times, so runs of equal lead values sit at the
# range edges
_PLANE_GENERATORS = st.sampled_from(
    ["x/10", "(x + y)/10", "y/10", "x", "y", "x*y/10", "abs(x - 3)/10", "x^2/10", "y*(x - 3)", "(x - y)^2/10", "1"]
)


@given(
    s_count=st.integers(1, 60),
    t_count=st.integers(1, 5),
    exprs=st.lists(_PLANE_GENERATORS, min_size=3, max_size=3),
    g_names=st.sampled_from([["a"], ["b"], ["a", "b"], ["b", "a"], ["a", "c"], ["a", "b", "c"]]),
    h_names=st.sampled_from([["c"], ["b"], ["b", "c"]]),
    eps_grid=st.lists(
        st.sampled_from([0.1, 0.2, 0.3, 0.30000000000000004, 0.5, 1.0, 2.5]), min_size=1, max_size=4
    ),
    target_eps=st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 3.0]),
)
@example(5, 2, ["x/4", "y*(x-3)", "y"], ["a", "b"], ["c"], [0.5, 0.3], 1.0)  # the sweep decides
@example(5, 2, ["x/4", "y*(x-3)", "y"], ["a", "b"], ["b", "c"], [0.5], 1.0)  # on the second H column
@example(40, 3, ["x/10", "x^2/10", "y"], ["a"], ["b"], [0.3, 0.2, 0.30000000000000004], 0.5)
@example(60, 5, ["x/10", "y*(x - 3)", "y"], ["a", "b"], ["c"], [0.2, 0.1], 1.0)  # 300 samples
@example(3, 2, ["x/10", "x", "y"], ["a"], ["c"], [0.2], 1.0)  # every witness sits exactly at the target
# 0.6 - 0.5 rounds to 0.09999999999999998, so a lead range found from
# lead - eps alone would put 0.1 in the range of 0.6, a G gap of 0.5
@example(8, 1, ["x/10", "x/10", "y"], ["a"], ["b"], [0.5], 0.5)
# d_H = |dx + dy| reaches 6 only at dx = dy = +-3, where both G gaps sit one
# ulp either side of 0.3 (0.7 - 0.4 is 0.29999999999999993)
@example(40, 8, ["x/10", "y/10", "x + y"], ["a", "b"], ["c"], [0.3, 0.30000000000000004, 0.29999999999999993], 6.0)
# |g| / eps >= 2^12 (13,653, and 4.1e6 at width 1e-3): a quotient g / side
# can be off by 2^-40 or more, all a fixed eps * 2^-40 widening would allow
@example(40, 8, ["x/10 + 4096", "y/10 - 4096", "x + y"], ["a", "b"], ["c"], [0.3, 0.30000000000000004, 1e-3], 6.0)
# max|g| / range > 2^37: without the max|g| term in the side, g / side leaves int64
@example(40, 8, ["x/10 + 1e12", "y/10 - 1e12", "x + y"], ["a", "b"], ["c"], [5e-324, 0.30000000000000004], 6.0)
# extreme widths: g / eps overflows at 5e-324, and 1e300 puts every row in one cell
@example(6, 3, ["abs(x - 3)/10", "(y - 1)^2", "x + y"], ["a", "b"], ["c"], [5e-324, 1e-300, 1e300], 1.0)
@example(5, 4, ["x*1e300", "y*1e300", "x - y"], ["a", "b"], ["c"], [1e-300, 1e300, 2e300], 2.0)
# row 0's partners come in cell order, (1, 1) in a cell before (1, 0), and
# both are witnesses
@example(2, 2, ["x/10", "y*(x - 3)", "x/10"], ["a", "b"], ["c"], [2.5], 0.1)
# subnormal generator values, gaps and widths
@example(5, 4, ["x*1e-320", "y*1e-320", "x + y"], ["a", "b"], ["c"], [5e-324, 1e-320, 3e-320], 2.0)
# a cell key cast from an infinite or out-of-range quotient warns
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_range_search_matches_all_pairs(s_count, t_count, exprs, g_names, h_names, eps_grid, target_eps):
    """On clouds of up to 320 samples the search agrees with a comparison
    of every pair on each width's verdict and witness.  With one G
    coordinate the flags are exact, so the search computes only the pairs
    of each witness row i with the samples within the width of it.  With
    several, the cell scan gives the same rows and the same count of pairs
    when each chunk holds a single flagged row."""
    space = plane_space(s_count, t_count, list(zip("abc", exprs)))
    ambient = embed(space).ambient
    report = compare_uniformities(space, g_names, h_names, eps_grid, target_eps)
    with mock.patch.object(uniform, "_CHUNK_PAIRS", 1):
        assert compare_uniformities(space, g_names, h_names, eps_grid, target_eps) == report
    scanned = 0
    for eps, row in zip(eps_grid, report.rows):
        expected = _all_pairs_witness(space, g_names, h_names, eps, target_eps)
        assert row.refines == (expected is None)
        if expected is not None:
            i, j, close = expected
            assert (row.witness_x, row.witness_y) == (tuple(ambient[i]), tuple(ambient[j]))
            scanned += close
    if len(g_names) == 1:
        assert report.pairs_examined == scanned


def _exprgen_case(rng, arity):
    """Generators a, b, c drawn by `exprgen` on a line of 40 to 70 samples
    of [-2, 2] (arity 1) or on a grid of up to 9 x 7 samples of that square
    (arity 2), with G the first `arity` of them, H drawn among them, a
    target drawn from the larger half of the H gaps of all pairs, and the
    distinct G gaps of all pairs."""
    if arity == 1:
        carrier = line_space(-2.0, 2.0, rng.randint(40, 70), [("a", "x")], inset=0.0).carrier
        g_names, h_names = ["a"], rng.choice([["c"], ["b", "c"], ["c", "a"]])
    else:
        carrier = Carrier(
            params=("s", "t"),
            box=(Interval(-2.0, 2.0), Interval(-2.0, 2.0)),
            ambient=("x", "y"),
            chart=(Var("s"), Var("t")),
            counts=(rng.randint(5, 9), rng.randint(4, 7)),
            inset=0.0,
        )
        g_names, h_names = ["a", "b"], rng.choice([["c"], ["c", "a"]])
    family = GeneratorFamily(tuple(Generator(n, random_expr(rng, carrier.ambient, 3)) for n in "abc"))
    space = DiffSpace(carrier, family)
    rows = embed(space).coords.tolist()
    g_idx, h_idx = (["abc".index(n) for n in names] for names in (g_names, h_names))
    gaps = [[max(abs(x[k] - y[k]) for k in idx) for x, y in itertools.combinations(rows, 2)] for idx in (g_idx, h_idx)]
    h_gaps = sorted(gaps[1])
    target = h_gaps[rng.randrange(len(h_gaps) // 2, len(h_gaps))] or 1.0
    return space, g_names, h_names, g_idx, h_idx, sorted(set(gaps[0])), target


@pytest.mark.parametrize("arity", [1, 2])
def test_a_shuffled_grid_matches_single_width_searches(arity):
    """The widths of one call are searched smallest first, each bounded by
    the last witness row.  On `exprgen` clouds, a grid in which witness-free
    widths sit between widths with witnesses, shuffled and with repeats,
    gives row for row what one call per width gives, and the summed
    `pairs_examined`, and each witness is the first pair of a walk over
    every pair."""
    rng = random.Random(37 + arity)
    mixed = 0
    for _ in range(20):
        space, g_names, h_names, g_idx, h_idx, g_gaps, target = _exprgen_case(rng, arity)
        cloud = embed(space)
        widths = {1e-9, 2.0 * g_gaps[-1] + 1.0, *rng.sample(g_gaps, min(5, len(g_gaps)))} - {0.0}
        found = {eps: first_witness(cloud.coords, g_idx, h_idx, eps, target) for eps in widths}
        held = [eps for eps in widths if found[eps] is not None]
        free = [eps for eps in widths if found[eps] is None]
        rng.shuffle(held)
        rng.shuffle(free)
        grid = [eps for pair in itertools.zip_longest(held, free) for eps in pair if eps is not None]
        grid.insert(rng.randrange(len(grid) + 1), rng.choice(grid))
        grid.append(grid[0])
        mixed += len(held) >= 2 and bool(free)
        report = compare_uniformities(space, g_names, h_names, grid, target)
        singles = [compare_uniformities(space, g_names, h_names, [eps], target) for eps in grid]
        assert report.rows == tuple(single.rows[0] for single in singles)
        assert report.pairs_examined == sum(single.pairs_examined for single in singles)
        for eps, row in zip(grid, report.rows):
            pair = found[eps]
            params = (None, None) if pair is None else tuple(tuple(cloud.params[k].tolist()) for k in pair)
            assert (row.witness_x, row.witness_y) == params
    assert mixed >= 5


@pytest.mark.parametrize("arity", [1, 2])
def test_the_first_witness_row_never_rises_with_the_width(arity):
    """The bound the search carries from width to width: as the width
    grows, a width past one with a witness has one too, and the first
    witness's smaller sample index never rises, read off the rows of one
    call over widths at and just above sampled G gaps."""
    rng = random.Random(41 + arity)
    for _ in range(12):
        space, g_names, h_names, _, _, g_gaps, target = _exprgen_case(rng, arity)
        picked = rng.sample(g_gaps, min(15, len(g_gaps)))
        widths = sorted({w for gap in picked for w in (gap, math.nextafter(gap, math.inf))} - {0.0})
        index = {tuple(row): k for k, row in enumerate(embed(space).params.tolist())}
        report = compare_uniformities(space, g_names, h_names, widths[::-1], target)
        last = None  # the first witness row at the smaller widths
        for row in report.rows[::-1]:
            if row.refines:
                assert last is None
            else:
                assert last is None or index[row.witness_x] <= last
                last = index[row.witness_x]


_GENERATORS = [("f", "x"), ("a", "atan(x)"), ("s", "sin(x)"), ("q", "x^2/1000"), ("r", "1/x")]
_PROBES = st.one_of(
    st.builds("({}) + ({})/n".format, st.integers(-50, 50), st.integers(-3, 3)),  # settles or creeps
    st.builds("({})*n".format, st.integers(-3, 3)),  # flies off under f
    st.just("sin(n)"),  # oscillates
    st.builds("({})".format, st.integers(-50, 50)),  # constant
    st.builds("abs(n - {})".format, st.integers(1, 400)),  # repeats values around its turn
    # leaves the box (the large slope) or divides by zero
    st.builds("({})*n + 1/(n - {})".format, st.sampled_from([0, 1, -2, 2000]), st.integers(1, 400)),
)


@given(
    gens=st.lists(st.sampled_from(_GENERATORS), min_size=1, max_size=3, unique=True),
    text=_PROBES,
    schedule=st.lists(st.integers(1, 400), min_size=2, max_size=2, unique=True).map(sorted),
    tail=st.integers(2, 60),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.5]),
)
@example([("f", "x")], "(2000)*n + 1/(n - 10)", [1, 10], 5, 1e-3)
@example([("f", "x"), ("a", "atan(x)")], "(3)*n", [1, 400], 50, 1e-3)
# 1, 0, 1, 2, ..., 48: the repeated 1 stops the flight from counting as escape
@example([("f", "x")], "abs(n - 352)", [1, 400], 50, 1e-3)
def test_probe_cauchy_matches_the_per_index_loop(gens, text, schedule, tail, tol):
    """The array sweep and the per-index loop agree on the status, on the
    oscillations and limit up to the last bits that numpy's ufuncs may
    change, and on the message of the domain error they raise."""
    space = line_space(-1100.0, 1100.0, 5, gens)
    probe = Probe("p", parse_expr(text, ["n"]), start=schedule[0], stop=schedule[1])
    if tail > probe.stop - probe.start + 1:
        # refused before any index is evaluated; the whole schedule is the longest tail
        with pytest.raises(ValueError, match="longer than the schedule"):
            probe_cauchy(space, probe, tol=tol, tail=tail)
        tail = probe.stop - probe.start + 1
    try:
        expected = probe_oracle.probe_cauchy(space, probe, tol, tail)
    except DomainError as err:
        with pytest.raises(DomainError) as got:
            probe_cauchy(space, probe, tol=tol, tail=tail)
        assert str(got.value) == str(err)
        assert 0 <= got.value.index < min(tail, probe.stop - probe.start + 1)
        return
    verdict = probe_cauchy(space, probe, tol=tol, tail=tail)
    assert verdict.status == expected.status
    assert [name for name, _ in verdict.oscillation] == [name for name, _ in expected.oscillation]
    assert [o for _, o in verdict.oscillation] == pytest.approx(
        [o for _, o in expected.oscillation], rel=1e-12, abs=1e-12
    )
    if expected.limit is None:
        assert verdict.limit is None
    else:
        assert verdict.limit == pytest.approx(expected.limit, rel=1e-12, abs=1e-12)
