import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from sikorski.expr import DomainError, Var, parse_expr
from sikorski.space import (
    Carrier,
    Interval,
    SmoothFunction,
    SmoothMapReport,
    SmoothMapWitness,
    check_smooth_map,
    embed,
    eval_smooth,
    memo_scope,
    sample,
)
from spaces import line_space


def test_interval_membership_respects_openness():
    closed = Interval(0.0, 1.0)
    assert closed.contains(0.0) and closed.contains(1.0)
    open_iv = Interval(0.0, 1.0, lo_open=True, hi_open=True)
    assert not open_iv.contains(0.0)
    assert not open_iv.contains(1.0)
    assert open_iv.contains(0.5)


def test_empty_interval_rejected():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError, match="empty interval"):
        Interval(1.0, 1.0, lo_open=True)


def test_open_ends_are_pulled_in_by_the_inset():
    s = line_space(0.0, math.pi / 2, 5, [("f", "x")], lo_open=True, hi_open=True, inset=0.01)
    axis = s.carrier.axis_samples()[0].tolist()
    assert len(axis) == 5
    assert axis[0] == 0.01
    assert axis[-1] == math.pi / 2 - 0.01
    assert all(axis[i] < axis[i + 1] for i in range(4))


def test_a_span_float64_cannot_hold_is_refused():
    with pytest.raises(ValueError, match=r"axis \[-1e\+308, 1e\+308\] with inset 0.001 spans inf"):
        line_space(-1e308, 1e308, 5, [("f", "x")])


def test_a_nan_inset_on_an_open_axis_is_refused():
    with pytest.raises(ValueError, match="with inset nan spans nan"):
        line_space(0.0, 1.0, 4, [("f", "x")], hi_open=True, inset=float("nan"))


@pytest.mark.parametrize(
    "counts", [(2**62,), (2**63 - 1,), (2**63,), (10**20,), (2**60 - 64,), (2**30, 2**30), (10**400,)]
)
def test_a_grid_numpy_cannot_index_is_refused_before_sampling(counts):
    """A grid of more float64 bytes than intp holds is refused when the
    carrier is made; np.linspace rounds a count of 2**60 - 64 up to 2**60."""
    params = tuple(f"t{i}" for i in range(len(counts)))
    with pytest.raises(ValueError, match=rf"^a grid of {math.prod(counts)} float64 samples has more bytes"):
        Carrier(params, (Interval(0.0, 1.0),) * len(counts), ("x",), (Var("t0"),), counts)


def test_the_largest_grid_numpy_can_index_makes_a_carrier():
    """Making a carrier allocates nothing; the grid is made when sampled."""
    carrier = Carrier(("t",), (Interval(0.0, 1.0),), ("x",), (Var("t"),), (2**60 - 65,))
    assert carrier.counts == (2**60 - 65,)


def test_the_widest_finite_span_samples_finite_values():
    axis = line_space(-8e307, 8e307, 5, [("f", "x")]).carrier.axis_samples()[0]
    assert np.isfinite(axis).all()
    assert axis[0] == -8e307 and axis[-1] == 8e307
    assert (np.diff(axis) > 0).all()


def test_closed_ends_sample_the_endpoints():
    s = line_space(0.0, 1.0, 2, [("f", "x")])
    assert s.carrier.axis_samples()[0].tolist() == [0.0, 1.0]


def test_chart_singularity_is_reported():
    carrier = Carrier(
        params=("t",),
        box=(Interval(0.0, math.pi),),
        ambient=("x",),
        chart=(parse_expr("tan(t)", ["t"]),),
        counts=(3,),
    )
    with pytest.raises(DomainError, match="chart component x"):
        sample(carrier)


def test_sweeps_report_the_first_offending_sample():
    """Columns are evaluated one expression at a time, but the error named
    is the one a per-sample loop meets first."""
    carrier = Carrier(
        params=("t",),
        box=(Interval(0.0, 2.0),),
        ambient=("x", "y"),
        chart=(parse_expr("1 / (t - 1)", ["t"]), parse_expr("log(t)", ["t"])),
        counts=(5,),
    )
    with pytest.raises(DomainError) as err:
        sample(carrier)
    assert str(err.value) == "chart component y at (0.0,): log of non-positive value 0.0"
    assert err.value.index == 0
    s = line_space(-3.0, 3.0, 7, [("a", "1 / x"), ("b", "sqrt((x + 1)^2 - 0.5)")])
    with pytest.raises(DomainError) as err:
        embed(s)
    assert str(err.value) == "generator b at (-1.0,): sqrt of negative value -0.5"
    assert err.value.index == 2
    # the first column fails only at the last sample, the second at the third
    carrier = dataclasses.replace(
        carrier, chart=(parse_expr("sqrt(1.5 - t)", ["t"]), parse_expr("1 / (t - 1)", ["t"]))
    )
    with pytest.raises(DomainError) as err:
        sample(carrier)
    assert str(err.value) == "chart component y at (1.0,): division by zero"
    assert err.value.index == 2


def test_a_failing_sweep_raises_the_same_error_every_time():
    """A DomainError is never memoized: within one memo block the second
    sweep evaluates again and raises the same message at the same
    sample."""
    carrier = Carrier(
        params=("t",),
        box=(Interval(0.0, 2.0),),
        ambient=("x",),
        chart=(parse_expr("1 / (t - 1)", ["t"]),),
        counts=(5,),
    )
    raised = []
    with memo_scope():
        for _ in range(2):
            with pytest.raises(DomainError) as err:
                sample(carrier)
            raised.append((str(err.value), err.value.index))
    assert raised == [("chart component x at (1.0,): division by zero", 2)] * 2


def test_sweeps_are_memoized_and_read_only():
    """Within one memo block an equal carrier or space gets the same
    read-only matrices; after it, new ones."""
    s = line_space(-1.0, 1.0, 5, [("f", "x"), ("g", "x^2")])
    twin = line_space(-1.0, 1.0, 5, [("f", "x"), ("g", "x^2")])
    with memo_scope():
        params, ambient = sample(s.carrier)
        assert sample(twin.carrier)[0] is params  # an equal carrier, another object
        cloud = embed(s)
        assert embed(twin) is cloud
        assert cloud.params is params and cloud.ambient is ambient
        for matrix in (params, ambient, cloud.coords):
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 7.0
    # after the block, as outside every block, each call sweeps anew
    assert sample(twin.carrier)[0] is not params
    assert embed(twin) is not cloud and embed(twin) is not embed(twin)
    assert np.array_equal(sample(s.carrier)[0], params)


def test_a_nested_block_neither_clears_nor_inherits_the_outer_one():
    s = line_space(-1.0, 1.0, 5, [("f", "x")])
    with memo_scope():
        cloud = embed(s)
        with memo_scope():
            inner = embed(s)
            assert inner is not cloud and embed(s) is inner
        assert embed(s) is cloud


def test_outside_a_block_nothing_keeps_an_embedding_alive():
    """A library caller that drops an embedding frees it."""
    s = line_space(-1.0, 1.0, 5, [("f", "x")])
    cloud = embed(s)
    dropped = weakref.ref(cloud)
    del cloud
    gc.collect()
    assert dropped() is None


def test_a_negative_zero_endpoint_is_not_served_the_positive_sweep():
    """-0.0 == 0.0, so the two carriers are equal, but the last sample
    keeps the endpoint's sign and each carrier gets its own, within one
    memo block too."""
    positive = line_space(-1.0, 0.0, 3, [("f", "x")])
    negative = line_space(-1.0, -0.0, 3, [("f", "x")])
    assert positive == negative
    with memo_scope():
        for space, sign in ((positive, 1.0), (negative, -1.0)):
            assert math.copysign(1.0, sample(space.carrier)[0][-1, 0]) == sign
            assert math.copysign(1.0, embed(space).coords[-1, 0]) == sign


def test_smooth_map_sweep_errors_name_the_expression_and_the_sample():
    source = line_space(-1.0, 1.0, 5, [("f", "x")])
    target = line_space(-1.0, 1.0, 5, [("g", "x")])
    # the map component fails at the fourth sample, the witness at the second
    pullback = SmoothFunction(parse_expr("1 / (u1 + 0.5)", ["u1"]), ("f",))
    witness = SmoothMapWitness(target, (parse_expr("1 / (x - 0.5)", ["x"]),), {"g": pullback})
    with pytest.raises(DomainError) as err:
        check_smooth_map(source, witness)
    assert str(err.value) == "pullback witness of g at (-0.5,): division by zero"
    assert err.value.index == 1


def test_sampling_is_row_major_with_last_axis_fastest():
    carrier = Carrier(
        params=("s", "t"),
        box=(Interval(0.0, 1.0), Interval(0.0, 1.0)),
        ambient=("x", "y"),
        chart=(Var("s"), Var("t")),
        counts=(2, 2),
    )
    params, ambient = sample(carrier)
    assert params.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    assert np.array_equal(ambient, params)


def test_embedding_tuples_follow_generator_order():
    s = line_space(-5.0, 5.0, 11, [("f", "x"), ("g", "x^2")])
    cloud = embed(s)
    assert cloud.names == ("f", "g")
    by_param = dict(zip(cloud.params[:, 0].tolist(), cloud.coords.tolist()))
    assert by_param[2.0] == [2.0, 4.0]
    assert by_param[-3.0] == [-3.0, 9.0]


def test_single_generator_embedding_is_its_graph():
    s = line_space(0.0, 2.0, 5, [("g", "x^2")])
    cloud = embed(s)
    assert np.array_equal(cloud.coords, cloud.ambient**2)


def test_eval_smooth_composes_omega_with_generator_values():
    s = line_space(-5.0, 5.0, 11, [("f", "x"), ("g", "x^2")])
    square = SmoothFunction(parse_expr("u1^2", ["u1"]), ("f",))
    assert eval_smooth(s, square, (3.0,)) == 9.0
    total = SmoothFunction(parse_expr("u1 + u2", ["u1", "u2"]), ("f", "g"))
    assert eval_smooth(s, total, (2.0,)) == 6.0
    bent = SmoothFunction(parse_expr("sin(u1)", ["u1"]), ("a",))
    arc = line_space(-5.0, 5.0, 11, [("a", "atan(x)")])
    assert eval_smooth(arc, bent, (0.0,)) == 0.0


def test_smooth_function_validates_its_witness():
    with pytest.raises(ValueError, match="undeclared"):
        SmoothFunction(parse_expr("u1 + u2", ["u1", "u2"]), ("f",))


def test_identity_map_witness_has_zero_residual():
    s = line_space(-2.0, 2.0, 9, [("f", "x"), ("g", "x^2")])
    w = SmoothMapWitness(
        target=s,
        components=(Var("x"),),
        witnesses={"f": SmoothFunction.of_generator("f"), "g": SmoothFunction.of_generator("g")},
    )
    report = check_smooth_map(s, w, tol=1e-12)
    assert report.smooth
    assert report.max_residual() == 0.0


def test_squaring_map_witness_has_zero_residual():
    source = line_space(-2.0, 2.0, 9, [("f", "x")])
    target = line_space(0.0, 4.0, 9, [("f", "x")])
    w = SmoothMapWitness(
        target=target,
        components=(parse_expr("x^2", ["x"]),),
        witnesses={"f": SmoothFunction(parse_expr("u1^2", ["u1"]), ("f",))},
    )
    report = check_smooth_map(source, w, tol=0.0)
    assert report.smooth


def test_identity_is_not_a_function_of_the_square():
    """No witness through x^2 alone can reproduce x on a sign-symmetric
    sample: the residual shows up at the +-1 pair."""
    source = line_space(-1.0, 1.0, 21, [("g", "x^2")])
    target = line_space(-1.0, 1.0, 21, [("f", "x")])
    w = SmoothMapWitness(
        target=target,
        components=(Var("x"),),
        witnesses={"f": SmoothFunction(Var("u1"), ("g",))},
    )
    report = check_smooth_map(source, w, tol=1e-6)
    assert not report.smooth
    assert report.max_residual() >= 1.0


@pytest.mark.parametrize(
    "residuals, smooth",
    [
        ((0.0, 1e-6), True),
        ((1e-6, 1.5e-6), False),
        ((0.0, math.nan), False),
        ((math.inf,), False),
    ],
)
def test_smooth_means_every_residual_within_tol(residuals, smooth):
    rows = tuple((f"g{i}", r) for i, r in enumerate(residuals))
    assert SmoothMapReport(1e-6, rows, None).smooth is smooth


def test_map_witness_requires_full_coverage():
    s = line_space(-2.0, 2.0, 9, [("f", "x"), ("g", "x^2")])
    with pytest.raises(ValueError, match="missing pullback witnesses"):
        SmoothMapWitness(target=s, components=(Var("x"),), witnesses={"f": SmoothFunction.of_generator("f")})


