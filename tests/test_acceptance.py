"""Acceptance gate for the shipped behavior.

One test per guarantee, each ending in a single printed PASS line so a
``pytest -v -s`` run reads as a checklist.  Every tolerance is pinned
in the assertion itself.  Failures here mean the package does not do
what the README promises, not that a unit is off by an ulp.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import sikorski
from sikorski import specfile, tangent
from sikorski.compactify import boundize, compactify
from sikorski.completion import complete, iota
from sikorski.expr import DomainError, Var, diff, eval_expr, parse_expr
from sikorski.filters import verify_filter_laws
from sikorski.space import (
    Carrier,
    DiffSpace,
    Generator,
    GeneratorFamily,
    Interval,
    SmoothFunction,
    SmoothMapWitness,
    embed,
    eval_smooth,
)
from sikorski.tangent import TangentVector
from sikorski.uniform import compare_uniformities

from exprgen import finite_small, random_expr

SPECS = Path(sikorski.__file__).parent / "specs"
HALF_PI = math.pi / 2


def load(name):
    return specfile.load_spec(str(SPECS / name))


def test_criterion_1_arctan_completion_adjoins_both_ends():
    spec = load("real_line_atan.spec")
    start = time.perf_counter()
    arc = complete(spec.space.with_generators(["g"]), spec.probes, tol=1e-3, tail=50)
    ident = complete(spec.space.with_generators(["f"]), spec.probes, tol=1e-3, tail=50)
    elapsed = time.perf_counter() - start

    assert len(arc.adjoined) == 2
    low, high = sorted(a.coords[0] for a in arc.adjoined)
    assert abs(low + HALF_PI) <= 1e-3
    assert abs(high - HALF_PI) <= 1e-3
    assert arc.duplicates == ()
    assert ident.adjoined == ()
    assert elapsed < 1.0
    print("ACCEPTANCE 1 PASS: atan family adjoins +-pi/2 within 1e-3, identity family adjoins nothing")


def test_criterion_2_identity_never_refines_the_square():
    spec = load("parabola_refinement.spec")
    start = time.perf_counter()
    rep = compare_uniformities(spec.space, ["f1"], ["f2"], [1.0, 0.1, 0.01], 1.0)
    elapsed = time.perf_counter() - start

    assert [row.candidate_eps for row in rep.rows] == [1.0, 0.1, 0.01]
    for row in rep.rows:
        assert not row.refines
        x, y = row.witness_x[0], row.witness_y[0]
        assert abs(x - y) < row.candidate_eps
        assert abs(x * x - y * y) >= 1.0
    assert elapsed < 1.0
    print("ACCEPTANCE 2 PASS: witness pairs with |x-y| < eps and |x^2-y^2| >= 1 for eps in {1, 0.1, 0.01}")


def test_criterion_3_spiral_completion_and_projection():
    spec = load("spiral.spec")
    start = time.perf_counter()
    small = complete(spec.space.with_generators(["a", "b"]), spec.probes, tol=1e-3, tail=50)
    big = complete(spec.space, spec.probes, tol=1e-3, tail=50)
    rep = iota(big, small)
    elapsed = time.perf_counter() - start

    assert len(small.adjoined) == 5
    by_probe = {a.probe: a.coords for a in small.adjoined}
    assert math.hypot(*by_probe["p0"]) <= 1e-3
    for name in ("c0", "c1", "c2", "c3"):
        assert abs(math.hypot(*by_probe[name]) - HALF_PI) <= 1e-2
    assert [a.probe for a in big.adjoined] == ["p0"]
    assert rep.max_residual() <= 1e-9
    assert rep.uncovered == ("c0", "c1", "c2", "c3")
    assert elapsed < 5.0
    print("ACCEPTANCE 3 PASS: 5 adjoined under the plane family, 1 after unwinding, projection residual <= 1e-9")


def test_criterion_4_bounded_replacement_scales():
    spec = load("real_line_atan.spec")
    omega = SmoothFunction(Var("u1"), ("f",))
    for m, mu in ((-3.0, 5.0), (0.0, 2.0), (5.0, 7.0)):
        bset = boundize(spec.space, omega, (m,))
        assert bset.mus == (mu,)
        assert bset.max_abs_gamma[0] <= 1.0
        assert bset.local_residual <= 1e-9
    print("ACCEPTANCE 4 PASS: mu = 5, 2, 7 at m = -3, 0, 5 with |gamma| <= 1 and local residual <= 1e-9")


def test_criterion_5_filter_laws_hold_on_every_model():
    start = time.perf_counter()
    rep = verify_filter_laws(4)
    elapsed = time.perf_counter() - start

    assert rep.passed
    assert all(not m.failures for m in rep.models)
    assert rep.filter_counts == tuple((n, 2**n - 1, 2**n - 1) for n in (1, 2, 3, 4))
    assert elapsed < 30.0
    print("ACCEPTANCE 5 PASS: zero counterexamples over the full catalog, 2^|X|-1 filters per ground set")


def _plane():
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


def test_criterion_6_tangent_laws_randomized():
    rng = random.Random(20260814)
    space = _plane()
    uvars = ("u1", "u2", "u3")
    gens = ("p", "q", "h")

    def random_fn(depth):
        return SmoothFunction(random_expr(rng, uvars, depth), gens)

    def random_vector():
        point = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        coeffs = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        return TangentVector(point, coeffs)

    leibniz_done = 0
    attempts = 0
    while leibniz_done < 1000:
        attempts += 1
        assert attempts < 20000
        v = random_vector()
        f, g = random_fn(3), random_fn(3)
        try:
            fm = eval_smooth(space, f, v.point)
            gm = eval_smooth(space, g, v.point)
            vf = tangent.apply(space, v, f)
            vg = tangent.apply(space, v, g)
            residual, _ = tangent.leibniz_check(space, v, f, g)
        except DomainError:
            continue
        if not finite_small(fm, gm, vf, vg):
            continue
        assert residual <= 1e-12 * (1.0 + abs(fm * vg) + abs(gm * vf))
        leibniz_done += 1

    witness = SmoothMapWitness(
        target=_plane(),
        components=(parse_expr("x^2", ["x", "y"]), Var("y")),
        witnesses={
            "p": SmoothFunction(parse_expr("u1^2", ["u1"]), ("p",)),
            "q": SmoothFunction(Var("u1"), ("q",)),
            "h": SmoothFunction(parse_expr("u1^2 * u2", ["u1", "u2"]), ("p", "q")),
        },
    )
    chain_done = 0
    attempts = 0
    while chain_done < 200:
        attempts += 1
        assert attempts < 5000
        v = random_vector()
        beta = random_fn(3)
        try:
            pushed = tangent.tangent_map(space, witness, v)
            residual, _ = tangent.chain_rule_check(space, witness, v, beta)
            scale = 1.0 + abs(tangent.apply(witness.target, pushed, beta))
        except DomainError:
            continue
        if not finite_small(scale, residual):
            continue
        image = tuple(
            eval_expr(c, {"x": v.point[0], "y": v.point[1]}) for c in witness.components
        )
        assert pushed.point == image
        assert residual <= 1e-12 * scale
        chain_done += 1

    def central(expr, t, h):
        return (eval_expr(expr, {"x": t + h}) - eval_expr(expr, {"x": t - h})) / (2 * h)

    fd_done = 0
    attempts = 0
    while fd_done < 1000:
        attempts += 1
        assert attempts < 20000
        expr = random_expr(rng, ("x",), 4)
        t = rng.uniform(-3.0, 3.0)
        try:
            sym = eval_expr(diff(expr, "x"), {"x": t})
            coarse = central(expr, t, 1e-4)
            fine = central(expr, t, 5e-5)
        except DomainError:
            continue
        if abs(coarse - fine) > 1e-7 * (1.0 + abs(fine)):
            # the stencil has not converged at this step size, so the
            # numerical estimate is no oracle for this draw
            continue
        # Richardson extrapolation cancels the leading truncation term
        fd = (4.0 * fine - coarse) / 3.0
        if not finite_small(sym, fd):
            continue
        assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym))
        fd_done += 1

    print("ACCEPTANCE 6 PASS: 1000 product-rule and 200 chain-rule residuals <= 1e-12, 1000 gradients within 1e-5 of finite differences")


def test_criterion_7_compact_carrier_is_its_own_compactification():
    spec = load("unit_interval_compact.spec")
    space = spec.space

    before = embed(space)
    direct = int(np.argmax(np.abs(before.coords[:, 0])))
    normalized, cs = compactify(space, spec.probes, tol=1e-6, tail=50)
    (ng,) = normalized
    assert ng.argmax_index == direct

    bounded = DiffSpace(space.carrier, GeneratorFamily((Generator("g", ng.expr),)))
    after = embed(bounded)
    again = int(np.argmax(np.abs(after.coords[:, 0])))
    assert again == direct

    assert cs.adjoined == ()
    assert np.all(np.abs(cs.base.coords[:, 0]) <= 1.0)
    print("ACCEPTANCE 7 PASS: closed interval compactifies onto itself with coordinates in [-1, 1] and a stable argmax")


def test_criterion_8_double_runs_are_byte_identical(tmp_path):
    for spec_path in sorted(SPECS.glob("*.spec")):
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / spec_path.stem / tag
            proc = subprocess.run(
                [sys.executable, "-m", "sikorski.cli", "run", str(spec_path), "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                f"{spec_path.name}: {name} differs between runs"
            )
    print("ACCEPTANCE 8 PASS: every bundled spec run twice writes byte-identical artifacts")
