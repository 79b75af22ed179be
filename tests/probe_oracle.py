"""The per-index probe loop, kept as the reference the array sweep in
``sikorski.uniform.probe_cauchy`` is compared against.

``probe_cauchy`` walks the tail one index at a time: it evaluates the
probe with the scalar walker of ``expr_oracle``, checks the box, charts
the value through the same walker, then evaluates every generator at
every tail point and classifies the columns with Python's ``sum``,
``min`` and ``max``.  No value passes through ``eval_array``, the code
under test.  Its domain errors carry no ``index``.
"""

from expr_oracle import eval_scalar
from sikorski.expr import DomainError
from sikorski.uniform import CauchyVerdict


def chart_point(carrier, value):
    env = {carrier.params[0]: value}
    out = []
    for name, comp in zip(carrier.ambient, carrier.chart):
        try:
            out.append(eval_scalar(comp, env))
        except DomainError as err:
            raise DomainError(f"chart component {name} at {(value,)}: {err}", err.node) from err
    return tuple(out)


def probe_points(space, probe, tail):
    carrier = space.carrier
    first = max(probe.start, probe.stop - tail + 1)
    box = carrier.box[0]
    out = []
    for n in range(first, probe.stop + 1):
        value = eval_scalar(probe.expr, {"n": float(n)})
        if not box.contains(value):
            raise DomainError(f"probe {probe.name} leaves the box at n={n}: {value!r} not in {box}", probe.expr)
        out.append((n, value, chart_point(carrier, value)))
    return out


def generator_values(space, ambient_point):
    env = dict(zip(space.carrier.ambient, ambient_point))
    out = []
    for g in space.family.generators:
        try:
            out.append(eval_scalar(g.expr, env))
        except DomainError as err:
            raise DomainError(f"generator {g.name} at {tuple(ambient_point)}: {err}", err.node) from err
    return tuple(out)


def grows_strictly(col):
    lo = hi = col[0]
    for v in col[1:]:
        if not (v < lo or v > hi):
            return False
        lo = min(lo, v)
        hi = max(hi, v)
    return True


def probe_cauchy(space, probe, tol, tail):
    values = [generator_values(space, apoint) for _, _, apoint in probe_points(space, probe, tail)]
    columns = list(zip(*values))
    oscillation = tuple((name, max(col) - min(col)) for name, col in zip(space.family.names, columns))
    if all(o <= tol for _, o in oscillation):
        limit = tuple(min(max(sum(col) / len(col), min(col)), max(col)) for col in columns)
        return CauchyVerdict(probe.name, "cauchy", oscillation, limit)
    for (_, osc), col in zip(oscillation, columns):
        if osc > 10.0 * tol and grows_strictly(col):
            return CauchyVerdict(probe.name, "escaping", oscillation, None)
    return CauchyVerdict(probe.name, "undecided", oscillation, None)
