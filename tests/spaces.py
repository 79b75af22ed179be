"""Sample spaces the tests build by hand."""

from sikorski.expr import Var, parse_expr
from sikorski.space import Carrier, DiffSpace, Generator, GeneratorFamily, Interval


def line_space(lo, hi, count, gens, lo_open=False, hi_open=False, inset=1e-3):
    """The interval from `lo` to `hi`, sampled at `count` points and charted
    as the ambient line x = t, with the generators `gens`, given as
    (name, expression in x) pairs."""
    carrier = Carrier(
        params=("t",),
        box=(Interval(lo, hi, lo_open, hi_open),),
        ambient=("x",),
        chart=(Var("t"),),
        counts=(count,),
        inset=inset,
    )
    family = GeneratorFamily(tuple(Generator(n, parse_expr(e, ["x"])) for n, e in gens))
    return DiffSpace(carrier, family)
