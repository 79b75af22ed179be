"""Finitely generated differential spaces, sampled.

Build a space from a parameter box, a chart, and a finite family of
generator functions; embed it through the generators; study the induced
uniform structure; complete it along probe sequences; trade generators
for bounded ones and compactify; and differentiate along tangent vectors.
A finite-model verifier checks the filter-theoretic facts the completion
construction rests on, exhaustively, on small ground sets.
"""

from .expr import (
    BinOp,
    Call,
    Const,
    DomainError,
    Expr,
    ExprError,
    ParseError,
    Pow,
    Var,
    diff,
    eval_constant,
    eval_expr,
    parse_expr,
    substitute,
    to_string,
    variables,
)
from .space import (
    Carrier,
    DiffSpace,
    EmbeddedCloud,
    Generator,
    GeneratorFamily,
    Interval,
    SmoothFunction,
    SmoothMapReport,
    SmoothMapWitness,
    check_smooth_map,
    embed,
    eval_smooth,
    sample,
)
from .uniform import (
    CauchyVerdict,
    Entourage,
    Probe,
    RefinementReport,
    compare_uniformities,
    probe_cauchy,
)
from .filters import FilterLawReport, verify_filter_laws
from .completion import (
    AdjoinedPoint,
    CompletedSpace,
    complete,
    iota,
    maximal_family,
)
from .compactify import BoundedGeneratorSet, boundize, bump, compactify, normalize
from .tangent import TangentVector, apply, chain_rule_check, leibniz_check, tangent_map

__version__ = "0.1.0"
