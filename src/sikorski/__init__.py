"""Finitely generated differential spaces, sampled.

Build a space from a parameter box, a chart, and a finite family of
generator functions; embed it through the generators; study the induced
uniform structure; complete it along probe sequences; trade generators
for bounded ones and compactify; and differentiate along tangent vectors.
A finite-model verifier checks the filter-theoretic facts the completion
construction rests on, exhaustively, on small ground sets.

Each public name is imported from the one module that defines it
(``from sikorski.space import embed``); this package root imports none
of them, so loading one module loads only what that module needs.
"""

__version__ = "0.1.0"
