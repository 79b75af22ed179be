"""The scalar pair distances, kept as the reference the array refinement
search in ``sikorski.uniform.compare_uniformities`` is compared against.

``pseudometric`` evaluates each listed generator at both points with
``eval_expr`` and takes the largest gap; ``entourage_contains`` tests
every gap strictly against the entourage's width.
"""

from sikorski.expr import eval_expr


def _family_values(space, names, point):
    env = dict(zip(space.carrier.ambient, point))
    return [eval_expr(space.family.get(n).expr, env) for n in names]


def entourage_contains(space, v, x, y):
    fx = _family_values(space, v.names, x)
    fy = _family_values(space, v.names, y)
    return all(abs(a - b) < v.eps for a, b in zip(fx, fy))


def pseudometric(space, names, x, y):
    """Largest generator gap over the listed family; the finite-family
    pseudometric whose balls are the basic entourages."""
    names = tuple(names)
    if not names:
        raise ValueError("pseudometric needs at least one generator")
    fx = _family_values(space, names, x)
    fy = _family_values(space, names, y)
    return max(abs(a - b) for a, b in zip(fx, fy))
