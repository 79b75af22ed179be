"""The scalar pair distances, kept as the reference the array refinement
search in ``sikorski.uniform.compare_uniformities`` is compared against.

``pseudometric`` evaluates each listed generator at both points with
the scalar walker of ``expr_oracle`` and takes the largest gap;
``entourage_contains`` tests every gap strictly against the entourage's
width.  ``first_witness`` walks every pair of an embedded cloud's rows in
lexicographic order, one width at a time.
"""

from expr_oracle import eval_scalar


def _family_values(space, names, point):
    env = dict(zip(space.carrier.ambient, point))
    return [eval_scalar(space.family.get(n).expr, env) for n in names]


def entourage_contains(space, names, eps, x, y):
    """(x, y) lies in V(names; eps): every listed gap is below eps."""
    fx = _family_values(space, names, x)
    fy = _family_values(space, names, y)
    return all(abs(a - b) < eps for a, b in zip(fx, fy))


def pseudometric(space, names, x, y):
    """Largest generator gap over the listed family; the finite-family
    pseudometric whose balls are the basic entourages."""
    names = tuple(names)
    if not names:
        raise ValueError("pseudometric needs at least one generator")
    fx = _family_values(space, names, x)
    fy = _family_values(space, names, y)
    return max(abs(a - b) for a, b in zip(fx, fy))


def first_witness(coords, g_idx, h_idx, eps, target_eps):
    """The first pair of sample indices (i, j), i < j, in lexicographic
    order whose gaps reach below `eps` in every G column and at least
    `target_eps` in some H column, or None: a walk over every pair of the
    rows of `coords`, with no bound carried over from another width."""
    rows = [tuple(row) for row in coords.tolist()]
    for i, x in enumerate(rows):
        for j in range(i + 1, len(rows)):
            y = rows[j]
            if all(abs(x[k] - y[k]) < eps for k in g_idx) and any(abs(x[k] - y[k]) >= target_eps for k in h_idx):
                return i, j
    return None
