"""The frozenset finite-model verifier, kept as the reference the bitset
verifier in ``sikorski.filters`` is compared against.

``check_model`` evaluates every law through the public frozenset API
(``intersect_filters``, ``is_cauchy``, ``converges_to``, ``relation_R``,
``minimal_cauchy``) on every pair and triple of filters, one frozenset
comparison at a time.  It raises where an intersection or
``minimal_cauchy`` raises; ``sikorski.filters._check_model`` records those
as failures instead.
"""

import itertools

from sikorski.filters import (
    FiniteFilter,
    FiniteUniformity,
    ModelReport,
    converges_to,
    intersect_filters,
    is_cauchy,
    minimal_cauchy,
    principal_filter,
    relation_R,
)


def check_model(size: int, index: int, u: FiniteUniformity, fs: list[FiniteFilter]) -> ModelReport:
    failures: list[str] = []
    counts: dict[str, int] = {}

    def bump(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    def fail(msg: str) -> None:
        if len(failures) < 8:
            failures.append(msg)

    def label(f: FiniteFilter) -> str:
        return "^" + "".join(str(x) for x in sorted(f.core))

    cauchy = [is_cauchy(f, u) for f in fs]
    conv = {x: [converges_to(f, x, u) for f in fs] for x in u.ground}
    r = [[relation_R(a, b, u) for b in fs] for a in fs]

    # intersections of filters are filters (pairs and triples)
    for combo in itertools.chain(itertools.combinations(range(len(fs)), 2), itertools.combinations(range(len(fs)), 3)):
        try:
            intersect_filters([fs[i] for i in combo])
        except ValueError as err:
            fail(f"intersection axioms: {err}")
        bump("intersections_are_filters")

    # intersections of filters converging to x converge to x
    for x in u.ground:
        pointing = [f for f, ok in zip(fs, conv[x]) if ok]
        for pair in itertools.combinations(pointing, 2):
            if not converges_to(intersect_filters(pair), x, u):
                fail(f"convergence lost at {x} for {label(pair[0])},{label(pair[1])}")
            bump("convergent_intersections")
        if pointing:
            if not converges_to(intersect_filters(pointing), x, u):
                fail(f"convergence lost at {x} for the full convergent family")
            bump("convergent_intersections")

    # convergence implies Cauchy
    for i, f in enumerate(fs):
        if any(conv[x][i] for x in u.ground) and not cauchy[i]:
            fail(f"{label(f)} converges but is not Cauchy")
        bump("convergent_implies_cauchy")

    # R holds exactly when both filters and their intersection are Cauchy
    for i, j in itertools.product(range(len(fs)), repeat=2):
        both = cauchy[i] and cauchy[j] and is_cauchy(intersect_filters([fs[i], fs[j]]), u)
        if r[i][j] != both:
            fail(f"R mismatch for {label(fs[i])},{label(fs[j])}: R={r[i][j]} cauchy-criterion={both}")
        bump("r_equivalence_criterion")

    # R is an equivalence on the Cauchy filters
    for i in range(len(fs)):
        if cauchy[i] and not r[i][i]:
            fail(f"R not reflexive at {label(fs[i])}")
        bump("r_reflexive")
    for i, j in itertools.combinations(range(len(fs)), 2):
        if r[i][j] != r[j][i]:
            fail(f"R not symmetric at {label(fs[i])},{label(fs[j])}")
        bump("r_symmetric")
    for i, j, k in itertools.product(range(len(fs)), repeat=3):
        if cauchy[i] and cauchy[j] and cauchy[k] and r[i][j] and r[j][k] and not r[i][k]:
            fail(f"R not transitive at {label(fs[i])},{label(fs[j])},{label(fs[k])}")
        bump("r_transitive")

    # the class intersection is a minimal equivalent Cauchy filter
    for i, f in enumerate(fs):
        if not cauchy[i]:
            continue
        cls = [fs[j] for j in range(len(fs)) if cauchy[j] and r[i][j]]
        minimal = intersect_filters(cls)
        if not is_cauchy(minimal, u):
            fail(f"class intersection of {label(f)} is not Cauchy")
        if not relation_R(minimal, f, u):
            fail(f"class intersection of {label(f)} left its class")
        for g in cls:
            if not minimal <= g:
                fail(f"class intersection of {label(f)} not below {label(g)}")
        if minimal != minimal_cauchy(f, u, fs):
            fail(f"minimal_cauchy disagrees with the class intersection at {label(f)}")
        # cross-check: the up-set of the union of class cores
        union_core = frozenset().union(*(g.core for g in cls))
        if minimal != principal_filter(u.ground, union_core):
            fail(f"class intersection of {label(f)} is not the up-set of the union of cores")
        bump("minimal_cauchy")

    checks = tuple(sorted(counts.items()))
    return ModelReport(size, index, len(u.entourages), len(fs), checks, tuple(failures))
