"""The frozenset definitions of filters and uniformities on small finite
sets, and a verifier written with them: the reference the bitset verifier
in ``sikorski.filters`` is tested against.

Everything here is literal.  A filter is a frozenset of frozensets, an
entourage a frozenset of ordered pairs, and a uniformity the sorted tuple
of its entourages.  Convergence, the Cauchy property, the relation R and
the minimal Cauchy filter are checked quantifier by quantifier, one
frozenset comparison at a time.

``check_model`` evaluates every law through these definitions on every
pair and triple of filters.  It raises where an intersection or
``minimal_cauchy`` raises; ``sikorski.filters._check_model`` records those
as failures instead.

``entourage_walk`` visits a bitset model's 2^k entourages one at a time:
the reference for the holding sets and balls that ``_BitsetModel`` builds
in closed form.  ``containment_sets`` gives, for every two subsets a and
b, the entourages of a bitset model containing a x b, built pair by pair
from the model's V0 rows and holding sets; it reads nothing of the model's
cover rows.  ``cauchy_over_every_member`` and ``related_rows`` take the
Cauchy property and R over every member of a family on those sets: the
reference for ``_BitsetModel.cauchy`` and ``_BitsetModel.relation_rows``,
which read only a filter's core, point by point.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Hashable, Iterable, Iterator, Sequence

from sikorski.filters import _MAX_GROUND, ModelReport, _bits, partitions


def _sorted_sets(sets: Iterable[frozenset]) -> tuple[frozenset, ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


@dataclass(frozen=True)
class FiniteFilter:
    """An upward-closed, intersection-closed family of nonempty subsets."""

    ground: tuple[Hashable, ...]
    sets: frozenset[frozenset]

    @property
    def core(self) -> frozenset:
        """Smallest member; every filter on a finite set is its up-set."""
        out = frozenset(self.ground)
        for s in self.sets:
            out &= s
        return out

    def members_sorted(self) -> tuple[frozenset, ...]:
        return _sorted_sets(self.sets)

    def __le__(self, other: "FiniteFilter") -> bool:
        return self.sets <= other.sets


def _upward_closure(ground: Sequence[Hashable], seeds: Iterable[frozenset]) -> frozenset:
    universe = tuple(ground)
    out = set()
    for seed in seeds:
        rest = [x for x in universe if x not in seed]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                out.add(seed | frozenset(extra))
    return frozenset(out)


def principal_filter(ground: Sequence[Hashable], core: Iterable[Hashable]) -> FiniteFilter:
    core = frozenset(core)
    if not core:
        raise ValueError("a filter cannot be generated by the empty set")
    if not core <= frozenset(ground):
        raise ValueError("core must be a subset of the ground set")
    return FiniteFilter(tuple(ground), _upward_closure(ground, [core]))


def enumerate_filters(ground: Sequence[Hashable]) -> list[FiniteFilter]:
    """All filters on the ground set, ordered by (core size, core).

    On a finite set every filter is principal (its members' intersection is
    itself a member), so the count is 2^|ground| - 1.
    """
    ground = tuple(ground)
    if len(ground) > _MAX_GROUND:
        raise ValueError(f"ground sets larger than {_MAX_GROUND} are out of scope")
    cores = []
    for k in range(1, len(ground) + 1):
        for combo in itertools.combinations(sorted(ground), k):
            cores.append(frozenset(combo))
    cores.sort(key=lambda s: (len(s), sorted(s)))
    return [principal_filter(ground, core) for core in cores]


def intersect_filters(filters: Sequence[FiniteFilter]) -> FiniteFilter:
    if not filters:
        raise ValueError("need at least one filter")
    ground = filters[0].ground
    if any(f.ground != ground for f in filters):
        raise ValueError("filters live on different ground sets")
    sets = frozenset.intersection(*(f.sets for f in filters))
    out = FiniteFilter(ground, sets)
    _check_filter_axioms(out)
    return out


def _check_filter_axioms(f: FiniteFilter) -> None:
    universe = frozenset(f.ground)
    if universe not in f.sets:
        raise ValueError("filter axioms violated: ground set missing")
    for s in f.sets:
        if not s:
            raise ValueError("filter axioms violated: empty set present")
    for a in f.sets:
        for b in f.sets:
            if a & b not in f.sets:
                raise ValueError(f"filter axioms violated: {sorted(a)} meet {sorted(b)} missing")
    for s in f.sets:
        for t in _upward_closure(f.ground, [s]):
            if t not in f.sets:
                raise ValueError(f"filter axioms violated: superset {sorted(t)} missing")


# ---------------------------------------------------------------------------
# Uniformities


def _diagonal(ground: Sequence[Hashable]) -> frozenset:
    return frozenset((x, x) for x in ground)


def _is_symmetric(rel: frozenset) -> bool:
    return all((b, a) in rel for (a, b) in rel)


def _compose(rel: frozenset) -> frozenset:
    by_left: dict[Hashable, set] = {}
    for a, b in rel:
        by_left.setdefault(a, set()).add(b)
    out = set()
    for a, b in rel:
        for c in by_left.get(b, ()):
            out.add((a, c))
    return frozenset(out)


def _symmetric_supersets(ground: tuple, rel: frozenset) -> Iterator[frozenset]:
    pool = [
        (a, b)
        for a, b in itertools.combinations(sorted(ground), 2)
        if (a, b) not in rel
    ]
    for k in range(len(pool) + 1):
        for extra in itertools.combinations(pool, k):
            add = set()
            for a, b in extra:
                add.add((a, b))
                add.add((b, a))
            yield rel | frozenset(add)


@dataclass(frozen=True)
class FiniteUniformity:
    """A uniform structure presented by its symmetric entourages.

    The family must contain the diagonal in every member, be closed under
    symmetric supersets and pairwise intersections, and provide a
    composition witness W with W o W inside each member.
    """

    ground: tuple[Hashable, ...]
    entourages: tuple[frozenset, ...]  # canonically sorted

    @property
    def minimum(self) -> frozenset:
        return self.entourages[0]


def make_uniformity(ground: Sequence[Hashable], relations: Iterable[Iterable[tuple]]) -> FiniteUniformity:
    ground = tuple(ground)
    if len(ground) > _MAX_GROUND:
        raise ValueError(f"ground sets larger than {_MAX_GROUND} are out of scope")
    rels = {frozenset(r) for r in relations}
    if not rels:
        raise ValueError("a uniformity needs at least one entourage")
    diag = _diagonal(ground)
    pairs = frozenset(itertools.product(ground, repeat=2))
    for rel in rels:
        if not rel <= pairs:
            raise ValueError("entourage contains pairs outside the ground set")
        if not diag <= rel:
            raise ValueError("every entourage must contain the diagonal")
        if not _is_symmetric(rel):
            raise ValueError("every entourage must be symmetric")
    for rel in rels:
        for sup in _symmetric_supersets(ground, rel):
            if sup not in rels:
                raise ValueError("family is not closed under symmetric supersets")
    for a in rels:
        for b in rels:
            if a & b not in rels:
                raise ValueError("family is not closed under pairwise intersections")
    for v in rels:
        if not any(_compose(w) <= v for w in rels):
            raise ValueError("no composition witness W with W o W inside some entourage")
    return FiniteUniformity(ground, _sorted_sets(rels))


def uniformity_from_partition(ground: Sequence[Hashable], blocks: Iterable[Iterable[Hashable]]) -> FiniteUniformity:
    """The uniformity whose minimum entourage is the equivalence relation
    of the partition: all symmetric supersets of it."""
    ground = tuple(ground)
    blocks = [frozenset(b) for b in blocks]
    seen: set = set()
    for b in blocks:
        if not b:
            raise ValueError("partition blocks must be nonempty")
        if b & seen:
            raise ValueError("partition blocks overlap")
        seen |= b
    if seen != frozenset(ground):
        raise ValueError("partition blocks must cover the ground set")
    equiv = frozenset((x, y) for b in blocks for x in b for y in b)
    return FiniteUniformity(ground, _sorted_sets(_symmetric_supersets(ground, equiv)))


def catalog(ground: Sequence[Hashable]) -> list[FiniteUniformity]:
    """Every uniformity on the ground set, one per partition.

    In this finite symmetric model the minimum entourage V0 is forced to
    be transitive (its composition witness W contains V0, so V0 o V0 is
    inside W o W inside V0), hence an equivalence relation; the family is
    exactly the symmetric supersets of V0.  Enumerating partitions is
    therefore exhaustive, not a sampling strategy;
    ``test_the_catalog_is_every_uniformity`` checks that by raw search.
    """
    ground = tuple(ground)
    models = [uniformity_from_partition(ground, p) for p in partitions(ground)]
    # the minimum entourage is the partition's relation, so it tells the
    # models apart and no later entourage need be compared
    models.sort(key=lambda u: (len(u.entourages), sorted(u.minimum)))
    return models


# ---------------------------------------------------------------------------
# Convergence, Cauchy filters, and the equivalence relation between them


def ball(v: frozenset, x: Hashable) -> frozenset:
    return frozenset(b for (a, b) in v if a == x)


def converges_to(f: FiniteFilter, x: Hashable, u: FiniteUniformity) -> bool:
    """Every entourage ball around x is a member of the filter."""
    return all(ball(v, x) in f.sets for v in u.entourages)


@lru_cache(maxsize=65536)
def _product_pairs(a: frozenset, b: frozenset) -> frozenset:
    return frozenset(itertools.product(a, b))


def is_cauchy(f: FiniteFilter, u: FiniteUniformity) -> bool:
    """For every entourage, some member is small of that order."""
    members = f.members_sorted()
    for v in u.entourages:
        if not any(_product_pairs(m, m) <= v for m in members):
            return False
    return True


def relation_R(f1: FiniteFilter, f2: FiniteFilter, u: FiniteUniformity) -> bool:
    """For every entourage there are members A of f1 and B of f2 with
    A x B inside it."""
    m1 = f1.members_sorted()
    m2 = f2.members_sorted()
    for v in u.entourages:
        if not any(_product_pairs(a, b) <= v for a in m1 for b in m2):
            return False
    return True


def minimal_cauchy(f: FiniteFilter, u: FiniteUniformity, all_filters: Sequence[FiniteFilter] | None = None) -> FiniteFilter:
    """Intersection of the R-class of a Cauchy filter: the completion's
    canonical representative below every equivalent Cauchy filter."""
    if not is_cauchy(f, u):
        raise ValueError("minimal_cauchy needs a Cauchy filter")
    if all_filters is None:
        all_filters = enumerate_filters(f.ground)
    cls = [g for g in all_filters if is_cauchy(g, u) and relation_R(g, f, u)]
    out = intersect_filters(cls)
    if not is_cauchy(out, u):
        raise ValueError("intersection of the R-class failed to be Cauchy")
    for g in cls:
        if not out <= g:
            raise ValueError("minimal Cauchy filter is not below a class member")
    return out

# ---------------------------------------------------------------------------
# The reference verifier


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

# ---------------------------------------------------------------------------
# The entourage walk


def entourage_walk(rows: Sequence[int]) -> tuple[list[int], list[int]]:
    """The holding sets and balls of the bitset model with minimum-entourage
    rows ``rows``, found by walking its 2^k entourages one at a time.

    With p_0, .., p_{k-1} the pairs a < b outside V0 in lexicographic order,
    entourage number s is V0 plus each p_t whose bit t is set in s.
    ``held[t]`` is the set of entourage numbers holding p_t, and
    ``balls[x]`` the family of the entourages' balls around x, both as the
    bitset model encodes them."""
    n = len(rows)
    pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if not rows[a] >> b & 1]
    held = [0] * len(pairs)
    balls = [0] * n
    for s in range(1 << len(pairs)):
        ball = list(rows)
        for t, (a, b) in enumerate(pairs):
            if s >> t & 1:
                ball[a] |= 1 << b
                ball[b] |= 1 << a
                held[t] |= 1 << s
        for x in range(n):
            balls[x] |= 1 << ball[x]
    return held, balls

# ---------------------------------------------------------------------------
# The all-members walk


def containment_sets(bm) -> list[list[int]]:
    """For every two subsets a and b of the bitset model ``bm``'s ground
    set, the entourages containing a x b: the intersection, over the pairs
    of a x b, of the entourages holding that pair.  A pair of V0 (read
    from ``bm.rows``) is held by every entourage, and the pair p_t of
    ``bm.pairs`` by ``bm.held[t]``.  ``cover[0][0]``, for the empty
    product, is every entourage."""
    n = len(bm.rows)
    every = (1 << bm.n_entourages) - 1
    holding = {(x, y): every for x in range(n) for y in range(n) if bm.rows[x] >> y & 1}
    for (a, b), h in zip(bm.pairs, bm.held):
        holding[a, b] = holding[b, a] = h
    return [
        [reduce(operator.and_, (holding[x, y] for x in _bits(a) for y in _bits(b)), every) for b in range(1 << n)]
        for a in range(1 << n)
    ]


def cauchy_over_every_member(cover: list[list[int]], f: int) -> bool:
    """For every entourage some member m of the family f has m x m inside
    it, with every member tried; ``cover`` is a model's
    ``containment_sets``."""
    small = 0
    for m in _bits(f):
        small |= cover[m][m]
    return small == cover[0][0]


def related_rows(cover: list[list[int]], families: Sequence[int]) -> list[list[bool]]:
    """R between every two of the families, on the model whose
    ``containment_sets`` are ``cover``: row i, column j holds when for
    every entourage some member a of families[i] and some member b of
    families[j] have a x b inside it, with every pair of members tried.
    Each column family's reach table (for each subset a, the entourages
    containing a x b for some member b) is built once and read by every
    row."""
    reaches = []
    for f in families:
        reach = [0] * len(cover)
        for b in _bits(f):
            reach = [r | row[b] for r, row in zip(reach, cover)]
        reaches.append(reach)
    rows = []
    for f in families:
        members = _bits(f)
        row = []
        for reach in reaches:
            small = 0
            for a in members:
                small |= reach[a]
            row.append(small == cover[0][0])
        rows.append(row)
    return rows
