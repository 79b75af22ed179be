"""Filters and uniformities on small finite sets.

Everything here is exhaustive: filters are enumerated, uniformity models
are enumerated, and the convergence/Cauchy statements the completion
construction leans on are checked literally, quantifier by quantifier.
Ground sets are tiny (size <= 5), so the point is certainty, not scale.

The public API works on frozensets.  The sweep behind
``verify_filter_laws`` works on integer bitsets instead (subsets, filters
and entourages as masks, see ``_BitsetModel``): it visits the same pairs
and triples and checks the same laws, each law once.  The frozenset form
of the sweep is kept in the tests as the reference it is compared against.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Hashable, Iterable, Iterator, Sequence

__all__ = [
    "FiniteFilter",
    "FiniteUniformity",
    "FilterLawReport",
    "ModelReport",
    "principal_filter",
    "enumerate_filters",
    "filter_from_base",
    "intersect_filters",
    "make_uniformity",
    "discrete_uniformity",
    "indiscrete_uniformity",
    "uniformity_from_partition",
    "partitions",
    "catalog",
    "ball",
    "converges_to",
    "is_cauchy",
    "relation_R",
    "minimal_cauchy",
    "verify_filter_laws",
]

_MAX_GROUND = 5


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


def filter_from_base(ground: Sequence[Hashable], base: Iterable[Iterable[Hashable]]) -> FiniteFilter:
    """Upward closure of a base.  The base must be nonempty, free of the
    empty set, and downward directed; violations name the offending pair."""
    sets = [frozenset(b) for b in base]
    if not sets:
        raise ValueError("a filter base must be nonempty")
    universe = frozenset(ground)
    for s in sets:
        if not s:
            raise ValueError("a filter base may not contain the empty set")
        if not s <= universe:
            raise ValueError(f"base member {sorted(s)} is not a subset of the ground set")
    for a, b in itertools.combinations(sets, 2):
        meet = a & b
        if not any(c <= meet for c in sets):
            raise ValueError(f"base is not directed: {sorted(a)} and {sorted(b)} admit no member below their intersection")
    return FiniteFilter(tuple(ground), _upward_closure(ground, sets))


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


def discrete_uniformity(ground: Sequence[Hashable]) -> FiniteUniformity:
    return uniformity_from_partition(ground, [[x] for x in ground])


def indiscrete_uniformity(ground: Sequence[Hashable]) -> FiniteUniformity:
    return uniformity_from_partition(ground, [list(ground)])


def partitions(ground: Sequence[Hashable]) -> Iterator[tuple[frozenset, ...]]:
    """All set partitions, in a deterministic refinement-friendly order."""
    items = sorted(ground)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in partitions(rest):
        yield (frozenset((first,)),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + (block | {first},) + sub[i + 1 :]


def catalog(ground: Sequence[Hashable]) -> list[FiniteUniformity]:
    """Every uniformity on the ground set, one per partition.

    In this finite symmetric model the minimum entourage V0 is forced to
    be transitive (its composition witness W contains V0, so V0 o V0 is
    inside W o W inside V0), hence an equivalence relation; the family is
    exactly the symmetric supersets of V0.  Enumerating partitions is
    therefore exhaustive, not a sampling strategy.
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
# The exhaustive sweep


@dataclass(frozen=True)
class ModelReport:
    ground_size: int
    model_index: int
    n_entourages: int
    n_filters: int
    checks: tuple[tuple[str, int], ...]
    failures: tuple[str, ...]


@dataclass(frozen=True)
class FilterLawReport:
    max_size: int
    models: tuple[ModelReport, ...]
    filter_counts: tuple[tuple[int, int, int], ...]  # (size, found, expected)

    @property
    def passed(self) -> bool:
        return not self.first_counterexample

    @property
    def first_counterexample(self) -> str | None:
        for size, found, expected in self.filter_counts:
            if found != expected:
                return f"size {size}: {found} filters, expected {expected}"
        for m in self.models:
            if m.failures:
                return f"size {m.ground_size} model {m.model_index}: {m.failures[0]}"
        return None

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for m in self.models:
            for name, count in m.checks:
                out[name] = out.get(name, 0) + count
        return out

    def summary_text(self) -> str:
        lines = [f"finite-model verification up to ground size {self.max_size}"]
        for size, found, expected in self.filter_counts:
            lines.append(f"  size {size}: {found} filters (expected {expected}), ok")
        lines.append(f"  models checked: {len(self.models)}")
        for name, count in sorted(self.totals().items()):
            lines.append(f"  {name}: {count} checks")
        cex = self.first_counterexample
        lines.append("  counterexamples: none" if cex is None else f"  FIRST COUNTEREXAMPLE: {cex}")
        return "\n".join(lines)


def _bits(mask: int) -> list[int]:
    """Positions of the set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=None)
def _up_sets(n: int) -> tuple[int, ...]:
    """For each subset s of an n-point ground set, the family of its supersets."""
    subsets = range(1 << n)
    return tuple(sum(1 << t for t in subsets if t & s == s) for s in subsets)


class _Memo(dict):
    """A per-model table that evaluates its function once per key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _BitsetModel:
    """One uniformity model, encoded for the exhaustive sweep.

    A subset of the ground set is an int (bit i for ``ground[i]``); a family
    of subsets, such as a filter, is an int over the 2^n subsets (bit s for
    subset s), so intersecting filters is ``&`` and ``f <= g`` is
    ``f & ~g == 0``.  A set of entourages is an int over their positions in
    ``u.entourages``.  ``cover[a][b]`` is the set of entourages containing
    a x b, the intersection over the pairs of a x b of the entourages
    holding that pair; ``balls[x]`` is the family of entourage balls around
    ``ground[x]``.  The predicates keep their quantifiers: "for every
    entourage there is a member (pair) small of that order" is the union of
    the members' cover sets compared with the set of all entourages.  The
    filter axioms, the Cauchy predicate and a filter's reach table are
    evaluated once per distinct family and then looked up; ``related`` reads
    the second filter's reach table.
    """

    def __init__(self, u: FiniteUniformity):
        self.ground = u.ground
        n = len(u.ground)
        self.full = (1 << n) - 1
        self.up = _up_sets(n)
        self.every_entourage = (1 << len(u.entourages)) - 1
        pos = {x: i for i, x in enumerate(u.ground)}
        holding = [0] * (n * n)
        balls = [0] * n
        for e, v in enumerate(u.entourages):
            ent = 1 << e
            rows = [0] * n
            for a, b in v:
                i, j = pos[a], pos[b]
                holding[i * n + j] |= ent
                rows[i] |= 1 << j
            for x in range(n):
                balls[x] |= 1 << rows[x]
        self.balls = balls
        # row_cover[i][b]: entourages containing {ground[i]} x b
        row_cover = []
        for i in range(n):
            row = [self.every_entourage] * (self.full + 1)
            for b in range(1, self.full + 1):
                low = b & -b
                row[b] = row[b ^ low] & holding[i * n + low.bit_length() - 1]
            row_cover.append(row)
        cover = [[self.every_entourage] * (self.full + 1)]
        for a in range(1, self.full + 1):
            low = a & -a
            cover.append([c & r for c, r in zip(cover[a ^ low], row_cover[low.bit_length() - 1])])
        self.cover = cover
        self.members = _Memo(_bits)
        self.axioms = _Memo(self._axioms)
        self.cauchy = _Memo(self._cauchy)
        self._reach = _Memo(self._reach_of)

    def family(self, sets: Iterable[frozenset]) -> int:
        bit = {x: 1 << i for i, x in enumerate(self.ground)}
        return sum(1 << sum(bit[x] for x in s) for s in sets)

    def elements(self, s: int) -> list:
        return sorted(self.ground[i] for i in _bits(s))

    def core(self, f: int) -> int:
        out = self.full
        for s in self.members[f]:
            out &= s
        return out

    def label(self, f: int) -> str:
        return "^" + "".join(str(x) for x in self.elements(self.core(f)))

    def _axioms(self, f: int) -> str | None:
        """The first filter axiom the family breaks, worded as
        ``_check_filter_axioms`` words it, or None."""
        if not f >> self.full & 1:
            return "filter axioms violated: ground set missing"
        if f & 1:
            return "filter axioms violated: empty set present"
        members = self.members[f]
        for a in members:
            for b in members:
                if not f >> (a & b) & 1:
                    return f"filter axioms violated: {self.elements(a)} meet {self.elements(b)} missing"
        for s in members:
            missing = self.up[s] & ~f
            if missing:
                return f"filter axioms violated: superset {self.elements(_bits(missing)[0])} missing"
        return None

    def converges(self, f: int, x: int) -> bool:
        """Every entourage ball around ``ground[x]`` is a member."""
        return self.balls[x] & ~f == 0

    def _cauchy(self, f: int) -> bool:
        """For every entourage some member m has m x m inside it."""
        small = 0
        for m in self.members[f]:
            small |= self.cover[m][m]
        return small == self.every_entourage

    def _reach_of(self, f: int) -> list[int]:
        """For each subset a, the entourages containing a x b for some member b."""
        reach = [0] * (self.full + 1)
        for b in self.members[f]:
            reach = [r | row[b] for r, row in zip(reach, self.cover)]
        return reach

    def related(self, f1: int, f2: int) -> bool:
        """For every entourage there are members a of f1 and b of f2 with
        a x b inside it."""
        reach = self._reach[f2]
        small = 0
        for a in self.members[f1]:
            small |= reach[a]
        return small == self.every_entourage


def _check_model(size: int, index: int, u: FiniteUniformity, fs: list[FiniteFilter]) -> ModelReport:
    """Check every law on one model, visiting every pair and triple of
    filters the laws quantify over.  A failed law and an intersection that
    breaks the filter axioms are both recorded as failures; the first eight
    are kept."""
    bm = _BitsetModel(u)
    masks = [bm.family(f.sets) for f in fs]
    nf = len(masks)
    failures: list[str] = []
    counts: dict[str, int] = {}
    label = bm.label

    def bump(name: str, n: int = 1) -> None:
        if n:
            counts[name] = counts.get(name, 0) + n

    def fail(msg: str) -> None:
        if len(failures) < 8:
            failures.append(msg)

    def meet(families: Iterable[int]) -> int:
        out = reduce(operator.and_, families)
        err = bm.axioms[out]
        if err:
            fail(f"intersection axioms: {err}")
        return out

    # intersections of filters are filters (pairs and triples)
    meets = itertools.chain(
        (f & g for f, g in itertools.combinations(masks, 2)),
        (f & g & h for f, g, h in itertools.combinations(masks, 3)),
    )
    visited = 0
    for m in meets:
        err = bm.axioms[m]
        if err:
            fail(f"intersection axioms: {err}")
        visited += 1
    bump("intersections_are_filters", visited)

    # intersections of filters converging to x converge to x
    conv = [[bm.converges(f, x) for f in masks] for x in range(len(u.ground))]
    for x, point in enumerate(u.ground):
        pointing = [f for f, ok in zip(masks, conv[x]) if ok]
        for pair in itertools.combinations(pointing, 2):
            if not bm.converges(meet(pair), x):
                fail(f"convergence lost at {point} for {label(pair[0])},{label(pair[1])}")
            bump("convergent_intersections")
        if pointing:
            if not bm.converges(meet(pointing), x):
                fail(f"convergence lost at {point} for the full convergent family")
            bump("convergent_intersections")

    # convergence implies Cauchy
    cauchy = [bm.cauchy[f] for f in masks]
    for i, f in enumerate(masks):
        if any(c[i] for c in conv) and not cauchy[i]:
            fail(f"{label(f)} converges but is not Cauchy")
    bump("convergent_implies_cauchy", nf)

    # R holds exactly when both filters and their intersection are Cauchy
    r = [[bm.related(f, g) for g in masks] for f in masks]
    for i, j in itertools.product(range(nf), repeat=2):
        both = cauchy[i] and cauchy[j] and bm.cauchy[meet((masks[i], masks[j]))]
        if r[i][j] != both:
            fail(f"R mismatch for {label(masks[i])},{label(masks[j])}: R={r[i][j]} cauchy-criterion={both}")
    bump("r_equivalence_criterion", nf * nf)

    # R is an equivalence on the Cauchy filters; transitivity compares rows:
    # for Cauchy i R j, every Cauchy k with j R k must have i R k
    for i in range(nf):
        if cauchy[i] and not r[i][i]:
            fail(f"R not reflexive at {label(masks[i])}")
    bump("r_reflexive", nf)
    for i, j in itertools.combinations(range(nf), 2):
        if r[i][j] != r[j][i]:
            fail(f"R not symmetric at {label(masks[i])},{label(masks[j])}")
    bump("r_symmetric", nf * (nf - 1) // 2)
    cauchy_set = sum(1 << i for i in range(nf) if cauchy[i])
    rows = [sum(1 << j for j in range(nf) if r[i][j]) for i in range(nf)]
    for i, j in itertools.product(range(nf), repeat=2):
        if cauchy[i] and cauchy[j] and r[i][j]:
            for k in _bits(cauchy_set & rows[j] & ~rows[i]):
                fail(f"R not transitive at {label(masks[i])},{label(masks[j])},{label(masks[k])}")
    bump("r_transitive", nf**3)

    # the class intersection is a minimal equivalent Cauchy filter
    for i, f in enumerate(masks):
        if not cauchy[i]:
            continue
        bump("minimal_cauchy")
        cls = [masks[j] for j in _bits(cauchy_set & rows[i])]
        if not cls:
            fail(f"R-class of {label(f)} is empty")
            continue
        minimal = meet(cls)
        if not bm.cauchy[minimal]:
            fail(f"class intersection of {label(f)} is not Cauchy")
        if not bm.related(minimal, f):
            fail(f"class intersection of {label(f)} left its class")
        for g in cls:
            if minimal & ~g:
                fail(f"class intersection of {label(f)} not below {label(g)}")
        # cross-check: the up-set of the union of class cores
        union_core = reduce(operator.or_, (bm.core(g) for g in cls))
        if minimal != bm.up[union_core]:
            fail(f"class intersection of {label(f)} is not the up-set of the union of cores")

    checks = tuple(sorted(counts.items()))
    return ModelReport(size, index, len(u.entourages), len(fs), checks, tuple(failures))


def verify_filter_laws(max_size: int = 4) -> FilterLawReport:
    """Exhaustively check the convergence/Cauchy statements on every
    uniformity model with ground size 1..max_size."""
    if not (1 <= max_size <= _MAX_GROUND):
        raise ValueError(f"max_size must be between 1 and {_MAX_GROUND}")
    filter_counts = []
    models = []
    for size in range(1, max_size + 1):
        ground = tuple(range(size))
        fs = enumerate_filters(ground)
        filter_counts.append((size, len(fs), 2**size - 1))
        models.extend(_check_model(size, index, u, fs) for index, u in enumerate(catalog(ground)))
    return FilterLawReport(max_size, tuple(models), tuple(filter_counts))
