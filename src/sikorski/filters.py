"""The finite-model verifier of the filter laws.

The completion is built from Cauchy filters, the relation R between them,
and minimal Cauchy filters.  ``verify_filter_laws`` checks the statements
it leans on, quantifier by quantifier, on every uniformity of every ground
set {0, .., n-1} with n <= 5: every filter, every pair and triple of
filters, every entourage.  Ground sets are tiny, so the point is
certainty, not scale.

Both enumerations are exhaustive.  Every filter on a finite set is the
up-set of its core, so there are 2^n - 1.  A uniformity's minimum
entourage V0 is an equivalence relation (its composition witness W
contains V0, so V0 o V0 is inside W o W inside V0), and the uniformity is
exactly the symmetric supersets of V0; so there is one model per set
partition.  Each model is built straight from its partition as integer
bitsets (see ``_BitsetModel``), in closed form: its 2^k entourages are
never walked one by one.  What depends on the ground size alone (each
family's members, minimal members and filter axioms, and the check that
pair and triple intersections of filters are filters) is computed once per
size, in a ``_Families`` table its models share.  The Cauchy property and
R are read off the minimal members: a filter up(c) has just one, c, so
each is one lookup per filter or pair of filters.

``tests/filter_oracle.py`` keeps the definitions written with Python sets
(filters, uniformities, the catalog, convergence, Cauchy filters, R and
minimal Cauchy filters) and a verifier written with them: the reference
this one is tested against.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Hashable, Iterable, Iterator, Sequence

__all__ = ["FilterLawReport", "ModelReport", "partitions", "verify_filter_laws"]

_MAX_GROUND = 5


def partitions(ground: Sequence[Hashable]) -> Iterator[tuple[tuple, ...]]:
    """All set partitions, each block a sorted tuple, in a deterministic
    refinement-friendly order."""
    items = sorted(ground)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in partitions(rest):
        yield ((first,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]


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
            verdict = "ok" if found == expected else "MISMATCH"
            lines.append(f"  size {size}: {found} filters (expected {expected}), {verdict}")
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
    """A table that evaluates its function once per key."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _Families:
    """What the laws need of the families on {0, .., n-1} that no
    uniformity changes, computed once per ground size and shared by its
    models: a family's members, minimal members and filter axioms, a
    filter's core and label, and the sweep that checks whether the pair
    and triple intersections of ``masks`` are filters.  The sweep visits
    every pair and triple, as each model's count of
    ``intersections_are_filters`` records, and keeps the first eight
    failures it finds.
    """

    def __init__(self, n: int, masks: list[int]):
        self.n = n
        self.masks = masks
        self.full = (1 << n) - 1
        self.up = _up_sets(n)
        self.members = _Memo(_bits)
        self.minimal = _Memo(self._minimal)
        self.axioms = _Memo(self._axioms)
        self._meet_sweep()

    def core(self, f: int) -> int:
        out = self.full
        for s in self.members[f]:
            out &= s
        return out

    def label(self, f: int) -> str:
        return "^" + "".join(str(x) for x in _bits(self.core(f)))

    def _minimal(self, f: int) -> list[int]:
        """The members of f with no other member strictly inside them:
        those outside the union of the members' strict up-sets.  A filter
        up(c) has the one minimal member c."""
        above = 0
        for s in self.members[f]:
            above |= self.up[s] ^ (1 << s)
        return _bits(f & ~above)

    def _axioms(self, f: int) -> str | None:
        """The first filter axiom the family breaks, worded as the
        reference's ``_check_filter_axioms`` words it, or None."""
        if not f >> self.full & 1:
            return "filter axioms violated: ground set missing"
        if f & 1:
            return "filter axioms violated: empty set present"
        members = self.members[f]
        for a in members:
            for b in members:
                if not f >> (a & b) & 1:
                    return f"filter axioms violated: {_bits(a)} meet {_bits(b)} missing"
        for s in members:
            missing = self.up[s] & ~f
            if missing:
                return f"filter axioms violated: superset {_bits(_bits(missing)[0])} missing"
        return None

    def _meet_sweep(self) -> None:
        """Intersections of filters are filters (pairs and triples)."""
        meets = itertools.chain(
            (f & g for f, g in itertools.combinations(self.masks, 2)),
            (f & g & h for f, g, h in itertools.combinations(self.masks, 3)),
        )
        self.meets_visited = 0
        self.meet_failures: list[str] = []
        for m in meets:
            err = self.axioms[m]
            if err and len(self.meet_failures) < 8:
                self.meet_failures.append(f"intersection axioms: {err}")
            self.meets_visited += 1


class _BitsetModel:
    """One uniformity model on the ground set {0, .., n-1}, encoded for the
    exhaustive sweep.

    The model is given by its minimum entourage V0 as row masks: bit y of
    ``rows[x]`` is set when x V0 y (``rows`` is reflexive and symmetric).
    With p_0, .., p_{k-1} the unordered pairs outside V0 (``pairs``),
    entourage number s is V0 plus the pairs p_t whose bit t is set in s:
    the 2^k symmetric supersets of V0, which are every entourage of the
    model.  The tables below are built without walking them one by one.

    A subset of the ground set is an int (bit x for point x); a family of
    subsets, such as a filter, is an int over the 2^n subsets (bit s for
    subset s), so intersecting filters is ``&`` and ``f <= g`` is
    ``f & ~g == 0``.  A set of entourages is an int over their numbers: a
    pair of V0 is held by every entourage, and p_t by the entourages whose
    number has bit t set (``held[t]``, a run of 2^t ones in every 2^(t+1)
    positions).  ``cover[a][b]`` is the set of entourages containing
    a x b, the intersection over the pairs of a x b of the entourages
    holding that pair; ``balls[x]`` is the family of entourage balls
    around x.  The predicates keep their quantifiers: "for every entourage
    there is a member (pair) small of that order" is the union of the
    members' cover sets compared with the set of all entourages.  That
    union is taken over the minimal members alone, which the ground size's
    ``_Families`` keeps: ``cover[a][b]`` can only shrink as a or b grows,
    so the cover set of any members lies inside that of minimal members
    below them.  This holds for any family, filter or not.
    """

    def __init__(self, rows: Sequence[int], table: _Families):
        n = len(rows)
        full = table.full
        self.rows = tuple(rows)
        self.minimal = table.minimal
        self.pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if not rows[a] >> b & 1]
        self.n_entourages = 1 << len(self.pairs)
        self.every_entourage = every = (1 << self.n_entourages) - 1
        self.held = [((1 << 2**t) - 1 << 2**t) * every // ((1 << 2 ** (t + 1)) - 1) for t in range(len(self.pairs))]
        # The ball of entourage s around x is rows[x] plus the partners of x
        # among the pairs of s; every point outside rows[x] is such a partner
        # in some pair p_t, so the balls are exactly the supersets of rows[x].
        self.balls = [table.up[row] for row in rows]
        holding = [every if rows[i] >> j & 1 else 0 for i in range(n) for j in range(n)]
        for (a, b), h in zip(self.pairs, self.held):
            holding[a * n + b] = holding[b * n + a] = h
        # row_cover[i][b]: entourages containing {i} x b
        row_cover = []
        for i in range(n):
            row = [every] * (full + 1)
            for b in range(1, full + 1):
                low = b & -b
                row[b] = row[b ^ low] & holding[i * n + low.bit_length() - 1]
            row_cover.append(row)
        cover = [[every] * (full + 1)]
        for a in range(1, full + 1):
            low = a & -a
            cover.append([c & r for c, r in zip(cover[a ^ low], row_cover[low.bit_length() - 1])])
        self.cover = cover

    def converges(self, f: int, x: int) -> bool:
        """Every entourage ball around x is a member."""
        return self.balls[x] & ~f == 0

    def cauchy(self, f: int) -> bool:
        """For every entourage some member m has m x m inside it."""
        small = 0
        for m in self.minimal[f]:
            small |= self.cover[m][m]
        return small == self.every_entourage

    def related(self, f1: int, f2: int) -> bool:
        """For every entourage there are members a of f1 and b of f2 with
        a x b inside it."""
        small = 0
        for a in self.minimal[f1]:
            row = self.cover[a]
            for b in self.minimal[f2]:
                small |= row[b]
        return small == self.every_entourage


def _models(table: _Families) -> list[_BitsetModel]:
    """Every uniformity on {0, .., n-1}, one per partition, ordered by
    entourage count and then by the sorted pairs of the minimum entourage
    (the partition's relation, which tells the models apart)."""
    size = table.n
    models = []
    for blocks in partitions(range(size)):
        rows = [0] * size
        for block in blocks:
            mask = sum(1 << x for x in block)
            for x in block:
                rows[x] = mask
        models.append(_BitsetModel(rows, table))
    models.sort(key=lambda m: (m.n_entourages, [(x, y) for x in range(size) for y in _bits(m.rows[x])]))
    return models


def _filters(size: int) -> list[int]:
    """Every filter on {0, .., size-1}: the up-set of each nonempty core,
    ordered by (core size, core)."""
    cores = sorted(range(1, 1 << size), key=lambda c: (len(_bits(c)), _bits(c)))
    return [_up_sets(size)[c] for c in cores]


def _check_model(size: int, index: int, bm: _BitsetModel, table: _Families) -> ModelReport:
    """Check every law on one model, visiting every pair and triple of
    filters the laws quantify over.  A failed law and an intersection that
    breaks the filter axioms are both recorded as failures; the first eight
    are kept.  The intersection sweep depends on no uniformity, so its
    count and failures come from ``table``, where it ran once."""
    masks = table.masks
    nf = len(masks)
    failures = list(table.meet_failures)
    counts: dict[str, int] = {}
    label = table.label

    def bump(name: str, n: int = 1) -> None:
        if n:
            counts[name] = counts.get(name, 0) + n

    def fail(msg: str) -> None:
        if len(failures) < 8:
            failures.append(msg)

    def meet(families: Iterable[int]) -> int:
        out = reduce(operator.and_, families)
        err = table.axioms[out]
        if err:
            fail(f"intersection axioms: {err}")
        return out

    # intersections of filters are filters (pairs and triples)
    bump("intersections_are_filters", table.meets_visited)

    # intersections of filters converging to x converge to x
    points = range(len(bm.rows))
    conv = [[bm.converges(f, x) for f in masks] for x in points]
    for x in points:
        pointing = [f for f, ok in zip(masks, conv[x]) if ok]
        for pair in itertools.combinations(pointing, 2):
            if not bm.converges(meet(pair), x):
                fail(f"convergence lost at {x} for {label(pair[0])},{label(pair[1])}")
            bump("convergent_intersections")
        if pointing:
            if not bm.converges(meet(pointing), x):
                fail(f"convergence lost at {x} for the full convergent family")
            bump("convergent_intersections")

    # convergence implies Cauchy
    cauchy = [bm.cauchy(f) for f in masks]
    for i, f in enumerate(masks):
        if any(c[i] for c in conv) and not cauchy[i]:
            fail(f"{label(f)} converges but is not Cauchy")
    bump("convergent_implies_cauchy", nf)

    # R holds exactly when both filters and their intersection are Cauchy
    r = [[bm.related(f, g) for g in masks] for f in masks]
    for i, j in itertools.product(range(nf), repeat=2):
        both = cauchy[i] and cauchy[j] and bm.cauchy(meet((masks[i], masks[j])))
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
        if not bm.cauchy(minimal):
            fail(f"class intersection of {label(f)} is not Cauchy")
        if not bm.related(minimal, f):
            fail(f"class intersection of {label(f)} left its class")
        for g in cls:
            if minimal & ~g:
                fail(f"class intersection of {label(f)} not below {label(g)}")
        # cross-check: the up-set of the union of class cores
        union_core = reduce(operator.or_, (table.core(g) for g in cls))
        if minimal != table.up[union_core]:
            fail(f"class intersection of {label(f)} is not the up-set of the union of cores")

    checks = tuple(sorted(counts.items()))
    return ModelReport(size, index, bm.n_entourages, nf, checks, tuple(failures))


def verify_filter_laws(max_size: int = 4) -> FilterLawReport:
    """Exhaustively check the convergence/Cauchy statements on every
    uniformity model with ground size 1..max_size."""
    if not (1 <= max_size <= _MAX_GROUND):
        raise ValueError(f"max_size must be between 1 and {_MAX_GROUND}")
    filter_counts = []
    models = []
    for size in range(1, max_size + 1):
        table = _Families(size, _filters(size))
        filter_counts.append((size, len(table.masks), 2**size - 1))
        models.extend(_check_model(size, index, bm, table) for index, bm in enumerate(_models(table)))
    return FilterLawReport(max_size, tuple(models), tuple(filter_counts))
