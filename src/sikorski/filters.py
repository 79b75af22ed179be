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
never walked one by one.  The partitions are sorted before any model is
built, and each model is built when the sweep reaches it and dropped
after its check, so only one model's tables are alive at a time.  What
depends on the ground size alone (each family's members, minimal
members, core and filter axioms, the check that pair and triple
intersections of filters are filters, and each pair meet: the index of
the listed filter it equals and whether it breaks the filter axioms) is
computed once per size, in a ``_Families`` table its models share.  The
Cauchy property and R are read off the minimal members: a filter up(c)
has just one, c, so the Cauchy property is one lookup per filter, and R
is one integer row per filter, over the filter indices, on whose bits
the R laws are checked.  A law about a pair meet reads the meet's bit in
those rows by its index.

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
    models: a family's members, minimal members, core and filter axioms,
    a filter's label, the index of each listed mask (``index``, the first
    when a mask is listed twice), and the sweep over the pair and triple
    intersections of ``masks``.

    The sweep records each pair meet: ``meet_of[i][j]`` is the index of
    the listed mask equal to ``masks[i] & masks[j]``, or None when none
    is, and bit j of ``broken[i]`` is set when that meet breaks the filter
    axioms.  It then checks whether the pair and triple intersections are
    filters, visiting every pair and triple, as each model's count of
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
        self.core = _Memo(self._core)
        self.axioms = _Memo(self._axioms)
        self.index: dict[int, int] = {}
        for k, f in enumerate(masks):
            self.index.setdefault(f, k)
        self._meet_sweep()

    def _core(self, f: int) -> int:
        out = self.full
        for s in self.members[f]:
            out &= s
        return out

    def label(self, f: int) -> str:
        return "^" + "".join(str(x) for x in _bits(self.core[f]))

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
        """Index every pair meet; intersections of filters are filters
        (pairs and triples)."""
        masks, index, axioms = self.masks, self.index, self.axioms
        self.meet_of = [[index.get(f & g) for g in masks] for f in masks]
        self.broken = [sum(1 << j for j, g in enumerate(masks) if axioms[f & g]) for f in masks]
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

    R is computed a row at a time (``relation_rows``): one int per family
    over the family indices, from the cover rows of the family's minimal
    members ORed once.
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

    def relation_rows(self, families: Sequence[int]) -> list[int]:
        """R between every two of ``families``, one int per family: bit j
        of row i is set when for every entourage there are members a of
        families[i] and b of families[j] with a x b inside it.

        Row i ORs the cover rows of its family's minimal members a once,
        into its reach (for each subset b, the entourages containing a x b
        for some a), and reads the reach at each column family's minimal
        members: one lookup at the first, ORed with the others.  A filter
        has one minimal member, its core.  A family with no member is
        related to nothing."""
        every = self.every_entourage
        columns = [self.minimal[g] for g in families]
        firsts = [m[0] if m else 0 for m in columns]
        others = [(j, b) for j, m in enumerate(columns) for b in m[1:]]
        empty = sum(1 << j for j, m in enumerate(columns) if not m)
        rows = []
        for f in families:
            members = self.minimal[f]
            reach = self.cover[members[0]] if members else [0] * len(self.cover)
            for a in members[1:]:
                reach = list(map(operator.or_, reach, self.cover[a]))
            small = [reach[b] for b in firsts]
            for j, b in others:
                small[j] |= reach[b]
            rows.append(sum(1 << j for j, s in enumerate(small) if s == every) & ~empty)
        return rows


def _models(table: _Families) -> Iterator[_BitsetModel]:
    """Every uniformity on {0, .., n-1}, one per partition, ordered by
    entourage count and then by the sorted pairs of the minimum entourage
    (the partition's relation, which tells the models apart).

    The partitions' rows are sorted first, and each model is built only
    when the caller reaches it, so a caller that drops a model before
    taking the next holds one model's tables at a time.  The sort key
    needs no tables: V0 holds len(relation) ordered pairs, so
    (size^2 - len(relation)) / 2 unordered pairs lie outside it, and the
    model has 2 to that many entourages."""
    size = table.n
    relations = []
    for blocks in partitions(range(size)):
        rows = [0] * size
        for block in blocks:
            mask = sum(1 << x for x in block)
            for x in block:
                rows[x] = mask
        relation = [(x, y) for x in range(size) for y in _bits(rows[x])]
        relations.append((1 << (size * size - len(relation)) // 2, relation, rows))
    relations.sort(key=lambda r: r[:2])
    for _, _, rows in relations:
        yield _BitsetModel(rows, table)


def _filters(size: int) -> list[int]:
    """Every filter on {0, .., size-1}: the up-set of each nonempty core,
    ordered by (core size, core)."""
    cores = sorted(range(1, 1 << size), key=lambda c: (len(_bits(c)), _bits(c)))
    return [_up_sets(size)[c] for c in cores]


def _check_model(index: int, bm: _BitsetModel, table: _Families) -> ModelReport:
    """Check every law on one model, visiting every pair and triple of
    filters the laws quantify over.  A failed law and an intersection that
    breaks the filter axioms are both recorded as failures; the first eight
    are kept.  The intersection sweep depends on no uniformity, so its
    count and failures come from ``table``, where it ran once.

    R and the Cauchy filters are int rows over the filter indices, and the
    laws read their bits: the criterion compares each R row with the row
    of filters that are Cauchy together with it and whose intersection is
    Cauchy, and transitivity visits Cauchy i, then j in its row, then the
    Cauchy k in j's row and not in i's.  The counts stay those of the
    quantifiers (every pair, every triple), and the failures come in the
    order the loop over every pair and triple would find them.

    A pair meet, and the class intersection, is read by the index k of
    the listed filter it equals: whether it converges at x is bit k of the
    filters converging there, whether it is Cauchy is ``cauchy[k]``, R
    between it and filter i is bit i of R row k, and whether it breaks the
    filter axioms is a bit of ``table.broken``.  Each read is the
    definition applied to a bit-equal family.  Only a meet that no listed
    mask equals, which a table holding a family that is not a filter can
    have, is formed and computed directly."""
    masks = table.masks
    nf = len(masks)
    meet_of, broken, axioms = table.meet_of, table.broken, table.axioms
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
        err = axioms[out]
        if err:
            fail(f"intersection axioms: {err}")
        return out

    # intersections of filters are filters (pairs and triples)
    bump("intersections_are_filters", table.meets_visited)

    # intersections of filters converging to x converge to x
    convergent = 0
    for x in range(len(bm.rows)):
        at_x = [i for i, f in enumerate(masks) if bm.converges(f, x)]
        at_x_set = sum(1 << i for i in at_x)
        convergent |= at_x_set
        for a, i in enumerate(at_x):
            meets = meet_of[i]
            for j in at_x[a + 1 :]:
                if broken[i] >> j & 1:
                    fail(f"intersection axioms: {axioms[masks[i] & masks[j]]}")
                k = meets[j]
                if not (at_x_set >> k & 1 if k is not None else bm.converges(masks[i] & masks[j], x)):
                    fail(f"convergence lost at {x} for {label(masks[i])},{label(masks[j])}")
        bump("convergent_intersections", len(at_x) * (len(at_x) - 1) // 2)
        if at_x:
            if not bm.converges(meet(masks[i] for i in at_x), x):
                fail(f"convergence lost at {x} for the full convergent family")
            bump("convergent_intersections")

    # convergence implies Cauchy
    cauchy = [bm.cauchy(f) for f in masks]
    cauchy_set = sum(1 << i for i in range(nf) if cauchy[i])
    for i in _bits(convergent & ~cauchy_set):
        fail(f"{label(masks[i])} converges but is not Cauchy")
    bump("convergent_implies_cauchy", nf)

    # R holds exactly when both filters and their intersection are Cauchy
    rows = bm.relation_rows(masks)
    cauchy_bits = _bits(cauchy_set)
    for i, f in enumerate(masks):
        both = bad = 0
        if cauchy[i]:
            meets = meet_of[i]
            for j in cauchy_bits:
                k = meets[j]
                if cauchy[k] if k is not None else bm.cauchy(f & masks[j]):
                    both |= 1 << j
            bad = broken[i] & cauchy_set
        mismatch = both ^ rows[i]
        for j in _bits(bad | mismatch):
            if bad >> j & 1:
                fail(f"intersection axioms: {axioms[f & masks[j]]}")
            if mismatch >> j & 1:
                r, c = rows[i] >> j & 1 == 1, both >> j & 1 == 1
                fail(f"R mismatch for {label(f)},{label(masks[j])}: R={r} cauchy-criterion={c}")
    bump("r_equivalence_criterion", nf * nf)

    # R is an equivalence on the Cauchy filters; transitivity compares rows:
    # for Cauchy i R j, every Cauchy k with j R k must have i R k
    for i in cauchy_bits:
        if not rows[i] >> i & 1:
            fail(f"R not reflexive at {label(masks[i])}")
    bump("r_reflexive", nf)
    # columns[j]: the i with i R j, so row i and column i agree when R is symmetric at i
    columns = [0] * nf
    for i, row in enumerate(rows):
        for j in _bits(row):
            columns[j] |= 1 << i
    for i in range(nf):
        for j in _bits((rows[i] ^ columns[i]) >> i + 1):
            fail(f"R not symmetric at {label(masks[i])},{label(masks[i + 1 + j])}")
    bump("r_symmetric", nf * (nf - 1) // 2)
    for i in cauchy_bits:
        for j in _bits(cauchy_set & rows[i]):
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
        k = table.index.get(minimal)
        if not (cauchy[k] if k is not None else bm.cauchy(minimal)):
            fail(f"class intersection of {label(f)} is not Cauchy")
        if not (rows[k] >> i if k is not None else bm.relation_rows([minimal, f])[0] >> 1) & 1:
            fail(f"class intersection of {label(f)} left its class")
        for g in cls:
            if minimal & ~g:
                fail(f"class intersection of {label(f)} not below {label(g)}")
        # cross-check: the up-set of the union of class cores
        union_core = reduce(operator.or_, (table.core[g] for g in cls))
        if minimal != table.up[union_core]:
            fail(f"class intersection of {label(f)} is not the up-set of the union of cores")

    checks = tuple(sorted(counts.items()))
    return ModelReport(table.n, index, bm.n_entourages, nf, checks, tuple(failures))


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
        # each model is built as the loop reaches it and dropped after its check
        models.extend(_check_model(index, bm, table) for index, bm in enumerate(_models(table)))
    return FilterLawReport(max_size, tuple(models), tuple(filter_counts))
