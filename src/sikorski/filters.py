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
depends on the ground size alone (the filters, listed by their cores,
their filter axioms, the check that pair and triple intersections of
filters are filters, and the index of each pair meet in the list) is
computed once per size, in a ``_Families`` table its models share.  The
list is closed under meets, as up(a) & up(b) = up(a | b), so every law
about a meet reads it by its index.  The Cauchy property and R are read
off the cores: up(c) has the one minimal member c, so the Cauchy
property is one lookup per filter, and R is one integer row per filter,
over the filter indices, on whose bits the R laws are checked.

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


class _Families:
    """The filters on {0, .., n-1} and what the laws need of them that no
    uniformity changes, computed once per ground size and shared by its
    models.  ``cores`` lists every nonempty subset by (size, subset), and
    ``masks`` their up-sets, which are every filter; ``index`` maps each
    filter to its place in the list, ``axioms`` each filter to the first
    filter axiom it breaks, or None.

    The sweep records each pair meet: ``meet_of[i][j]`` is the index of
    ``masks[i] & masks[j]``, the up-set of the union of the two cores.  It
    then checks whether the pair and triple intersections are filters,
    visiting every pair and triple, as each model's count of
    ``intersections_are_filters`` records, and keeps the first eight
    failures it finds.
    """

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n) - 1
        self.up = _up_sets(n)
        self.cores = sorted(range(1, 1 << n), key=lambda c: (len(_bits(c)), _bits(c)))
        self.masks = [self.up[c] for c in self.cores]
        self.index = {f: k for k, f in enumerate(self.masks)}
        self.axioms = {f: self._axioms(f) for f in self.masks}
        self._meet_sweep()

    def label(self, k: int) -> str:
        return "^" + "".join(str(x) for x in _bits(self.cores[k]))

    def _axioms(self, f: int) -> str | None:
        """The first filter axiom the family breaks, worded as the
        reference's ``_check_filter_axioms`` words it, or None."""
        if not f >> self.full & 1:
            return "filter axioms violated: ground set missing"
        if f & 1:
            return "filter axioms violated: empty set present"
        members = _bits(f)
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
        masks, index = self.masks, self.index
        self.meet_of = [[index[f & g] for g in masks] for f in masks]
        meets = itertools.chain(
            (f & g for f, g in itertools.combinations(masks, 2)),
            (f & g & h for f, g, h in itertools.combinations(masks, 3)),
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
    members' cover sets compared with the set of all entourages.  A filter
    up(c) is read at its core c alone: ``cover[a][b]`` can only shrink as
    a or b grows, so the cover set of any members lies inside that of the
    cores below them, and the union is ``cover[c][c]`` (or ``cover[a][b]``
    for two filters).

    R is computed a row at a time (``relation_rows``): one int per filter
    over the filter indices, read off the cover row of the filter's core.
    """

    def __init__(self, rows: Sequence[int], table: _Families):
        n = len(rows)
        full = table.full
        self.rows = tuple(rows)
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

    def cauchy(self, c: int) -> bool:
        """For every entourage the filter up(c) has a member m with m x m
        inside it: c x c is."""
        return self.cover[c][c] == self.every_entourage

    def relation_rows(self, cores: Sequence[int]) -> list[int]:
        """R between every two of the filters up(c) for c in ``cores``, one
        int per filter: bit j of row i is set when for every entourage
        there are members a of up(cores[i]) and b of up(cores[j]) with
        a x b inside it, that is when cores[i] x cores[j] is inside every
        entourage."""
        every = self.every_entourage
        rows = []
        for a in cores:
            reach = self.cover[a]
            rows.append(sum(1 << j for j, b in enumerate(cores) if reach[b] == every))
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

    A pair meet, and the class intersection, is read by its index k in
    the filter list: whether it converges at x is bit k of the filters
    converging there, whether it is Cauchy is ``cauchy[k]``, and R between
    it and filter i is bit i of R row k.  Each read is the definition
    applied to a bit-equal filter."""
    masks, cores = table.masks, table.cores
    nf = len(masks)
    meet_of, axioms, label = table.meet_of, table.axioms, table.label
    failures = list(table.meet_failures)
    counts: dict[str, int] = {}

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
                if not at_x_set >> meets[j] & 1:
                    fail(f"convergence lost at {x} for {label(i)},{label(j)}")
        bump("convergent_intersections", len(at_x) * (len(at_x) - 1) // 2)
        if at_x:
            if not bm.converges(meet(masks[i] for i in at_x), x):
                fail(f"convergence lost at {x} for the full convergent family")
            bump("convergent_intersections")

    # convergence implies Cauchy
    cauchy = [bm.cauchy(c) for c in cores]
    cauchy_set = sum(1 << i for i in range(nf) if cauchy[i])
    for i in _bits(convergent & ~cauchy_set):
        fail(f"{label(i)} converges but is not Cauchy")
    bump("convergent_implies_cauchy", nf)

    # R holds exactly when both filters and their intersection are Cauchy
    rows = bm.relation_rows(cores)
    cauchy_bits = _bits(cauchy_set)
    for i in range(nf):
        both = 0
        if cauchy[i]:
            meets = meet_of[i]
            both = sum(1 << j for j in cauchy_bits if cauchy[meets[j]])
        mismatch = both ^ rows[i]
        for j in _bits(mismatch):
            r, c = rows[i] >> j & 1 == 1, both >> j & 1 == 1
            fail(f"R mismatch for {label(i)},{label(j)}: R={r} cauchy-criterion={c}")
    bump("r_equivalence_criterion", nf * nf)

    # R is an equivalence on the Cauchy filters; transitivity compares rows:
    # for Cauchy i R j, every Cauchy k with j R k must have i R k
    for i in cauchy_bits:
        if not rows[i] >> i & 1:
            fail(f"R not reflexive at {label(i)}")
    bump("r_reflexive", nf)
    # columns[j]: the i with i R j, so row i and column i agree when R is symmetric at i
    columns = [0] * nf
    for i, row in enumerate(rows):
        for j in _bits(row):
            columns[j] |= 1 << i
    for i in range(nf):
        for j in _bits((rows[i] ^ columns[i]) >> i + 1):
            fail(f"R not symmetric at {label(i)},{label(i + 1 + j)}")
    bump("r_symmetric", nf * (nf - 1) // 2)
    for i in cauchy_bits:
        for j in _bits(cauchy_set & rows[i]):
            for k in _bits(cauchy_set & rows[j] & ~rows[i]):
                fail(f"R not transitive at {label(i)},{label(j)},{label(k)}")
    bump("r_transitive", nf**3)

    # the class intersection is a minimal equivalent Cauchy filter
    for i in cauchy_bits:
        bump("minimal_cauchy")
        cls = _bits(cauchy_set & rows[i])
        if not cls:
            fail(f"R-class of {label(i)} is empty")
            continue
        minimal = meet(masks[j] for j in cls)
        k = table.index[minimal]
        if not cauchy[k]:
            fail(f"class intersection of {label(i)} is not Cauchy")
        if not rows[k] >> i & 1:
            fail(f"class intersection of {label(i)} left its class")
        for j in cls:
            if minimal & ~masks[j]:
                fail(f"class intersection of {label(i)} not below {label(j)}")
        # cross-check: the up-set of the union of class cores
        if minimal != table.up[reduce(operator.or_, (cores[j] for j in cls))]:
            fail(f"class intersection of {label(i)} is not the up-set of the union of cores")

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
        table = _Families(size)
        filter_counts.append((size, len(table.masks), 2**size - 1))
        # each model is built as the loop reaches it and dropped after its check
        models.extend(_check_model(index, bm, table) for index, bm in enumerate(_models(table)))
    return FilterLawReport(max_size, tuple(models), tuple(filter_counts))
