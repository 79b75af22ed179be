import hashlib
import itertools
import operator
import re
import weakref
from functools import reduce

import pytest

from filter_oracle import (
    FiniteFilter,
    FiniteUniformity,
    _check_filter_axioms,
    _sorted_sets,
    _symmetric_supersets,
    ball,
    catalog,
    cauchy_over_every_member,
    check_model,
    containment_sets,
    converges_to,
    entourage_walk,
    enumerate_filters,
    intersect_filters,
    is_cauchy,
    make_uniformity,
    minimal_cauchy,
    principal_filter,
    related_rows,
    relation_R,
    uniformity_from_partition,
)
from sikorski import cli, filters
from sikorski.filters import (
    FilterLawReport,
    _BitsetModel,
    _bits,
    _check_model,
    _Families,
    _models,
    partitions,
    verify_filter_laws,
)


def mask_of(sets):
    """A family of subsets of {0, .., n-1}, encoded as the sweep encodes it."""
    return sum(1 << sum(1 << x for x in s) for s in sets)


def entourage(bm, s):
    """Entourage number s of a bitset model, decoded to its ordered pairs."""
    extra = [bm.pairs[t] for t in _bits(s)]
    minimum = {(x, y) for x, row in enumerate(bm.rows) for y in _bits(row)}
    return frozenset(minimum | set(extra) | {(b, a) for a, b in extra})


def brute_force_filters(ground):
    """Every family of nonempty subsets that is upward closed, meet closed,
    and nonempty, found by raw subset search.  Independent of the library's
    principal-filter shortcut, so it can contradict it."""
    ground = tuple(ground)
    universe = frozenset(ground)
    nonempty = [
        frozenset(c) for k in range(1, len(ground) + 1) for c in itertools.combinations(ground, k)
    ]
    found = []
    for picks in itertools.product((False, True), repeat=len(nonempty)):
        family = {s for s, keep in zip(nonempty, picks) if keep}
        if not family:
            continue
        if any(a & b not in family for a in family for b in family):
            continue
        if any(s < t and t not in family for s in family for t in nonempty):
            continue
        found.append(frozenset(family))
    return found


@pytest.mark.parametrize("size", [1, 2, 3])
def test_enumeration_agrees_with_raw_subset_search(size):
    ground = tuple(range(size))
    ours = {f.sets for f in enumerate_filters(ground)}
    assert ours == set(brute_force_filters(ground))


@pytest.mark.parametrize("size,expected", [(1, 1), (2, 3), (3, 7), (4, 15)])
def test_filter_counts(size, expected):
    assert len(enumerate_filters(tuple(range(size)))) == expected


def test_every_enumerated_filter_is_principal():
    for f in enumerate_filters(("a", "b", "c")):
        assert f.core in f.sets
        assert f.sets == principal_filter(f.ground, f.core).sets


def test_oversized_ground_sets_are_rejected():
    with pytest.raises(ValueError, match="out of scope"):
        enumerate_filters(tuple(range(6)))


def test_intersection_of_opposing_principals():
    ground = ("a", "b")
    up_a = principal_filter(ground, ["a"])
    up_b = principal_filter(ground, ["b"])
    meet = intersect_filters([up_a, up_b])
    assert meet.sets == principal_filter(ground, ground).sets


def test_intersection_is_idempotent_and_floored():
    ground = ("a", "b", "c")
    f = principal_filter(ground, ["a", "b"])
    assert intersect_filters([f, f]).sets == f.sets
    floor = principal_filter(ground, ground)
    assert intersect_filters([f, floor]).sets == floor.sets


def test_principal_ultrafilter_converges_everywhere_it_points():
    ground = ("a", "b", "c")
    for u in catalog(ground):
        for x in ground:
            assert converges_to(principal_filter(ground, [x]), x, u)


def test_convergence_under_the_extreme_uniformities():
    ground = ("a", "b")
    whole = principal_filter(ground, ground)
    indiscrete = uniformity_from_partition(ground, [ground])
    assert converges_to(whole, "a", indiscrete)
    assert converges_to(whole, "b", indiscrete)
    discrete = uniformity_from_partition(ground, [[x] for x in ground])
    assert not converges_to(principal_filter(ground, ["a"]), "b", discrete)


def test_cauchy_examples():
    ground = ("a", "b")
    whole = principal_filter(ground, ground)
    assert is_cauchy(whole, uniformity_from_partition(ground, [ground]))
    assert not is_cauchy(whole, uniformity_from_partition(ground, [[x] for x in ground]))
    for u in catalog(ground):
        assert is_cauchy(principal_filter(ground, ["a"]), u)


def test_relation_examples():
    ground = ("a", "b")
    up_a = principal_filter(ground, ["a"])
    up_b = principal_filter(ground, ["b"])
    assert relation_R(up_a, up_b, uniformity_from_partition(ground, [ground]))
    assert not relation_R(up_a, up_b, uniformity_from_partition(ground, [[x] for x in ground]))
    for u in catalog(ground):
        for f in enumerate_filters(ground):
            if is_cauchy(f, u):
                assert relation_R(f, f, u)


def test_minimal_cauchy_under_both_extremes():
    ground = ("a", "b")
    up_a = principal_filter(ground, ["a"])
    indiscrete = uniformity_from_partition(ground, [ground])
    assert minimal_cauchy(up_a, indiscrete).sets == principal_filter(ground, ground).sets
    discrete = uniformity_from_partition(ground, [[x] for x in ground])
    assert minimal_cauchy(up_a, discrete).sets == up_a.sets


def test_minimal_cauchy_is_idempotent():
    ground = ("a", "b", "c")
    for u in catalog(ground):
        for f in enumerate_filters(ground):
            if not is_cauchy(f, u):
                continue
            m = minimal_cauchy(f, u)
            assert minimal_cauchy(m, u).sets == m.sets


def test_minimal_cauchy_requires_a_cauchy_input():
    ground = ("a", "b")
    whole = principal_filter(ground, ground)
    with pytest.raises(ValueError, match="needs a Cauchy filter"):
        minimal_cauchy(whole, uniformity_from_partition(ground, [[x] for x in ground]))


def test_make_uniformity_rejects_broken_families():
    ground = ("a", "b")
    diag = [("a", "a"), ("b", "b")]
    full = diag + [("a", "b"), ("b", "a")]
    with pytest.raises(ValueError, match="diagonal"):
        make_uniformity(ground, [[("a", "a")]])
    with pytest.raises(ValueError, match="symmetric"):
        make_uniformity(ground, [diag + [("a", "b")], full])
    with pytest.raises(ValueError, match="supersets"):
        make_uniformity(ground, [diag])
    assert make_uniformity(ground, [diag, full]).minimum == frozenset(diag)


def test_partition_uniformity_validation():
    with pytest.raises(ValueError, match="overlap"):
        uniformity_from_partition(("a", "b"), [["a", "b"], ["b"]])
    with pytest.raises(ValueError, match="cover"):
        uniformity_from_partition(("a", "b"), [["a"]])


@pytest.mark.parametrize("size,expected", [(1, 1), (2, 2), (3, 5), (4, 15)])
def test_catalog_has_one_model_per_partition(size, expected):
    ground = tuple(range(size))
    assert len(list(partitions(ground))) == expected
    models = catalog(ground)
    assert len(models) == expected
    assert len({u.entourages for u in models}) == expected


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_catalog_keeps_the_full_entourage_order(size):
    """The catalog orders models by entourage count, then by the sorted
    minimum entourage: the order the full sorted entourage list gives."""
    ground = tuple(range(size))
    models = [uniformity_from_partition(ground, p) for p in partitions(ground)]
    full = sorted(models, key=lambda u: (len(u.entourages), [sorted(v) for v in u.entourages]))
    assert catalog(ground) == full


@pytest.mark.parametrize("size,expected", [(1, 1), (2, 2), (3, 5)])
def test_the_catalog_is_every_uniformity(size, expected):
    """Raw search: of every nonempty family of reflexive symmetric
    relations, the ones make_uniformity accepts are exactly the catalog's
    models.  Independent of the partition argument, so it can contradict it."""
    ground = tuple(range(size))
    diagonal = {(x, x) for x in ground}
    pairs = list(itertools.combinations(ground, 2))
    relations = [
        frozenset(diagonal | set(extra) | {(b, a) for a, b in extra})
        for k in range(len(pairs) + 1)
        for extra in itertools.combinations(pairs, k)
    ]
    found = set()
    for picks in itertools.product((False, True), repeat=len(relations)):
        family = [rel for rel, keep in zip(relations, picks) if keep]
        if not family:
            continue
        try:
            found.add(make_uniformity(ground, family).entourages)
        except ValueError:
            continue
    assert len(found) == expected
    assert found == {u.entourages for u in catalog(ground)}


def test_convergent_filters_are_cauchy_across_the_catalog():
    ground = ("a", "b", "c")
    for u in catalog(ground):
        for f in enumerate_filters(ground):
            if any(converges_to(f, x, u) for x in ground):
                assert is_cauchy(f, u)


def test_small_sweep_is_clean():
    report = verify_filter_laws(3)
    assert report.passed
    assert report.first_counterexample is None
    assert report.filter_counts == ((1, 1, 1), (2, 3, 3), (3, 7, 7))
    assert len(report.models) == 1 + 2 + 5
    totals = report.totals()
    assert totals["minimal_cauchy"] > 0
    assert totals["r_transitive"] > 0
    assert "counterexamples: none" in report.summary_text()


def test_sweep_size_bounds():
    with pytest.raises(ValueError, match="between 1 and"):
        verify_filter_laws(0)
    with pytest.raises(ValueError, match="between 1 and"):
        verify_filter_laws(6)


def test_bitset_verifier_matches_the_frozenset_oracle():
    for size in range(1, 5):
        ground = tuple(range(size))
        fs = enumerate_filters(ground)
        table = _Families(size)
        masks, cores = table.masks, table.cores
        for index, (u, bm) in enumerate(zip(catalog(ground), _models(table), strict=True)):
            assert _check_model(index, bm, table) == check_model(size, index, u, fs)
            rows = bm.relation_rows(cores)
            for i, (f, m, c) in enumerate(zip(fs, masks, cores)):
                assert bm.cauchy(c) == is_cauchy(f, u)
                for x in ground:
                    assert bm.converges(m, x) == converges_to(f, x, u)
                for j, g in enumerate(fs):
                    assert (rows[i] >> j & 1 == 1) == relation_R(f, g, u)
                if is_cauchy(f, u):
                    cls = [mg for j, mg in enumerate(masks) if bm.cauchy(cores[j]) and rows[j] >> i & 1]
                    assert mask_of(minimal_cauchy(f, u, fs).sets) == reduce(operator.and_, cls)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_the_sweep_enumerates_the_catalog_and_every_filter(size):
    """Model i of the sweep holds exactly the entourages of the catalog's
    model i, and the sweep's filters are the enumerated filters, in order."""
    ground = tuple(range(size))
    table = _Families(size)
    models = list(_models(table))
    us = catalog(ground)
    assert len(models) == len(us)
    for bm, u in zip(models, us):
        decoded = [entourage(bm, s) for s in range(bm.n_entourages)]
        assert len(set(decoded)) == bm.n_entourages
        assert set(decoded) == set(u.entourages)
        for x in ground:
            assert bm.balls[x] == mask_of({ball(v, x) for v in u.entourages})
    assert table.masks == [mask_of(f.sets) for f in enumerate_filters(ground)]


def test_size_five_totals_are_pinned():
    report = verify_filter_laws(5)
    assert report.passed
    assert len(report.models) == 75
    totals = report.totals()
    assert totals == {
        "convergent_implies_cauchy": 1879,
        "convergent_intersections": 7156,
        "intersections_are_filters": 266608,
        "minimal_cauchy": 598,
        "r_equivalence_criterion": 53611,
        "r_reflexive": 1879,
        "r_symmetric": 25866,
        "r_transitive": 1601527,
    }
    assert sum(totals.values()) == 1_959_124


def test_size_five_artifacts_are_pinned(tmp_path):
    """The digests pin each model's place and counts, not only the totals."""
    assert cli.main(["verify-filters", "--max-size", "5", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / f"verify_filters_{name}").read_bytes()).hexdigest()
        for name in ("models.csv", "report.txt")
    }
    assert digests == {
        "models.csv": "274881b2f43e600fbac3ced2d493e4e6aea9443abb435a7dc5239f4b35a241cb",
        "report.txt": "8998591b88fb4e8464915efd353c57f41e58683b2adf659ed432086f9807d2a9",
    }


def test_a_non_transitive_minimum_is_reported_not_raised():
    # a minimum entourage 0~1, 1~2 that is not an equivalence relation,
    # bypassing the checks of make_uniformity
    ground = (0, 1, 2)
    minimum = frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)})
    u = FiniteUniformity(ground, _sorted_sets(_symmetric_supersets(ground, minimum)))
    with pytest.raises(ValueError, match="R-class failed to be Cauchy"):
        check_model(3, 0, u, enumerate_filters(ground))
    table = _Families(3)
    bm = _BitsetModel([0b011, 0b111, 0b110], table)
    assert {entourage(bm, s) for s in range(bm.n_entourages)} == set(u.entourages)
    report = _check_model(0, bm, table)
    assert report.failures == (
        "^02 converges but is not Cauchy",
        "^012 converges but is not Cauchy",
        "R mismatch for ^1,^02: R=True cauchy-criterion=False",
        "R mismatch for ^1,^012: R=True cauchy-criterion=False",
        "R mismatch for ^02,^1: R=True cauchy-criterion=False",
        "R mismatch for ^012,^1: R=True cauchy-criterion=False",
        "R not transitive at ^0,^1,^2",
        "R not transitive at ^0,^1,^12",
    )
    assert dict(report.checks) == {
        "convergent_implies_cauchy": 7,
        "convergent_intersections": 30,
        "intersections_are_filters": 56,
        "minimal_cauchy": 5,
        "r_equivalence_criterion": 49,
        "r_reflexive": 7,
        "r_symmetric": 21,
        "r_transitive": 343,
    }


def axiom_kind(message):
    """A filter-axiom message with its sets blanked: which axiom broke."""
    return None if message is None else re.sub(r"\[[^]]*\]", "S", message)


def test_the_axiom_check_agrees_with_the_reference_on_every_family():
    """The sweep's axiom check, against the reference's, on every family of
    subsets of up to 3 points: the same verdict and the same first broken
    axiom (the reference walks a frozenset, so the sets it names may
    differ).  The reference verifier raises where a family is no filter."""
    for size in range(1, 4):
        ground = tuple(range(size))
        subsets = [frozenset(x for x in ground if s >> x & 1) for s in range(1 << size)]
        table = _Families(size)
        for f in range(1 << (1 << size)):
            try:
                _check_filter_axioms(FiniteFilter(ground, frozenset(subsets[s] for s in _bits(f))))
                expected = None
            except ValueError as err:
                expected = str(err)
            assert axiom_kind(table._axioms(f)) == axiom_kind(expected)
    fs = enumerate_filters((0, 1)) + [FiniteFilter((0, 1), frozenset({frozenset({0})}))]
    with pytest.raises(ValueError, match="ground set missing"):
        check_model(2, 0, uniformity_from_partition((0, 1), [[0], [1]]), fs)


def test_each_ground_size_builds_its_table_and_sweep_once(monkeypatch):
    calls = {"tables": 0, "sweeps": 0}
    init, sweep = _Families.__init__, _Families._meet_sweep

    def counted_init(self, *args):
        calls["tables"] += 1
        init(self, *args)

    def counted_sweep(self):
        calls["sweeps"] += 1
        sweep(self)

    monkeypatch.setattr(filters._Families, "__init__", counted_init)
    monkeypatch.setattr(filters._Families, "_meet_sweep", counted_sweep)
    assert len(verify_filter_laws(5).models) == 75
    assert calls == {"tables": 5, "sweeps": 5}


def test_one_model_is_alive_at_each_check(monkeypatch):
    """Each model is built as the sweep reaches it and dropped after its
    check, so no check sees another model's tables alive."""
    alive = weakref.WeakSet()
    seen = []
    init, check = _BitsetModel.__init__, _check_model

    def tracked_init(self, *args):
        init(self, *args)
        alive.add(self)

    def counted_check(index, bm, table):
        seen.append((table.n, len(alive)))
        return check(index, bm, table)

    monkeypatch.setattr(_BitsetModel, "__init__", tracked_init)
    monkeypatch.setattr(filters, "_check_model", counted_check)
    assert len(verify_filter_laws(5).models) == 75
    assert [n for n, _ in seen] == [1] + [2] * 2 + [3] * 5 + [4] * 15 + [5] * 52
    assert {count for _, count in seen} == {1}


def test_the_closed_forms_match_the_entourage_walk():
    """``held`` and ``balls`` are computed without the walk over every
    entourage; the walk is the reference, on every model up to size 5 and
    on a minimum entourage that is not an equivalence relation."""
    for size in range(1, 6):
        for bm in _models(_Families(size)):
            assert (bm.held, bm.balls) == entourage_walk(bm.rows)
    bm = _BitsetModel([0b011, 0b111, 0b110], _Families(3))
    assert (bm.held, bm.balls) == entourage_walk(bm.rows)


# Minimum entourages that are not equivalence relations: the path
# 0~1~2, and the star 0~1, 0~2, on which a check that read only the
# lowest point of a core would call {0, 1, 2} Cauchy.
NON_EQUIVALENCE_MINIMA = ([0b011, 0b111, 0b110], [0b111, 0b011, 0b101])


def test_the_oracle_containment_sets_match_the_decoded_entourages():
    """``containment_sets``, built pair by pair from V0 and the holding
    sets, against the entourages decoded one at a time as the walk
    numbers them, on every model up to size 4 and on minimum entourages
    that are not equivalence relations."""
    models = [bm for size in range(1, 5) for bm in _models(_Families(size))]
    models += [_BitsetModel(rows, _Families(3)) for rows in NON_EQUIVALENCE_MINIMA]
    for bm in models:
        n = len(bm.rows)
        subsets = [_bits(s) for s in range(1 << n)]
        decoded = [entourage(bm, s) for s in range(bm.n_entourages)]
        expected = []
        for a in subsets:
            products = [set(itertools.product(a, b)) for b in subsets]
            expected.append([sum(1 << s for s, e in enumerate(decoded) if p <= e) for p in products])
        assert containment_sets(bm) == expected


def test_minimal_members_decide_as_every_member_does_on_filters():
    """``cauchy`` and ``relation_rows`` read a filter's core, its one
    minimal member, point by point off the per-point cover rows; the walk
    over every member, on the oracle's own containment sets, is the
    reference, on every model up to size 5 and every pair of filters, and
    on minimum entourages that are not equivalence relations, so the swap
    of quantifiers does not lean on V0 being one."""
    models = [(table, bm) for table in map(_Families, range(1, 6)) for bm in _models(table)]
    table = _Families(3)
    models += [(table, _BitsetModel(rows, table)) for rows in NON_EQUIVALENCE_MINIMA]
    for table, bm in models:
        masks, cores = table.masks, table.cores
        cover = containment_sets(bm)
        assert not hasattr(bm, "cover")
        assert bm.row_cover == [cover[1 << x] for x in range(len(bm.rows))]
        assert [bm.cauchy(c) for c in cores] == [cauchy_over_every_member(cover, f) for f in masks]
        rows = bm.relation_rows(cores)
        assert [[row >> j & 1 == 1 for j in range(len(masks))] for row in rows] == related_rows(cover, masks)
        assert all(row >> len(masks) == 0 for row in rows)


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``_BitsetModel`` methods."""
    calls = dict.fromkeys(names, 0)

    def counted(name, method):
        def call(*args):
            calls[name] += 1
            return method(*args)

        return call

    for name in names:
        monkeypatch.setattr(_BitsetModel, name, counted(name, getattr(_BitsetModel, name)))
    return calls


def test_the_laws_read_r_off_rows_not_pair_by_pair(monkeypatch):
    """R is one ``relation_rows`` call per model, and the Cauchy property
    one ``cauchy`` call per filter per model; every pair meet and class
    intersection is read from those by its index in the filter list."""
    calls = count_calls(monkeypatch, "relation_rows", "cauchy")
    report = verify_filter_laws(5)
    assert report.passed
    assert len(report.models) == 75
    assert sum(m.n_filters for m in report.models) == 1 + 6 + 35 + 225 + 1612
    assert calls == {"relation_rows": 75, "cauchy": 1 + 6 + 35 + 225 + 1612}


def test_the_meet_table_matches_direct_recomputation():
    """Each pair meet's index, against the meet formed and looked up
    directly, on every filter table up to size 5: every meet is listed,
    and no listed filter breaks the axioms."""
    for size in range(1, 6):
        table = _Families(size)
        masks = table.masks
        assert table.meet_of == [[masks.index(f & g) for g in masks] for f in masks]
        assert table.axioms == dict.fromkeys(masks)
        assert table.meet_failures == []


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_size_five_models_match_the_frozenset_oracle(k):
    """The first size-5 model with 2^k entourages, for the k the size-4
    comparison never reaches."""
    ground = tuple(range(5))
    table = _Families(5)
    index, bm = next((i, bm) for i, bm in enumerate(_models(table)) if bm.n_entourages == 1 << k)
    u = catalog(ground)[index]
    assert len(u.entourages) == 1 << k
    assert _check_model(index, bm, table) == check_model(5, index, u, enumerate_filters(ground))


def test_a_listed_family_that_breaks_an_axiom_is_not_counted(monkeypatch, tmp_path, capsys):
    """The filter count counts the listed families that keep every filter
    axiom, so one that breaks an axiom shows as a count mismatch."""
    axioms = _Families._axioms
    broken = mask_of([{0}, {0, 1}])  # up({0}) on two points

    def break_one(self, f):
        if self.n == 2 and f == broken:
            return "filter axioms violated: broken for the test"
        return axioms(self, f)

    monkeypatch.setattr(_Families, "_axioms", break_one)
    report = verify_filter_laws(2)
    assert report.filter_counts == ((1, 1, 1), (2, 2, 3))
    assert "  size 2: 2 filters (expected 3), MISMATCH" in report.summary_text().splitlines()
    assert report.first_counterexample == "size 2: 2 filters, expected 3"
    assert not report.passed
    assert cli.main(["verify-filters", "--max-size", "2", "--out", str(tmp_path)]) == 1
    assert "  size 2: 2 filters (expected 3), MISMATCH" in capsys.readouterr().out.splitlines()


def test_the_summary_names_a_filter_count_mismatch():
    report = FilterLawReport(2, (), ((1, 1, 1), (2, 4, 3)))
    lines = report.summary_text().splitlines()
    assert "  size 1: 1 filters (expected 1), ok" in lines
    assert "  size 2: 4 filters (expected 3), MISMATCH" in lines
    assert lines[-1] == "  FIRST COUNTEREXAMPLE: size 2: 4 filters, expected 3"
