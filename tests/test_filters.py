import hashlib
import itertools
import operator
import random
from functools import reduce

import pytest

from filter_oracle import (
    FiniteFilter,
    FiniteUniformity,
    _sorted_sets,
    _symmetric_supersets,
    ball,
    catalog,
    cauchy_over_every_member,
    check_model,
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
    _filters,
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
        table = _Families(size, _filters(size))
        masks = table.masks
        for index, (u, bm) in enumerate(zip(catalog(ground), _models(table), strict=True)):
            assert _check_model(size, index, bm, table) == check_model(size, index, u, fs)
            rows = bm.relation_rows(masks)
            for i, (f, m) in enumerate(zip(fs, masks)):
                assert bm.cauchy(m) == is_cauchy(f, u)
                for x in ground:
                    assert bm.converges(m, x) == converges_to(f, x, u)
                for j, g in enumerate(fs):
                    assert (rows[i] >> j & 1 == 1) == relation_R(f, g, u)
                if is_cauchy(f, u):
                    cls = [mg for j, mg in enumerate(masks) if bm.cauchy(mg) and rows[j] >> i & 1]
                    assert mask_of(minimal_cauchy(f, u, fs).sets) == reduce(operator.and_, cls)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_the_sweep_enumerates_the_catalog_and_every_filter(size):
    """Model i of the sweep holds exactly the entourages of the catalog's
    model i, and the sweep's filters are the enumerated filters, in order."""
    ground = tuple(range(size))
    models = _models(_Families(size, _filters(size)))
    us = catalog(ground)
    assert len(models) == len(us)
    for bm, u in zip(models, us):
        decoded = [entourage(bm, s) for s in range(bm.n_entourages)]
        assert len(set(decoded)) == bm.n_entourages
        assert set(decoded) == set(u.entourages)
        for x in ground:
            assert bm.balls[x] == mask_of({ball(v, x) for v in u.entourages})
    assert _filters(size) == [mask_of(f.sets) for f in enumerate_filters(ground)]


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
    table = _Families(3, _filters(3))
    bm = _BitsetModel([0b011, 0b111, 0b110], table)
    assert {entourage(bm, s) for s in range(bm.n_entourages)} == set(u.entourages)
    report = _check_model(3, 0, bm, table)
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


def test_a_family_that_is_not_a_filter_is_reported_not_raised():
    ground = (0, 1)
    u = uniformity_from_partition(ground, [[x] for x in ground])
    fs = enumerate_filters(ground) + [FiniteFilter(ground, frozenset({frozenset({0})}))]
    with pytest.raises(ValueError, match="ground set missing"):
        check_model(2, 0, u, fs)
    table = _Families(2, _filters(2) + [1 << 0b01])
    report = _check_model(2, 0, _BitsetModel([0b01, 0b10], table), table)
    assert "intersection axioms: filter axioms violated: ground set missing" in report.failures


def test_a_non_filter_meet_fails_every_model_of_its_size():
    """The intersection sweep runs once per ground size, and every model of
    that size records its failures first."""
    table = _Families(2, _filters(2) + [1 << 0b01])
    reports = [_check_model(2, index, bm, table) for index, bm in enumerate(_models(table))]
    assert len(reports) == 2
    for report in reports:
        assert report.failures[0] == "intersection axioms: filter axioms violated: ground set missing"
        assert dict(report.checks)["intersections_are_filters"] == 6 + 4


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


def test_the_closed_forms_match_the_entourage_walk():
    """``held`` and ``balls`` are computed without the walk over every
    entourage; the walk is the reference, on every model up to size 5 and
    on a minimum entourage that is not an equivalence relation."""
    for size in range(1, 6):
        table = _Families(size, _filters(size))
        for bm in _models(table):
            assert (bm.held, bm.balls) == entourage_walk(bm.rows)
    bm = _BitsetModel([0b011, 0b111, 0b110], _Families(3, _filters(3)))
    assert (bm.held, bm.balls) == entourage_walk(bm.rows)


def minimal_by_search(f):
    """The members of the family f with no other member strictly inside,
    by comparing every two members."""
    members = _bits(f)
    return [s for s in members if not any(t != s and t & s == t for t in members)]


def assert_minimal_members_suffice(bm, families):
    assert [bm.cauchy(f) for f in families] == [cauchy_over_every_member(bm, f) for f in families]
    expected = related_rows(bm, families)
    rows = bm.relation_rows(families)
    assert [[row >> j & 1 == 1 for j in range(len(families))] for row in rows] == expected
    assert all(row >> len(families) == 0 for row in rows)


def random_families(rng, size):
    """Families on {0, .., size-1} drawn from ``rng``: the empty family,
    the family of the empty set, every subset, the empty set with the
    ground set, and seeded random families (most of them not up-sets),
    some without a set of fewer than two points, some holding the empty
    set."""
    full = (1 << size) - 1
    every_subset = (1 << (1 << size)) - 1
    large = sum(1 << s for s in range(1 << size) if len(_bits(s)) >= 2)
    families = [0, 1, every_subset, 1 | 1 << full]
    families += [rng.getrandbits(1 << size) for _ in range(8)]
    families += [rng.getrandbits(1 << size) & large for _ in range(8)]
    families += [rng.getrandbits(1 << size) | 1 for _ in range(4)]
    return families


def test_minimal_members_decide_as_every_member_does_on_filters():
    """``cauchy`` and ``relation_rows`` read the minimal members only; the walk over every member is the reference, on every
    model up to size 5 and every pair of filters.  A filter's one minimal
    member is its core."""
    for size in range(1, 6):
        table = _Families(size, _filters(size))
        assert all(table.minimal[f] == [table.core[f]] for f in table.masks)
        for bm in _models(table):
            assert_minimal_members_suffice(bm, table.masks)


def test_minimal_members_decide_as_every_member_does_on_any_family():
    """The argument uses no filter law, so it holds on any family, and the
    rows OR over every minimal member of a family on either side: seeded
    random families (most of them not up-sets), some without a set of
    fewer than two points (which alone would make them Cauchy), the empty
    family, families holding the empty set, and on the minimum entourage
    that is not an equivalence relation."""
    rng = random.Random(24)
    for size in range(1, 6):
        table = _Families(size, _filters(size))
        families = random_families(rng, size)
        assert [table.minimal[f] for f in families] == [minimal_by_search(f) for f in families]
        models = _models(table)
        if size == 3:
            models.append(_BitsetModel([0b011, 0b111, 0b110], table))
        for bm in models:
            assert_minimal_members_suffice(bm, families)


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


def test_a_meet_outside_the_list_is_computed_directly(monkeypatch):
    """On a table holding a family that is not a filter, some meets equal
    no listed mask, and the laws form and compute those directly; the
    reports are those the verifier gave before it read meets by index."""
    table = _Families(2, _filters(2) + [1 << 0b01])
    assert table.meet_of[1][3] is None
    calls = count_calls(monkeypatch, "relation_rows", "cauchy")
    reports = [_check_model(2, index, bm, table) for index, bm in enumerate(_models(table))]
    assert calls["relation_rows"] > len(reports)
    assert calls["cauchy"] > len(reports) * len(table.masks)
    axioms = ("intersection axioms: filter axioms violated: ground set missing",) * 8
    counts = {
        "convergent_implies_cauchy": 4,
        "intersections_are_filters": 10,
        "r_equivalence_criterion": 16,
        "r_reflexive": 4,
        "r_symmetric": 6,
        "r_transitive": 64,
    }
    assert reports == [
        filters.ModelReport(
            2, 0, 1, 4, tuple(sorted({**counts, "convergent_intersections": 8, "minimal_cauchy": 4}.items())), axioms
        ),
        filters.ModelReport(
            2, 1, 2, 4, tuple(sorted({**counts, "convergent_intersections": 2, "minimal_cauchy": 3}.items())), axioms
        ),
    ]


@pytest.mark.parametrize("size", [3, 4])
def test_a_partial_filter_list_matches_the_frozenset_oracle(size):
    """Without the filters of two-point cores, the meet of two point
    filters is listed nowhere, so every model takes the direct path for
    it; the reference verifier, given the same filters, agrees."""
    ground = tuple(range(size))
    kept = [(m, f) for m, f in zip(_filters(size), enumerate_filters(ground)) if len(f.core) != 2]
    table = _Families(size, [m for m, _ in kept])
    assert any(k is None for row in table.meet_of for k in row)
    for index, (u, bm) in enumerate(zip(catalog(ground), _models(table), strict=True)):
        assert _check_model(size, index, bm, table) == check_model(size, index, u, [f for _, f in kept])


def assert_meet_table_is_direct(table):
    masks = table.masks
    assert len(table.meet_of) == len(table.broken) == len(masks)
    for i, f in enumerate(masks):
        assert len(table.meet_of[i]) == len(masks)
        for j, g in enumerate(masks):
            k = table.meet_of[i][j]
            if k is None:
                assert f & g not in masks
            else:
                assert masks[k] == f & g
            assert (table.broken[i] >> j & 1 == 1) == (table.axioms[f & g] is not None)
        assert table.broken[i] >> len(masks) == 0


def test_the_meet_table_matches_direct_recomputation():
    """Each pair meet's index and axiom verdict, against the meet formed
    and checked directly: on every filter table up to size 5, where every
    meet is listed and none breaks the axioms, and with seeded random
    families appended."""
    rng = random.Random(24)
    unlisted = []
    for size in range(1, 6):
        table = _Families(size, _filters(size))
        assert_meet_table_is_direct(table)
        assert all(k is not None for row in table.meet_of for k in row)
        assert not any(table.broken)
        mixed = _Families(size, _filters(size) + random_families(rng, size))
        assert_meet_table_is_direct(mixed)
        assert any(mixed.broken)
        unlisted.append(sum(k is None for row in mixed.meet_of for k in row))
    assert unlisted[0] == 0 and all(unlisted[1:])


def test_each_core_is_computed_once_per_size(monkeypatch):
    calls = []
    core = _Families._core
    monkeypatch.setattr(_Families, "_core", lambda table, f: calls.append((table.n, f)) or core(table, f))
    verify_filter_laws(5)
    assert len(calls) == len(set(calls)) == 1 + 3 + 7 + 15 + 31


@pytest.mark.parametrize("k", [7, 8, 9, 10])
def test_size_five_models_match_the_frozenset_oracle(k):
    """The first size-5 model with 2^k entourages, for the k the size-4
    comparison never reaches."""
    ground = tuple(range(5))
    table = _Families(5, _filters(5))
    index, bm = next((i, bm) for i, bm in enumerate(_models(table)) if bm.n_entourages == 1 << k)
    u = catalog(ground)[index]
    assert len(u.entourages) == 1 << k
    assert _check_model(5, index, bm, table) == check_model(5, index, u, enumerate_filters(ground))


def test_the_summary_names_a_filter_count_mismatch():
    report = FilterLawReport(2, (), ((1, 1, 1), (2, 4, 3)))
    lines = report.summary_text().splitlines()
    assert "  size 1: 1 filters (expected 1), ok" in lines
    assert "  size 2: 4 filters (expected 3), MISMATCH" in lines
    assert lines[-1] == "  FIRST COUNTEREXAMPLE: size 2: 4 filters, expected 3"
