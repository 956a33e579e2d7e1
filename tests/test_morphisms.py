import itertools
import random

import pytest

from agband.construct import gbar_derived, tower_level
from agband.decompose import g_copy_partition
from agband.errors import SearchInvariantError, VarietyError
from agband.groupoid import FiniteGroupoid, standard_g
from agband.laws import require_aragb
from agband.morphisms import (
    MapKind,
    anti_to_iso,
    canonical_iso,
    classify_all_bijections,
    classify_mapping,
    cycle_type,
    iso_search,
    two_generator_recipe,
    verified,
)

G = standard_g()


def shuffled(g, seed):
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def test_identity_mapping_is_an_isomorphism():
    f = verified(tuple(range(4)), G, G)
    assert f.kind is MapKind.ISO


@pytest.mark.parametrize("images, dst", [
    ((0, 0, 0, 0), G),
    ((0, 1, 2), G),
    ((0, 1, 2, 4), G),
    ((0, 1, 2, 3), tower_level(2)),
], ids=["duplicate", "too-few", "out-of-range", "orders-differ"])
def test_classify_mapping_rejects_non_bijections(images, dst):
    with pytest.raises(ValueError, match="not a bijection"):
        classify_mapping(images, G, dst)


def test_cycle_type_sorts_longest_first():
    assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
    assert cycle_type((1, 2, 3, 0)) == (4,)


def test_census_of_the_order_four_model():
    census = classify_all_bijections(G)
    assert census.total == 24
    assert census.counts[MapKind.ISO] == 12
    assert census.counts[MapKind.ANTI_ISO] == 12
    assert census.counts[MapKind.NEITHER] == 0


def test_census_splits_by_cycle_type():
    census = classify_all_bijections(G)
    assert census.by_cycle_type[(MapKind.ISO, (1, 1, 1, 1))] == 1
    assert census.by_cycle_type[(MapKind.ISO, (3, 1))] == 8
    assert census.by_cycle_type[(MapKind.ISO, (2, 2))] == 3
    assert census.by_cycle_type[(MapKind.ANTI_ISO, (2, 1, 1))] == 6
    assert census.by_cycle_type[(MapKind.ANTI_ISO, (4,))] == 6


CENSUS_TABLES = {
    "G": G,
    "G-opposite": G.opposite(),
    "z2": FiniteGroupoid(((0, 1), (1, 0))),
    "z4": FiniteGroupoid([[(i + j) % 4 for j in range(4)] for i in range(4)]),
    "left-zero-3": FiniteGroupoid([[i] * 3 for i in range(3)]),
}


@pytest.mark.parametrize("name", CENSUS_TABLES)
def test_census_matches_a_tally_from_the_definition(name):
    g = CENSUS_TABLES[name]
    t, pairs = g.table, list(itertools.product(range(g.order), repeat=2))
    counts = dict.fromkeys(MapKind, 0)
    by_type = {}
    for f in itertools.permutations(range(g.order)):
        if all(f[t[x][y]] == t[f[x]][f[y]] for x, y in pairs):
            kind = MapKind.ISO
        elif all(f[t[x][y]] == t[f[y]][f[x]] for x, y in pairs):
            kind = MapKind.ANTI_ISO
        else:
            kind = MapKind.NEITHER
        counts[kind] += 1
        key = (kind, cycle_type(f))
        by_type[key] = by_type.get(key, 0) + 1
    census = classify_all_bijections(g)
    assert census.counts == counts
    assert census.by_cycle_type == by_type


def test_iso_search_finds_lex_least_witness():
    phi = iso_search(G, G)
    assert phi is not None and phi.kind is MapKind.ISO
    assert phi.images == (0, 1, 2, 3)


def test_iso_search_respects_relabellings():
    perm = (3, 1, 0, 2)
    h = G.relabel(perm)
    phi = iso_search(G, h)
    assert phi is not None
    assert classify_mapping(phi.images, G, h) is MapKind.ISO


def test_iso_search_anti_flag():
    # an anti-isomorphism search is an isomorphism search from the opposite
    psi = iso_search(G.opposite(), G)
    assert psi is not None and psi.kind is MapKind.ISO
    assert classify_mapping(psi.images, G, G) is MapKind.ANTI_ISO
    # on a commutative table it re-classifies against the source as ISO
    z2 = CENSUS_TABLES["z2"]
    phi = iso_search(z2.opposite(), z2)
    assert classify_mapping(phi.images, z2, z2) is MapKind.ISO


def test_anti_search_rechecks_the_mapping_it_found(monkeypatch):
    # a search that returned an anti-isomorphism of G as an isomorphism is
    # caught
    monkeypatch.setattr("agband.morphisms._search_hom_bijection",
                        lambda ts, td, candidates, n: (0, 1, 3, 2))
    with pytest.raises(SearchInvariantError, match="re-verifies as"):
        iso_search(G, G)


def test_iso_search_returns_none_between_different_orders():
    assert iso_search(G, tower_level(2)) is None


def fixed_point_counts(g):
    """Per element x, the number of y with xy = y and with yx = y."""
    t, ys = g.table, range(g.order)
    return [(sum(t[x][y] == y for y in ys), sum(t[y][x] == y for y in ys))
            for x in ys]


def near_misses(g, count, seed):
    """``count`` one-cell changes of g that keep every element's
    fixed-point counts, so that only a finer invariant or the search itself
    tells them from g."""
    rng, n, found = random.Random(seed), g.order, []
    want = fixed_point_counts(g)
    while len(found) < count:
        table = [list(row) for row in g.table]
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = (table[i][j] + rng.randrange(1, n)) % n
        bad = FiniteGroupoid(table)
        if fixed_point_counts(bad) == want:
            found.append(bad)
    return found


@pytest.mark.parametrize("level", [2, 3, 4])
def test_iso_search_refutes_fixed_point_keeping_near_misses_unsearched(
        level, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr("agband.morphisms._search_hom_bijection", no_search)
    for base in (tower_level(level), tower_level(level).opposite()):
        for bad in near_misses(base, 4, level):
            assert iso_search(bad, base) is None
            assert iso_search(shuffled(bad, level), base) is None
            assert iso_search(base, bad) is None


def fixed_point_candidates(src, dst):
    """The candidate images the search had before (xy)x = y was counted."""
    cs, cd = fixed_point_counts(src), fixed_point_counts(dst)
    return [frozenset(p for p in range(dst.order) if cd[p] == cs[u])
            for u in range(src.order)]


@pytest.mark.parametrize("name", ["level-1", "level-2", "level-3", "level-4",
                                  "gbar", "z4", "left-zero-3"])
def test_iso_search_finds_the_map_the_fixed_point_candidates_find(name):
    from agband.morphisms import _search_hom_bijection

    tables = {f"level-{k}": tower_level(k) for k in range(1, 5)}
    tables.update(gbar=gbar_derived(), **CENSUS_TABLES)
    g = tables[name]
    for base in (g, g.opposite()):
        for seed in (0, 1):
            src = shuffled(base, seed)
            for dst in (base, g):
                want = _search_hom_bijection(
                    src.table, dst.table, fixed_point_candidates(src, dst),
                    g.order)
                got = iso_search(src, dst)
                assert (got and got.images) == want


def test_anti_to_iso_rebuilds_an_isomorphism():
    count = 0
    cd, dc = G.table[0][1], G.table[1][0]
    for images in itertools.permutations(range(4)):
        phi = verified(images, G, G)
        if phi.kind is not MapKind.ANTI_ISO:
            continue
        count += 1
        psi = anti_to_iso(phi, G, G)
        assert psi.kind is MapKind.ISO
        # the generator swap: c = 0 and d = 1 keep their images, cd and dc
        # trade theirs
        swap = list(images)
        swap[cd], swap[dc] = images[dc], images[cd]
        assert psi.images == tuple(swap)
    assert count == 12


def relabelled_opposite(level):
    """Tower level `level`, a seeded relabelling of its opposite, and the
    anti-isomorphism between them."""
    src = tower_level(level)
    perm = list(range(src.order))
    random.Random(level).shuffle(perm)
    dst = src.opposite().relabel(perm)
    phi = verified(perm, src, dst)
    assert phi.kind is MapKind.ANTI_ISO
    return src, dst, phi


@pytest.mark.parametrize("level", [2, 3])
def test_anti_to_iso_past_order_four(level):
    src, dst, phi = relabelled_opposite(level)
    psi = anti_to_iso(phi, src, dst)
    assert psi.kind is MapKind.ISO
    assert classify_mapping(psi.images, src, dst) is MapKind.ISO


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_anti_to_iso_sweeps_no_laws_on_valid_input(level, monkeypatch):
    def no_sweep(g, who):
        raise AssertionError("the law sweep ran on valid input")

    monkeypatch.setattr("agband.laws.require_aragb", no_sweep)
    src, dst, phi = relabelled_opposite(level)
    assert anti_to_iso(phi, src, dst).kind is MapKind.ISO


def test_anti_to_iso_requires_the_right_variety():
    # the identity map into the opposite is an anti-isomorphism of any
    # non-commutative groupoid, but the source here is outside the variety
    gbar = gbar_derived()
    phi = verified(tuple(range(16)), gbar, gbar.opposite())
    assert phi.kind is MapKind.ANTI_ISO
    with pytest.raises(VarietyError, match=r"^source violates '") as err:
        anti_to_iso(phi, gbar, gbar.opposite())
    assert not err.value.report.holds


@pytest.mark.parametrize("level", [2, 3, 4])
def test_anti_to_iso_sweeps_a_refused_source_once(level, monkeypatch):
    sweeps = []

    def counted(g, who):
        sweeps.append(who)
        require_aragb(g, who)

    monkeypatch.setattr("agband.laws.require_aragb", counted)
    table = [list(row) for row in tower_level(level).table]
    table[1][5] = (table[1][5] + 1) % len(table)
    src = FiniteGroupoid(table)
    phi = verified(range(src.order), src, src.opposite())
    with pytest.raises(VarietyError, match=r"^source violates '"):
        anti_to_iso(phi, src, src.opposite())
    assert sweeps == ["source"]


def test_anti_to_iso_returns_the_given_map_on_a_commutative_source():
    trivial = tower_level(0)
    phi = verified((0,), trivial, trivial)
    assert anti_to_iso(phi, trivial, trivial) == ((0,), MapKind.ISO)


def staged_construction_fails(monkeypatch):
    def fails(k, enumeration=None):
        raise SearchInvariantError("the staged construction failed")

    monkeypatch.setattr("agband.morphisms._staged_iso", fails)


def test_canonical_iso_reraises_the_staged_error_when_the_laws_hold(monkeypatch):
    staged_construction_fails(monkeypatch)
    with pytest.raises(SearchInvariantError, match="staged construction failed"):
        canonical_iso(G)


def test_anti_to_iso_reraises_the_staged_error_when_the_laws_hold(monkeypatch):
    src, dst, phi = relabelled_opposite(1)
    staged_construction_fails(monkeypatch)
    with pytest.raises(SearchInvariantError, match="staged construction failed"):
        anti_to_iso(phi, src, dst)


def test_anti_to_iso_rejects_a_non_anti_isomorphism():
    phi = verified((0, 1, 2, 3), G, G)  # this one is an isomorphism
    with pytest.raises((ValueError, SearchInvariantError)):
        anti_to_iso(phi, G, G)


def test_two_generator_recipe_recovers_the_whole_order_four_model():
    for c, d in itertools.combinations(range(4), 2):
        sub, carrier, phi = two_generator_recipe(G, c, d)
        assert sorted(carrier) == [0, 1, 2, 3]
        assert phi.kind is MapKind.ISO
        assert sub.order == 4


def test_two_generator_recipe_inside_a_larger_model():
    g2 = tower_level(2)
    sub, carrier, phi = two_generator_recipe(g2, 0, 12)
    assert len(carrier) == 4
    assert phi.kind is MapKind.ISO


def test_two_generator_recipe_refuses_a_span_outside_the_variety():
    z4 = FiniteGroupoid(tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4)))
    with pytest.raises(VarietyError, match=r"^input violates '"):
        two_generator_recipe(z4, 0, 1)


def test_two_generator_recipe_refuses_equal_generators():
    with pytest.raises(ValueError, match="generators must be distinct"):
        two_generator_recipe(G, 2, 2)


def test_two_generator_recipe_refuses_a_span_of_two_elements():
    left_zero = FiniteGroupoid([[i] * 4 for i in range(4)])
    with pytest.raises(SearchInvariantError, match="<0, 1> has 2 elements"):
        two_generator_recipe(left_zero, 0, 1)


def test_canonical_iso_on_shuffled_towers():
    h = tower_level(2).relabel(tuple(reversed(range(16))))
    phi = canonical_iso(h)
    assert phi.kind is MapKind.ISO
    assert len(phi.images) == 16


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_canonical_iso_sweeps_no_laws_on_valid_input(level, monkeypatch):
    def no_sweep(g, who):
        raise AssertionError("the law sweep ran on valid input")

    monkeypatch.setattr("agband.laws.require_aragb", no_sweep)
    h = shuffled(tower_level(level), level)
    assert canonical_iso(h).kind is MapKind.ISO
    assert len(g_copy_partition(h).blocks) == h.order // 4


def assert_refused_like_the_law_sweep(g):
    with pytest.raises(VarietyError) as want:
        require_aragb(g, "input")
    with pytest.raises(VarietyError) as got:
        canonical_iso(g)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("level, cells", [
    (level, cells) for level in (2, 3, 4) for cells in (1, 2, 5)
])
def test_canonical_iso_names_the_law_a_corrupted_level_violates(level, cells):
    g = shuffled(tower_level(level), level)
    rng = random.Random(cells)
    table = [list(row) for row in g.table]
    for k in rng.sample(range(g.order ** 2), cells):
        i, j = divmod(k, g.order)
        table[i][j] = (table[i][j] + rng.randrange(1, g.order)) % g.order
    assert_refused_like_the_law_sweep(FiniteGroupoid(table))


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (4, 16) for seed in range(3)])
def test_canonical_iso_names_the_law_a_random_table_violates(n, seed):
    rng = random.Random(seed)
    table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    assert_refused_like_the_law_sweep(FiniteGroupoid(table))


def test_canonical_iso_rejects_tables_outside_the_variety():
    with pytest.raises(VarietyError, match=r"^input violates '") as err:
        canonical_iso(gbar_derived())
    assert not err.value.report.holds


@pytest.mark.parametrize("n", [1, 2, 5])
def test_canonical_iso_rejects_orders_that_are_not_powers_of_four(n):
    g = FiniteGroupoid(tuple(tuple(range(n)) for _ in range(n)))
    with pytest.raises(ValueError, match=r"is not 4\*\*n"):
        canonical_iso(g)
