import itertools

import pytest

from agband.construct import gbar_derived, standard_g, tower_level
from agband.errors import SearchInvariantError, VarietyError
from agband.groupoid import FiniteGroupoid
from agband.morphisms import (
    MapKind,
    Mapping,
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


def test_identity_mapping_is_an_isomorphism():
    f = verified(tuple(range(4)), G, G)
    assert f.kind is MapKind.ISO


def test_classify_mapping_rejects_non_bijections():
    f = Mapping(source_order=4, target_order=4, images=(0, 0, 0, 0))
    assert not f.bijective
    with pytest.raises(ValueError):
        classify_mapping(f, G, G)


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


def test_iso_search_finds_lex_least_witness():
    phi = iso_search(G, G)
    assert phi is not None and phi.kind is MapKind.ISO
    assert phi.images == (0, 1, 2, 3)


def test_iso_search_respects_relabellings():
    perm = (3, 1, 0, 2)
    h = G.relabel(perm)
    phi = iso_search(G, h)
    assert phi is not None
    assert classify_mapping(phi, G, h) is MapKind.ISO


def test_iso_search_anti_flag():
    phi = iso_search(G, G.opposite(), anti=False)
    psi = iso_search(G, G.opposite(), anti=True)
    # G is anti-isomorphic to itself, so both searches succeed here
    assert phi is not None and psi is not None
    assert classify_mapping(psi, G, G.opposite()) in (MapKind.ANTI_ISO, MapKind.ISO)


def test_anti_search_rechecks_the_mapping_it_found(monkeypatch):
    # on a commutative table an anti-isomorphism re-verifies as ISO
    z2 = FiniteGroupoid(((0, 1), (1, 0)))
    assert iso_search(z2, z2, anti=True).kind is MapKind.ISO
    # a search that returned a plain isomorphism of G as an anti one is caught
    monkeypatch.setattr("agband.morphisms._search_hom_bijection",
                        lambda ts, td, candidates, n: tuple(range(n)))
    with pytest.raises(SearchInvariantError, match="re-verifies as"):
        iso_search(G, G, anti=True)


def test_iso_search_returns_none_between_different_orders():
    assert iso_search(G, tower_level(2)) is None


def test_anti_to_iso_rebuilds_an_isomorphism():
    count = 0
    for images in itertools.permutations(range(4)):
        phi = verified(images, G, G)
        if phi.kind is not MapKind.ANTI_ISO:
            continue
        count += 1
        psi = anti_to_iso(phi, G, G)
        assert psi.kind is MapKind.ISO
    assert count == 12


def test_anti_to_iso_requires_the_right_variety():
    # the identity map into the opposite is an anti-isomorphism of any
    # non-commutative groupoid, but the source here is outside the variety
    gbar = gbar_derived()
    phi = verified(tuple(range(16)), gbar, gbar.opposite())
    assert phi.kind is MapKind.ANTI_ISO
    with pytest.raises(VarietyError, match=r"^source violates '") as err:
        anti_to_iso(phi, gbar, gbar.opposite())
    assert not err.value.report.holds


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


def test_canonical_iso_on_shuffled_towers():
    h = tower_level(2).relabel(tuple(reversed(range(16))))
    phi = canonical_iso(h)
    assert phi.kind is MapKind.ISO
    assert phi.source_order == 16


def test_canonical_iso_rejects_non_power_of_four_orders():
    with pytest.raises(VarietyError, match=r"^input violates '") as err:
        canonical_iso(gbar_derived())
    assert not err.value.report.holds
