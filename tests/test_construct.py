import random

import pytest

from agband.construct import (
    GBAR_LABELS,
    adjoined_generator_index,
    diff_tables,
    extend,
    gbar_derived,
    gbar_table3,
    j_subband,
    limit_product,
    standard_g,
    tower_level,
)
from agband import construct
from agband.errors import ResourceLimitError, VarietyError
from agband.groupoid import FiniteGroupoid
from agband.laws import check_variety, get_variety
from agband.morphisms import iso_search

ARAGB = get_variety("aragb")
AG = get_variety("ag")


def test_standard_g_is_the_known_order_four_model():
    g = standard_g()
    assert g.order == 4
    assert g.labels == ("a", "b", "ab", "ba")
    assert check_variety(g, ARAGB).holds
    # the two generators really do produce the other two elements
    assert g.table[0][1] == 2
    assert g.table[1][0] == 3


def test_every_unordered_pair_of_g_generates_the_whole_thing():
    g = standard_g()
    for c in range(4):
        for d in range(c + 1, 4):
            assert g.generated_subgroupoid({c, d}) == {0, 1, 2, 3}


def test_extend_quadruples_the_order_and_stays_in_the_variety():
    g = standard_g()
    big = extend(g)
    assert big.order == 16
    assert check_variety(big, ARAGB).holds
    # the base sits as a prefix block
    assert big.restrict(range(4)).table == g.table


def test_extend_designated_element_changes_the_table_but_not_the_class():
    g = standard_g()
    seen = set()
    for a in range(4):
        big = extend(g, designated=a)
        assert check_variety(big, ARAGB).holds
        seen.add(big.table)
        assert iso_search(big, tower_level(2)) is not None
    assert len(seen) > 1


def test_extend_rejects_non_models_and_bad_arguments():
    bad = FiniteGroupoid(table=tuple(tuple(range(4)) for _ in range(4)))
    with pytest.raises(VarietyError) as err:
        extend(bad)
    assert str(err.value) == (
        "base violates '(xy)z = (zy)x' at {'x': 0, 'y': 0, 'z': 1}"
    )
    assert not err.value.report.holds
    with pytest.raises(ValueError):
        extend(FiniteGroupoid(table=((0,),)))
    with pytest.raises(IndexError):
        extend(standard_g(), designated=9)


def test_extend_refuses_an_x_label_the_base_already_uses():
    with pytest.raises(ValueError, match="label 'ab' already used in the base"):
        extend(standard_g(), x_label="ab")


@pytest.mark.parametrize("labels, x_label", [
    (("a", "b", "ab", "x*a"), "x"),  # x*a is also the label of x times a
    (("a", "b", "ab", "ba"), ""),
])
def test_extend_refuses_labels_that_would_repeat_or_be_empty(labels, x_label):
    base = FiniteGroupoid(standard_g().table, labels)
    with pytest.raises(ValueError, match="labels must be distinct and nonempty"):
        extend(base, x_label=x_label)


def scalar_extension_table(base, a):
    """The extension table cell by cell from the scalar _EXT_CELLS words."""
    m, n = base.table, base.order

    def p(x, y):
        return m[x][y]

    table = [[0] * (4 * n) for _ in range(4 * n)]
    for (rb, cb), (ob, word) in construct._EXT_CELLS.items():
        for i in range(n):
            row = table[rb * n + i]
            for j in range(n):
                row[cb * n + j] = ob * n + word(p, i, j, a)
    return tuple(map(tuple, table))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_extend_gathers_the_scalar_words(level):
    base = tower_level(level)
    # every designated element up to order 64; element 0 (the tower's) at 256
    for a in range(base.order if level < 4 else 1):
        assert extend(base, a).table == scalar_extension_table(base, a)


def test_tower_levels_nest_as_prefixes():
    g0, g1, g2 = map(tower_level, range(3))
    assert g0.order == 1 and g1.order == 4 and g2.order == 16
    assert g1.table == standard_g().table
    assert g2.restrict(range(4)).table == g1.table
    g3 = tower_level(3)
    assert g3.order == 64
    assert g3.restrict(range(16)).table == g2.table


def test_tower_level_rejects_negative_levels():
    with pytest.raises(IndexError):
        tower_level(-1)


def test_tower_refuses_levels_above_five_before_building():
    built = len(construct._tower_cache)
    for call in (lambda: tower_level(6), lambda: tower_level(7),
                 lambda: j_subband(5)):
        with pytest.raises(ResourceLimitError, match="tower level"):
            call()
    assert len(construct._tower_cache) == built


def test_adjoined_generator_indices():
    assert adjoined_generator_index(2) == 12
    assert adjoined_generator_index(3) == 48
    with pytest.raises(IndexError):
        adjoined_generator_index(1)


def test_limit_product_matches_every_containing_level():
    for lvl in (1, 2, 3):
        t = tower_level(lvl).table
        n = 4**lvl
        for i in range(n):
            for j in range(n):
                assert limit_product(i, j) == t[i][j]


@pytest.mark.parametrize("level", [4, 5])
def test_limit_product_matches_seeded_cells_of_the_large_levels(level):
    t = tower_level(level).table
    rng = random.Random(level)
    for _ in range(4096):
        i, j = rng.randrange(4**level), rng.randrange(4**level)
        assert limit_product(i, j) == t[i][j]


def test_limit_product_builds_no_tower_level():
    t = tower_level(5).table
    saved = list(construct._tower_cache)
    construct._tower_cache.clear()
    try:
        assert limit_product(700, 300) == t[700][300]
        assert limit_product(1023, 1023) == t[1023][1023]
        assert construct._tower_cache == []
    finally:
        construct._tower_cache[:] = saved


def test_limit_product_rejects_negative_indices():
    with pytest.raises(IndexError):
        limit_product(-1, 0)


def test_j_subband_is_a_proper_copy_of_the_previous_level():
    j2 = j_subband(2)
    assert j2.order == 16
    assert check_variety(j2, ARAGB).holds
    assert iso_search(j2, tower_level(2)) is not None


def test_gbar_derived_is_an_ag_band_but_not_anti_rectangular():
    gbar = gbar_derived()
    assert gbar.order == 16
    assert gbar.labels == GBAR_LABELS
    assert check_variety(gbar, AG).holds
    assert not check_variety(gbar, ARAGB).holds


def test_gbar_transcription_differs_in_exactly_one_cell():
    diffs = diff_tables(gbar_derived(), gbar_table3())
    assert diffs == ((3, 10, 14, 11),)


def test_diff_tables_requires_equal_orders():
    with pytest.raises(ValueError):
        diff_tables(standard_g(), gbar_derived())
    assert diff_tables(standard_g(), standard_g()) == ()
