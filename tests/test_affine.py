"""The index map onto F_4^n, the affine product and the tower certificate.

The tower's own tables are the reference: the index map must carry the
affine product onto every level, the certificate must refuse any table
that differs from a level in one cell, and J_n built from the map must be
the sub-band the old closure derivation gives.
"""

import random

import pytest

from agband import affine, construct, groupoid
from agband.construct import adjoined_generator_index, j_subband, tower_level
from agband.errors import SearchInvariantError
from agband.groupoid import FiniteGroupoid
from agband.morphisms import canonical_iso


def vector_space(n):
    """F_4^n under w x + w^2 y, with each vector its own index."""
    return FiniteGroupoid([[affine.product(u, v) for v in range(4 ** n)]
                           for u in range(4 ** n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_iso_rederives_the_index_map_and_its_constants(n):
    # 0 and the unit vectors 1, 4, 16, ... enumerated first play the tower's
    # generators, so the constants are read off a search, not trusted
    first = (0, *(4 ** k for k in range(n)))
    rest = tuple(e for e in range(4 ** n) if e not in first)
    phi = [0] * 4 ** n
    for u, t in enumerate(canonical_iso(vector_space(n), first + rest).images):
        phi[t] = u
    assert phi == [affine.to_vector(t) for t in range(4 ** n)]
    assert tuple(phi[:4]) == affine._F
    if n >= 2:
        assert tuple(phi[4 * d] >> 2 for d in range(4)) == affine._C
        # coordinate 0 of 4d + 1 is S[d] F[1], and F[1] = 1
        assert tuple(phi[4 * d + 1] & 3 for d in range(4)) == affine._S


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_affine_product_is_each_tower_level_in_full(n):
    table = tower_level(n).table
    vectors = [affine.to_vector(t) for t in range(4 ** n)]
    assert sorted(vectors) == list(range(4 ** n))
    assert all(affine.to_index(affine.product(vectors[x], vectors[y])) == z
               for x, row in enumerate(table) for y, z in enumerate(row))
    assert affine.affine_table(bytes(vectors)) == table


def block_product(i, j, n):
    """The extension words applied block by block down to the order-4 model,
    in a level whose extension blocks have n elements."""
    if n == 1:
        return groupoid._G_TABLE[i][j]
    rb, i = divmod(i, n)
    cb, j = divmod(j, n)
    ob, word = construct._EXT_CELLS[(rb, cb)]
    return ob * n + word(lambda u, v: block_product(u, v, n // 4), i, j, 0)


def test_the_affine_product_matches_level_five_and_the_extension_words():
    table = tower_level(5).table
    rng = random.Random(5)
    for _ in range(4096):
        i, j = rng.randrange(1024), rng.randrange(1024)
        product = affine.to_index(affine.product(affine.to_vector(i),
                                                 affine.to_vector(j)))
        assert product == table[i][j] == block_product(i, j, 256)


@pytest.mark.parametrize("level", [6, 8, 12])
def test_limit_product_answers_past_level_five_as_the_extension_words(level):
    rng = random.Random(level)
    for _ in range(300):
        i, j = rng.randrange(4 ** level), rng.randrange(4 ** level)
        assert construct.limit_product(i, j) == block_product(
            i, j, 4 ** (level - 1))


def test_the_index_map_is_prefix_compatible_and_inverted():
    for t in range(4 ** 6):
        assert affine.to_index(affine.to_vector(t)) == t
    rng = random.Random(0)
    for _ in range(200):
        t = rng.randrange(4 ** 64)
        v = affine.to_vector(t)
        assert affine.to_index(v) == t and v.bit_length() + 1 >> 1 == (
            t.bit_length() + 1 >> 1)
    # the generator adjoined at level k is the unit vector of coordinate k-1
    for k in range(2, 30):
        assert affine.to_vector(adjoined_generator_index(k)) == 4 ** (k - 1)


def one_cell_changes(g, cells):
    for x, y in cells:
        for value in range(g.order):
            if value != g.table[x][y]:
                table = [list(row) for row in g.table]
                table[x][y] = value
                yield x, y, FiniteGroupoid(table, g.labels)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_certify_accepts_the_tower_levels(level):
    affine.certify(tower_level(level), level)


@pytest.mark.parametrize("level", [1, 2])
def test_certify_rejects_every_one_cell_change_of_the_small_levels(level):
    g = tower_level(level)
    cells = [(x, y) for x in range(g.order) for y in range(g.order)]
    for x, y, bad in one_cell_changes(g, cells):
        with pytest.raises(SearchInvariantError, match=rf"at \({x}, {y}\)"):
            affine.certify(bad, level)


@pytest.mark.parametrize("level", [3, 4])
def test_certify_rejects_seeded_one_cell_changes_of_the_large_levels(level):
    g = tower_level(level)
    rng = random.Random(level)
    for _ in range(200):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        table = [list(row) for row in g.table]
        table[x][y] = (table[x][y] + rng.randrange(1, g.order)) % g.order
        with pytest.raises(SearchInvariantError, match=rf"at \({x}, {y}\)"):
            affine.certify(FiniteGroupoid(table), level)


def test_certify_takes_levels_one_to_four_at_their_order():
    for g, level in ((tower_level(0), 0), (tower_level(5), 5),
                     (tower_level(2), 3)):
        with pytest.raises(ValueError, match="levels 1..4"):
            affine.certify(g, level)


def test_certify_refuses_an_index_map_that_is_not_a_bijection(monkeypatch):
    monkeypatch.setattr(affine, "to_vector", lambda e: e // 2)
    with pytest.raises(SearchInvariantError, match="not a bijection at level 1"):
        affine.certify(tower_level(1), 1)


def test_certify_refuses_when_f4_fails_a_defining_law(monkeypatch):
    # the left-zero product: (xy)z = x but (zy)x = z
    monkeypatch.setattr(affine, "product", lambda x, y: x)
    with pytest.raises(SearchInvariantError,
                       match=r"F_4 fails a defining law at \(0, 0, 1\)"):
        affine.certify(tower_level(1), 1)


def test_tower_level_certifies_each_level_it_extends(monkeypatch):
    real = construct._extend

    def corrupted(base, a, x_label):
        g = real(base, a, x_label)
        table = [list(row) for row in g.table]
        table[1][5] = (table[1][5] + 1) % g.order
        return FiniteGroupoid(table, g.labels)

    monkeypatch.setattr(construct, "_tower_cache", [])
    monkeypatch.setattr(construct, "_extend", corrupted)
    # level 2 is built from a certified level 1, and refused once extended
    assert tower_level(2).table[1][5] != real(tower_level(1), 0, "x1").table[1][5]
    with pytest.raises(SearchInvariantError, match=r"level 2 .* at \(1, 5\)"):
        tower_level(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_j_subband_is_the_closure_of_the_generators_in_level_n_plus_1(n):
    g = tower_level(n + 1)
    seeds = {0} | {adjoined_generator_index(k) for k in range(2, n + 2)}
    assert j_subband(n) == g.restrict(sorted(g.generated_subgroupoid(seeds)))
