import random

import pytest

from agband import decompose
from agband.construct import gbar_derived, standard_g, tower_level
from agband.decompose import (
    BandDecomposition,
    DecompositionWitness,
    IntersectionAudit,
    Partition,
    check_band_decomposition,
    copy_intersection_audit,
    extension_block_decomposition,
    g_copy_partition,
)
from agband.errors import ResourceLimitError, SearchInvariantError, VarietyError
from agband.groupoid import FiniteGroupoid
from agband.laws import check_variety, get_variety
from agband.morphisms import iso_search
from agband.search import canonical_table

G = standard_g()
G_CANONICAL = canonical_table(G.table)


def reference_g_copy_blocks(g):
    """The plain chronological backtracking that g_copy_partition speeds up:
    every partner of the least uncovered element is spanned at every node."""
    n = g.order
    blocks: list[tuple[int, ...]] = []
    uncovered = set(range(n))

    def place() -> bool:
        if not uncovered:
            return True
        c = min(uncovered)
        for d in sorted(uncovered):
            if d == c:
                continue
            copy = g.generated_subgroupoid({c, d})
            if len(copy) != 4 or not copy <= uncovered:
                continue
            block = tuple(sorted(copy))
            blocks.append(block)
            uncovered.difference_update(copy)
            if place():
                return True
            blocks.pop()
            uncovered.update(copy)
        return False

    assert place()
    return tuple(blocks)


def relabelled_level(level, seed):
    g = tower_level(level)
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return g.relabel(tuple(perm))


def assert_g_copy_blocks(g, blocks):
    """A split into order-4 copies, checked without iso_search: the blocks
    partition the carrier, and each is closed under the table and a
    relabelling of the order-4 model."""
    assert sorted(e for block in blocks for e in block) == list(range(g.order))
    t = g.table
    for block in blocks:
        assert len(block) == 4
        assert all(t[u][v] in block for u in block for v in block)
        assert canonical_table(g.restrict(block).table) == G_CANONICAL


def test_partition_validates_cover_and_disjointness():
    p = Partition(blocks=((0, 1), (2, 3)))
    assert p.order == 4
    assert p.block_of()[3] == 1
    with pytest.raises(ValueError, match="element 1 appears in two blocks"):
        Partition(blocks=((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="element 3 appears twice in one block"):
        Partition(blocks=((0, 1), (2, 3, 3)))
    with pytest.raises(ValueError):
        Partition(blocks=((0, 1), (3,)))
    with pytest.raises(ValueError):
        Partition(blocks=((0, 1), ()))


@pytest.mark.parametrize("bad", [1.0, True, "1", None])
def test_partition_elements_must_be_integers(bad):
    # 1.0 and True compare equal to 1 and used to pass as element 1
    with pytest.raises(ValueError, match="integers"):
        Partition(blocks=((0, bad), (2, 3)))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_the_copies_through_an_element_split_the_rest_into_triples(level):
    # every <e, k> is a 4-element copy {e, k, ek, ke}, and these copies meet
    # only in e, so their triples partition the other n - 1 elements
    g = tower_level(level)
    t = g.table
    for e in range(g.order):
        triples = set()
        for k in range(g.order):
            if k != e:
                triple = frozenset((k, t[e][k], t[k][e]))
                assert e not in triple and len(triple) == 3
                assert g.generated_subgroupoid((e, k)) == triple | {e}
                triples.add(triple)
        others = set(range(g.order)) - {e}
        assert set().union(*triples) == others
        assert sum(map(len, triples)) == len(others)


def test_band_decomposition_of_a_semilattice_of_blocks():
    gbar = gbar_derived()
    quarters = Partition(blocks=tuple(tuple(range(4 * b, 4 * b + 4)) for b in range(4)))
    result = check_band_decomposition(gbar, quarters)
    assert isinstance(result, BandDecomposition)
    assert result.quotient.order == 4
    assert result.quotient.labels == ("B0", "B1", "B2", "B3")
    assert result.quotient.table == G.table


def test_band_decomposition_reports_a_smearing_witness():
    halves = Partition(blocks=((0, 1), (2, 3)))
    result = check_band_decomposition(G, halves)
    assert isinstance(result, DecompositionWitness)
    u, v, u2, v2 = result.u, result.v, result.u2, result.v2
    where = halves.block_of()
    assert where[u] == where[u2]
    assert where[v] == where[v2]
    assert where[G.table[u][v]] != where[G.table[u2][v2]]


def reference_band_decomposition(g, p):
    """The block-pair loop check_band_decomposition runs only once a row
    gather finds a mismatch, here run over every pair."""
    block_of = {e: ordinal for ordinal, block in enumerate(p.blocks) for e in block}
    t = g.table
    k = len(p.blocks)
    qtable = [[0] * k for _ in range(k)]
    for bi, row_block in enumerate(p.blocks):
        for bj, col_block in enumerate(p.blocks):
            u0, v0 = row_block[0], col_block[0]
            target = block_of[t[u0][v0]]
            for u in row_block:
                for v in col_block:
                    if block_of[t[u][v]] != target:
                        return DecompositionWitness(u0, v0, u, v)
            qtable[bi][bj] = target
    quotient = FiniteGroupoid(tuple(map(tuple, qtable)),
                              tuple(f"B{i}" for i in range(k)))
    return BandDecomposition(p, quotient)


def decomposition_inputs():
    rng = random.Random(27)

    def chunks(n, size):
        return Partition(tuple(tuple(range(b, min(b + size, n)))
                               for b in range(0, n, size)))

    def scattered(n):
        elements = list(range(n))
        rng.shuffle(elements)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
        bounds = zip([0] + cuts, cuts + [n])
        return Partition(tuple(tuple(elements[a:b]) for a, b in bounds))

    cases = [("g-halves", G, chunks(4, 2)), ("g-points", G, chunks(4, 1)),
             ("g-whole", G, chunks(4, 4)), ("gbar", gbar_derived(), chunks(16, 4)),
             ("level-0", tower_level(0), chunks(1, 1))]
    for level in (1, 2, 3):
        g = tower_level(level)
        cases += [(f"level-{level}-quarters", g, chunks(g.order, g.order // 4)),
                  (f"level-{level}-fours", g, chunks(g.order, 4))]
        for trial in range(4):
            rows = [list(row) for row in g.table]
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            rows[i][j] = rng.randrange(g.order)
            bad = FiniteGroupoid(tuple(map(tuple, rows)))
            cases += [(f"level-{level}-cell-{i}-{j}-quarters", bad,
                       chunks(g.order, g.order // 4)),
                      (f"level-{level}-cell-{i}-{j}-scattered", bad,
                       scattered(g.order))]
    return cases


@pytest.mark.parametrize("name, g, p", decomposition_inputs(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_band_decomposition_matches_the_block_pair_loop(name, g, p):
    assert check_band_decomposition(g, p) == reference_band_decomposition(g, p)


def test_band_decomposition_inputs_reach_both_outcomes():
    outcomes = {type(check_band_decomposition(g, p)).__name__
                for _, g, p in decomposition_inputs()}
    assert outcomes == {"BandDecomposition", "DecompositionWitness"}


def test_quotient_of_an_ag_model_stays_in_the_variety():
    gbar = gbar_derived()
    quarters = Partition(blocks=tuple(tuple(range(4 * b, 4 * b + 4)) for b in range(4)))
    result = check_band_decomposition(gbar, quarters)
    assert check_variety(result.quotient, get_variety("ag")).holds


def test_extension_block_decomposition_levels():
    one = extension_block_decomposition(1)
    assert one.partition.blocks == ((0,), (1,), (2,), (3,))
    assert one.quotient.table == G.table
    two = extension_block_decomposition(2)
    assert len(two.partition.blocks) == 4
    assert all(len(b) == 4 for b in two.partition.blocks)
    assert iso_search(two.quotient, G) is not None
    with pytest.raises(ValueError):
        extension_block_decomposition(0)


def test_extension_blocks_are_copies_of_the_previous_level():
    three = extension_block_decomposition(3)
    g2 = tower_level(2)
    for block in three.partition.blocks:
        sub = tower_level(3).restrict(block)
        assert iso_search(sub, g2) is not None


def test_extension_blocks_must_equal_the_previous_level(monkeypatch):
    # an isomorphic but relabelled level n-1 passes an isomorphism check,
    # so only the table comparison can refuse it
    real = tower_level

    def relabelled_previous(level):
        g = real(level)
        return g.relabel((1, 0) + tuple(range(2, g.order))) if level == 1 else g

    moved = relabelled_previous(1)
    assert moved.table != G.table and iso_search(moved, G) is not None
    monkeypatch.setattr(decompose, "tower_level", relabelled_previous)
    with pytest.raises(SearchInvariantError, match="not equal to the previous level"):
        extension_block_decomposition(2)


def test_extension_refuses_quarters_that_smear(monkeypatch):
    monkeypatch.setattr(decompose, "check_band_decomposition",
                        lambda g, p: DecompositionWitness(0, 4, 1, 5))
    with pytest.raises(SearchInvariantError,
                       match="extension blocks failed to decompose level 2"):
        extension_block_decomposition(2)


def iso_search_finds_nothing(monkeypatch):
    monkeypatch.setattr(decompose, "iso_search", lambda src, dst: None)


def test_extension_refuses_a_quotient_that_is_not_g(monkeypatch):
    iso_search_finds_nothing(monkeypatch)
    with pytest.raises(SearchInvariantError, match="quotient is not isomorphic"):
        extension_block_decomposition(2)


def quarters_equal_previous(table, previous):
    """The slice-and-shift loop that the quarter gathers replaced."""
    q = len(previous)
    return all(row[lo:lo + q] == tuple(map(lo.__add__, want))
               for lo in range(0, len(table), q)
               for row, want in zip(table[lo:lo + q], previous))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extension_quarters_match_the_slice_loop(n, monkeypatch):
    g, previous = tower_level(n), tower_level(n - 1)
    assert quarters_equal_previous(g.table, previous.table)
    extension_block_decomposition(n)
    if n == 1:  # level 0 has no other table of its order
        return
    table = [list(row) for row in previous.table]
    table[-1][-1] = (table[-1][-1] + 1) % previous.order
    bad = FiniteGroupoid(table)
    assert not quarters_equal_previous(g.table, bad.table)
    monkeypatch.setattr(decompose, "tower_level",
                        lambda level: bad if level == n - 1 else g)
    with pytest.raises(SearchInvariantError, match="not equal"):
        extension_block_decomposition(n)


def test_tower_levels_split_into_consecutive_copies_of_g():
    # the fact g_copy_partition pulls back: each block {4k, ..., 4k+3} of a
    # tower level is closed and a copy of the order-4 model
    for level in (1, 2, 3, 4):
        g = tower_level(level)
        assert_g_copy_blocks(
            g, [tuple(range(b, b + 4)) for b in range(0, g.order, 4)]
        )


def test_g_copy_partition_tiles_each_tower_level():
    for lvl, blocks in ((1, 1), (2, 4), (3, 16), (4, 64)):
        g = tower_level(lvl)
        p = g_copy_partition(g)
        assert len(p.blocks) == blocks
        assert p.blocks == reference_g_copy_blocks(g)


# seeds of level-3 labellings whose reference search takes under 0.5 s
# (2-CPU Xeon, Python 3.11); the other seeds below 40 take up to 47 s
FAST_LEVEL3_SEEDS = (0, 1, 3, 7, 9, 10, 12, 13, 14, 15, 16, 20, 21, 22, 23,
                     24, 25, 26, 27, 30, 31, 32, 35, 36, 38, 39)


@pytest.mark.parametrize(
    "level, seed",
    [(1, s) for s in range(24)]
    + [(2, s) for s in range(60)]
    + [(3, s) for s in FAST_LEVEL3_SEEDS],
)
def test_g_copy_partition_matches_the_reference_search(level, seed):
    g = relabelled_level(level, seed)
    blocks = g_copy_partition(g).blocks
    reference = reference_g_copy_blocks(g)
    if level < 3:
        assert blocks == reference
    else:
        # from order 64 on the pullback and the search's first find are
        # different splits, so both are checked, not compared
        assert_g_copy_blocks(g, reference)
        assert_g_copy_blocks(g, blocks)


@pytest.mark.parametrize(
    "level, seed", [(3, s) for s in range(40)] + [(4, s) for s in range(4)]
)
def test_g_copy_partition_splits_relabelled_levels(level, seed):
    g = relabelled_level(level, seed)
    assert_g_copy_blocks(g, g_copy_partition(g).blocks)


def test_g_copy_partition_rejects_wrong_orders_and_varieties():
    with pytest.raises(ValueError):
        g_copy_partition(FiniteGroupoid(table=((0,) * 5,) * 5))
    with pytest.raises(VarietyError, match=r"^input violates '") as err:
        g_copy_partition(gbar_derived())
    assert not err.value.report.holds


def test_g_copy_partition_refuses_a_block_that_is_not_g(monkeypatch):
    iso_search_finds_nothing(monkeypatch)
    with pytest.raises(SearchInvariantError,
                       match=r"block \(0, 1, 2, 3\) is not isomorphic"):
        g_copy_partition(G)


def test_intersection_audit_on_the_small_model():
    audit = copy_intersection_audit(G)
    assert isinstance(audit, IntersectionAudit)
    assert audit.ok
    # every pair of distinct generators spans the whole thing, so all the
    # pairwise intersections have size 4
    assert set(audit.distribution) == {4}
    assert audit.nonstandard_pairs == 0


def test_intersection_audit_sees_all_three_sizes():
    audit = copy_intersection_audit(tower_level(2))
    assert audit.ok
    assert set(audit.distribution) == {0, 1, 4}
    assert audit.distinct_copies == 20
    # 120 unordered generator pairs, six per copy: 15 pairs of them share
    # each copy, and 120 * 119 / 2 pairs of them in all
    assert audit.distribution[4] == 20 * 15
    assert sum(audit.distribution.values()) == 120 * 119 // 2


def test_intersection_audit_counts_pairs_that_span_no_copy_of_g(monkeypatch):
    iso_search_finds_nothing(monkeypatch)
    audit = copy_intersection_audit(G)
    assert (audit.distinct_copies, audit.nonstandard_pairs) == (0, 6)
    assert not audit.ok


def test_intersection_audit_order_limit():
    with pytest.raises(ResourceLimitError):
        copy_intersection_audit(tower_level(4))


def test_intersection_audit_requires_the_variety():
    with pytest.raises(VarietyError, match=r"^input violates '") as err:
        copy_intersection_audit(gbar_derived())
    assert not err.value.report.holds
