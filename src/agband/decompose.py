"""Partitions of a groupoid into blocks and the quotients they induce.

A partition is a band-of-bands decomposition when every product of two
blocks lands inside a single block; the block products then form a quotient
table.  This module checks supplied partitions, produces the four-block
decomposition of an extension level, partitions a band into disjoint
4-element copies of the standard model, and audits how pairs of such
copies intersect.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from operator import itemgetter

from .construct import tower_level
from .errors import ResourceLimitError, SearchInvariantError
from .groupoid import _G_TABLE, FiniteGroupoid, standard_g


class Partition(namedtuple("Partition", "blocks")):
    """Disjoint nonempty blocks covering 0..n-1.  Block order is meaningful:
    ordinals double as quotient element indices."""

    __slots__ = ()

    def __new__(cls, blocks):
        if any(type(e) is not int for block in blocks for e in block):
            raise ValueError("block elements must be integers")
        blocks = tuple(tuple(sorted(block)) for block in blocks)
        if not blocks or any(not block for block in blocks):
            raise ValueError("blocks must be nonempty")
        seen: dict[int, int] = {}
        for ordinal, block in enumerate(blocks):
            for e in block:
                if seen.get(e) == ordinal:
                    raise ValueError(f"element {e} appears twice in one block")
                if e in seen:
                    raise ValueError(f"element {e} appears in two blocks")
                seen[e] = ordinal
        n = len(seen)
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must cover 0..n-1 exactly")
        return super().__new__(cls, blocks)

    @property
    def order(self) -> int:
        return sum(len(block) for block in self.blocks)

    def block_of(self) -> list[int]:
        """The ordinal of each element's block, indexed by element."""
        where = [0] * self.order
        for ordinal, block in enumerate(self.blocks):
            for e in block:
                where[e] = ordinal
        return where


class DecompositionWitness(namedtuple("DecompositionWitness", "u v u2 v2")):
    """Two products out of the same block pair that land in different
    blocks: u, u2 share a block, v, v2 share a block, but block(u*v) differs
    from block(u2*v2)."""

    __slots__ = ()


class BandDecomposition(namedtuple("BandDecomposition", "partition quotient")):
    __slots__ = ()


def check_band_decomposition(g: FiniteGroupoid, p: Partition):
    """Verify that blocks multiply into blocks.

    Returns a BandDecomposition carrying the induced quotient, or a
    DecompositionWitness for the first block pair that smears across two
    blocks.
    """
    if p.order != g.order:
        raise ValueError(
            f"partition covers {p.order} elements, groupoid has {g.order}"
        )
    block_of = p.block_of()
    t = g.table
    qtable = []
    for row_block in p.blocks:
        # each row gathered to block ordinals must be the first row's
        # targets spread over the columns (at order 1 both gathers give a
        # bare element, so they still compare alike)
        u0 = row_block[0]
        targets = [block_of[t[u0][col_block[0]]] for col_block in p.blocks]
        pattern = itemgetter(*block_of)(targets)
        if any(itemgetter(*t[u])(block_of) != pattern for u in row_block):
            # the first witness in block pair, row, column order
            for col_block in p.blocks:
                v0 = col_block[0]
                target = block_of[t[u0][v0]]
                for u in row_block:
                    for v in col_block:
                        if block_of[t[u][v]] != target:
                            return DecompositionWitness(u0, v0, u, v)
        qtable.append(tuple(targets))
    quotient = FiniteGroupoid(
        tuple(qtable),
        tuple(f"B{i}" for i in range(len(p.blocks))),
    )
    return BandDecomposition(p, quotient)


def extension_block_decomposition(n: int) -> BandDecomposition:
    """The four-block decomposition of tower level n.

    The blocks are the extension's quarters; each is checked equal to
    level n-1 and the quotient isomorphic to level 1.  For n = 1 the
    quarters are singletons, each equal to the order-1 level 0.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    g = tower_level(n)
    quarter = 4 ** (n - 1)
    partition = Partition(
        tuple(tuple(range(b * quarter, (b + 1) * quarter)) for b in range(4))
    )
    outcome = check_band_decomposition(g, partition)
    if isinstance(outcome, DecompositionWitness):
        raise SearchInvariantError(
            f"extension blocks failed to decompose level {n}: {outcome}"
        )
    previous = [itemgetter(*row) for row in tower_level(n - 1).table]
    for lo in range(0, g.order, quarter):
        # level n-1 gathered from the shifted range must be the quarter,
        # which is then closed (at n = 1 both gathers give a bare element)
        shifted = tuple(range(lo, lo + quarter))
        cut = itemgetter(*shifted)
        if any(cut(row) != want(shifted)
               for row, want in zip(g.table[lo:lo + quarter], previous)):
            raise SearchInvariantError(
                f"block starting at {lo} is not equal to the previous "
                "level"
            )
    # of the 24 bijections onto the quotient's four blocks, one must carry
    # the model's table onto the quotient's
    q = outcome.quotient.table
    if not any(all(f[_G_TABLE[i][j]] == q[f[i]][f[j]]
                   for i in range(4) for j in range(4))
               for f in permutations(range(4))):
        raise SearchInvariantError("quotient is not isomorphic to the "
                                   "order-4 model")
    return outcome


def g_copy_partition(g: FiniteGroupoid) -> Partition:
    """Partition a band of order 4**n into order-4 generated sub-bands.

    On the tower level the blocks {4k, ..., 4k+3} are such copies: each
    quarter of an extension is an index-offset copy of the previous level,
    since the diagonal cells of ``extend`` are m[i][j].  The blocks of g are
    their preimages under ``canonical_iso(g)``, which raises for orders
    that are not a power of 4 and for inputs outside the variety.  Each
    block is sorted, the blocks are ordered by least element, and every
    block is checked isomorphic to the order-4 model.
    """
    # here, so that `decompose extension` never runs morphisms
    from .morphisms import canonical_iso, iso_search
    blocks: list[list[int]] = [[] for _ in range(g.order // 4)]
    for e, image in enumerate(canonical_iso(g).images):
        blocks[image // 4].append(e)
    blocks.sort()
    for block in blocks:
        if iso_search(g.restrict(block), standard_g()) is None:
            raise SearchInvariantError(
                f"block {tuple(block)} is not isomorphic to the order-4 model"
            )
    return Partition(tuple(tuple(block) for block in blocks))


class IntersectionAudit(namedtuple(
        "IntersectionAudit", "distinct_copies nonstandard_pairs distribution")):
    """How the two-generated order-4 copies inside a band overlap.

    One copy per unordered generator pair {c, d}; distinct pairs can
    generate the same carrier, and such coincidences show up as
    intersection size 4.  ``nonstandard_pairs`` counts the pairs whose span
    is not a 4-element G copy; ``distribution`` maps an intersection size
    to its number of pairs.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.nonstandard_pairs == 0 and set(self.distribution) <= {
            0,
            1,
            4,
        }


_AUDIT_LIMIT = 64


def copy_intersection_audit(g: FiniteGroupoid) -> IntersectionAudit:
    """Span every unordered pair of distinct elements and tabulate how the
    resulting order-4 copies intersect.  Reports the observed distribution;
    the caller decides what to assert about which sizes occur."""
    if g.order > _AUDIT_LIMIT:
        raise ResourceLimitError(
            f"audit is quadratic in generated copies; supported up to order "
            f"{_AUDIT_LIMIT}"
        )
    from .laws import require_aragb  # here, so only the audit runs laws
    from .morphisms import iso_search
    require_aragb(g, "input")
    reference = standard_g()
    multiplicity: dict[frozenset[int], int] = {}
    nonstandard = 0
    for c in range(g.order):
        for d in range(c + 1, g.order):
            copy = frozenset(g.generated_subgroupoid({c, d}))
            if len(copy) != 4 or (
                copy not in multiplicity
                and iso_search(g.restrict(copy), reference) is None
            ):
                nonstandard += 1
                continue
            multiplicity[copy] = multiplicity.get(copy, 0) + 1
    ordered = sorted(multiplicity, key=sorted)
    distribution: dict[int, int] = {}
    for i, a in enumerate(ordered):
        m = multiplicity[a]
        same = m * (m - 1) // 2
        if same:
            distribution[4] = distribution.get(4, 0) + same
        for b in ordered[i + 1:]:
            size = len(a & b)
            distribution[size] = distribution.get(size, 0) + m * multiplicity[b]
    return IntersectionAudit(len(ordered), nonstandard, distribution)
