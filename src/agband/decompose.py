"""Partitions of a groupoid into blocks and the quotients they induce.

A partition is a band-of-bands decomposition when every product of two
blocks lands inside a single block; the block products then form a quotient
table.  This module checks supplied partitions, produces the four-block
decomposition of an extension level, partitions a band into disjoint
4-element copies of the standard model, and audits how pairs of such
copies intersect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError, SearchInvariantError
from .groupoid import FiniteGroupoid
from .laws import require_aragb
from .morphisms import MapKind, iso_search


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering 0..n-1.  Block order is meaningful:
    ordinals double as quotient element indices."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(block)) for block in self.blocks)
        if not blocks or any(not block for block in blocks):
            raise ValueError("blocks must be nonempty")
        seen: dict[int, int] = {}
        for ordinal, block in enumerate(blocks):
            for e in block:
                if e in seen:
                    raise ValueError(f"element {e} appears in two blocks")
                seen[e] = ordinal
        n = len(seen)
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must cover 0..n-1 exactly")
        object.__setattr__(self, "blocks", blocks)

    @property
    def order(self) -> int:
        return sum(len(block) for block in self.blocks)

    def block_of(self) -> dict[int, int]:
        return {
            e: ordinal
            for ordinal, block in enumerate(self.blocks)
            for e in block
        }


def singleton_partition(n: int) -> Partition:
    return Partition(tuple((i,) for i in range(n)))


@dataclass(frozen=True)
class DecompositionWitness:
    """Two products out of the same block pair that land in different
    blocks: u, u2 share a block, v, v2 share a block, but block(u*v) differs
    from block(u2*v2)."""

    u: int
    v: int
    u2: int
    v2: int


@dataclass(frozen=True)
class BandDecomposition:
    partition: Partition
    quotient: FiniteGroupoid


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
    quotient = FiniteGroupoid(
        tuple(tuple(r) for r in qtable),
        tuple(f"B{i}" for i in range(k)),
    )
    return BandDecomposition(p, quotient)


def extension_block_decomposition(n: int) -> BandDecomposition:
    """The four-block decomposition of tower level n.

    For n >= 2 the blocks are the extension's quarters; each is checked
    isomorphic to level n-1 and the quotient isomorphic to level 1.  For
    n = 1 the blocks are singletons and the quotient is the level itself.
    """
    from .construct import standard_g, tower_level

    if n < 1:
        raise ValueError("n must be at least 1")
    g = tower_level(n)
    if n == 1:
        partition = singleton_partition(4)
    else:
        quarter = 4 ** (n - 1)
        partition = Partition(
            tuple(
                tuple(range(b * quarter, (b + 1) * quarter)) for b in range(4)
            )
        )
    outcome = check_band_decomposition(g, partition)
    if isinstance(outcome, DecompositionWitness):
        raise SearchInvariantError(
            f"extension blocks failed to decompose level {n}: {outcome}"
        )
    previous = tower_level(n - 1) if n >= 2 else None
    if previous is not None:
        for block in outcome.partition.blocks:
            piece = g.restrict(block)
            found = iso_search(piece, previous)
            if found is None or found.kind != MapKind.ISO:
                raise SearchInvariantError(
                    f"block starting at {block[0]} is not isomorphic to the "
                    "previous level"
                )
    if iso_search(outcome.quotient, standard_g()) is None:
        raise SearchInvariantError("quotient is not isomorphic to the "
                                   "order-4 model")
    return outcome


_GCOPIES_SPAN_LIMIT = 200_000


def g_copy_partition(g: FiniteGroupoid) -> Partition:
    """Partition a band of order 4**n into order-4 generated sub-bands.

    Deterministic: always takes the least uncovered element c and the least
    partner d whose generated copy <c, d> stays inside the uncovered region,
    backtracking chronologically when a choice strands the remainder.

    Each distinct 4-element copy through c is tried once per search node:
    a partner inside an already spanned 4-element copy S spans a closed
    subset of S, so either S again (the same subtree, or the same refusal)
    or fewer than 4 elements, and it is skipped without spanning.  The
    search still backtracks, and on some relabellings of order 256 it stays
    exponential, so above ``_GCOPIES_SPAN_LIMIT`` spans it gives up with
    ResourceLimitError.
    """
    n = g.order
    power = 4
    while power < n:
        power *= 4
    if power != n or n < 4:
        raise ValueError(f"order {n} is not 4**n for some n >= 1")
    require_aragb(g, "input")

    blocks: list[tuple[int, ...]] = []
    uncovered = set(range(n))
    spans = 0

    def place() -> bool:
        nonlocal spans
        if not uncovered:
            return True
        c = min(uncovered)
        tried = {c}
        for d in sorted(uncovered):
            if d in tried:
                continue
            spans += 1
            if spans > _GCOPIES_SPAN_LIMIT:
                raise ResourceLimitError(
                    "no partition into order-4 copies found within "
                    f"{_GCOPIES_SPAN_LIMIT} spans at order {n}"
                )
            copy = g.generated_subgroupoid({c, d})
            if len(copy) != 4:
                continue
            tried |= copy
            if not copy <= uncovered:
                continue
            block = tuple(sorted(copy))
            blocks.append(block)
            uncovered.difference_update(copy)
            if place():
                return True
            blocks.pop()
            uncovered.update(copy)
        return False

    if not place():
        raise SearchInvariantError(
            "no partition into 4-element generated copies exists; this "
            "contradicts the structure theory for these bands"
        )
    from .construct import standard_g

    for block in blocks:
        if iso_search(g.restrict(block), standard_g()) is None:
            raise SearchInvariantError(
                f"block {block} is not isomorphic to the order-4 model"
            )
    return Partition(tuple(blocks))


@dataclass(frozen=True)
class IntersectionAudit:
    """How the two-generated order-4 copies inside a band overlap.

    One copy per unordered generator pair {c, d}; distinct pairs can
    generate the same carrier, and such coincidences show up as
    intersection size 4.
    """

    generator_pairs: int
    distinct_copies: int
    nonstandard_pairs: int  # pairs whose span is not a 4-element G copy
    pair_count: int
    distribution: dict[int, int]  # intersection size -> number of pairs

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
    from .construct import standard_g

    if g.order > _AUDIT_LIMIT:
        raise ResourceLimitError(
            f"audit is quadratic in generated copies; supported up to order "
            f"{_AUDIT_LIMIT}"
        )
    require_aragb(g, "input")
    reference = standard_g()
    multiplicity: dict[frozenset[int], int] = {}
    generator_pairs = 0
    nonstandard = 0
    for c in range(g.order):
        for d in range(c + 1, g.order):
            generator_pairs += 1
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
    pairs = 0
    for i, a in enumerate(ordered):
        m = multiplicity[a]
        same = m * (m - 1) // 2
        if same:
            distribution[4] = distribution.get(4, 0) + same
            pairs += same
        for b in ordered[i + 1:]:
            size = len(a & b)
            weight = m * multiplicity[b]
            distribution[size] = distribution.get(size, 0) + weight
            pairs += weight
    return IntersectionAudit(
        generator_pairs, len(ordered), nonstandard, pairs, distribution
    )
