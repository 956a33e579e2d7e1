"""Structure-preserving bijections between finite groupoids.

A Mapping is an images array and the kind a full sweep over all
order-squared pairs classified it as.  Every Mapping this module returns
has just been through that sweep, ``classify_mapping``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from enum import Enum
from operator import eq

from .construct import adjoined_generator_index, tower_level
from .errors import ResourceLimitError, SearchInvariantError
from .groupoid import FiniteGroupoid


class MapKind(str, Enum):
    ISO = "ISO"
    ANTI_ISO = "ANTI_ISO"
    NEITHER = "NEITHER"


class Mapping(namedtuple("Mapping", "images kind")):
    # images: tuple[int, ...]; kind: MapKind
    __slots__ = ()


def _is_hom(images, s_table, d_table, n, anti: bool) -> bool:
    """Whether images is a homomorphism, f(ij) = f(i)f(j), or with
    ``anti`` an anti-homomorphism, f(ij) = f(j)f(i)."""
    for i in range(n):
        row = s_table[i]
        fi = images[i]
        if anti:
            for j in range(n):
                if images[row[j]] != d_table[images[j]][fi]:
                    return False
        else:
            line = d_table[fi]
            for j in range(n):
                if images[row[j]] != line[images[j]]:
                    return False
    return True


def classify_mapping(images, src: FiniteGroupoid, dst: FiniteGroupoid) -> MapKind:
    """Full-sweep classification of images as a map src -> dst.  Raises
    ValueError unless images is a bijection between equal orders.
    Homomorphic bijections report ISO even when they are also
    anti-homomorphic (the commutative case)."""
    n = src.order
    if dst.order != n or sorted(images) != list(range(n)):
        raise ValueError("mapping is not a bijection between equal orders")
    if _is_hom(images, src.table, dst.table, n, False):
        return MapKind.ISO
    if _is_hom(images, src.table, dst.table, n, True):
        return MapKind.ANTI_ISO
    return MapKind.NEITHER


def verified(images, src: FiniteGroupoid, dst: FiniteGroupoid) -> Mapping:
    """Build a Mapping from raw images, stamped with its classified kind."""
    images = tuple(images)
    return Mapping(images, classify_mapping(images, src, dst))


# ---------------------------------------------------------------------------
# exhaustive census of self-bijections


def cycle_type(perm) -> tuple[int, ...]:
    """Cycle lengths of a permutation, longest first."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class BijectionCensus(namedtuple(
        "BijectionCensus", "order total counts by_cycle_type")):
    # counts: {MapKind: int}; by_cycle_type: {(MapKind, cycle type): int}
    __slots__ = ()


_CENSUS_LIMIT = 8


def classify_all_bijections(g: FiniteGroupoid) -> BijectionCensus:
    """Tabulate every self-bijection of g by kind and cycle type."""
    n = g.order
    if n > _CENSUS_LIMIT:
        raise ResourceLimitError(
            f"census enumerates {n}! bijections; supported only up to order "
            f"{_CENSUS_LIMIT}"
        )
    counts = {MapKind.ISO: 0, MapKind.ANTI_ISO: 0, MapKind.NEITHER: 0}
    by_type: dict[tuple[MapKind, tuple[int, ...]], int] = {}
    for perm in itertools.permutations(range(n)):
        kind = classify_mapping(perm, g, g)
        counts[kind] += 1
        key = (kind, cycle_type(perm))
        by_type[key] = by_type.get(key, 0) + 1
    return BijectionCensus(n, math.factorial(n), counts, by_type)


# ---------------------------------------------------------------------------
# backtracking isomorphism search


def _invariant_vectors(g: FiniteGroupoid) -> list[tuple[int, int, int]]:
    """Per element x, the number of y with xy = y, with yx = y and with
    (xy)x = y; an isomorphism f keeps each, since f(x)f(y) = f(xy).  Each
    count is one C-level pass over x's row, its column, or its column
    gathered by its row."""
    t = g.table
    ys = range(g.order)
    return [
        (sum(map(eq, row, ys)), sum(map(eq, col, ys)),
         sum(map(eq, map(col.__getitem__, row), ys)))
        for row, col in zip(t, zip(*t))
    ]


def _search_hom_bijection(ts, td, candidates, n):
    """First (lexicographically least) bijective homomorphism images, or
    None.  Source elements are decided in index order; consequences of each
    decision are propagated immediately."""
    images = [-1] * n
    used = [False] * n
    trail: list[int] = []

    def assign(u: int, p: int) -> bool:
        queue = [(u, p)]
        while queue:
            u, p = queue.pop()
            if images[u] != -1:
                if images[u] != p:
                    return False
                continue
            if used[p] or p not in candidates[u]:
                return False
            images[u] = p
            used[p] = True
            trail.append(u)
            for v in range(n):
                q = images[v]
                if q == -1:
                    continue
                queue.append((ts[u][v], td[p][q]))
                queue.append((ts[v][u], td[q][p]))
        return True

    def extend_from(u: int) -> bool:
        while u < n and images[u] != -1:
            u += 1
        if u == n:
            return True
        for p in sorted(candidates[u]):
            if used[p]:
                continue
            mark = len(trail)
            if assign(u, p) and extend_from(u + 1):
                return True
            while len(trail) > mark:
                w = trail.pop()
                used[images[w]] = False
                images[w] = -1
        return False

    return tuple(images) if extend_from(0) else None


def iso_search(src: FiniteGroupoid, dst: FiniteGroupoid) -> Mapping | None:
    """Deterministic search for an isomorphism src -> dst; an
    anti-isomorphism from src is an isomorphism from ``src.opposite()``.

    Returns the mapping with lexicographically least images, re-verified, or
    None if the groupoids are not isomorphic.
    """
    if src.order != dst.order:
        return None
    n = src.order
    inv_s = _invariant_vectors(src)
    inv_d = _invariant_vectors(dst)
    if sorted(inv_s) != sorted(inv_d):
        return None
    groups: dict[tuple[int, int, int], set[int]] = {}
    for p, vector in enumerate(inv_d):
        groups.setdefault(vector, set()).add(p)
    candidates = [groups[vector] for vector in inv_s]
    images = _search_hom_bijection(src.table, dst.table, candidates, n)
    if images is None:
        return None
    return _verified_iso(images, src, dst)


def _verified_iso(images, src: FiniteGroupoid, dst: FiniteGroupoid) -> Mapping:
    """``verified``, refusing any kind but ISO with SearchInvariantError."""
    f = verified(images, src, dst)
    if f.kind != MapKind.ISO:
        raise SearchInvariantError(f"mapping re-verifies as {f.kind}, not ISO")
    return f


# ---------------------------------------------------------------------------
# turning anti-isomorphisms into isomorphisms


def anti_to_iso(phi: Mapping, src: FiniteGroupoid, dst: FiniteGroupoid) -> Mapping:
    """Given an anti-isomorphism src -> dst, produce an isomorphism.

    Both bands map onto the tower level of their order by ``canonical_iso``:
    src in index order, dst enumerated as the images of phi.  The result is
    the first map followed by the inverse of the second, re-verified.  At
    order 4 this keeps the images of the generators c = 0 and d = 1 and
    swaps the images of cd and dc.
    """
    kind = classify_mapping(phi.images, src, dst)
    if kind == MapKind.ISO and (
        classify_mapping(phi.images, src.opposite(), dst) == MapKind.ISO
    ):
        # commutative case: the given mapping already is an isomorphism
        return Mapping(phi.images, MapKind.ISO)
    if kind != MapKind.ANTI_ISO:
        raise ValueError(f"expected an ANTI_ISO mapping, got {kind}")
    try:
        forth = _staged_iso(src)
    except (ValueError, SearchInvariantError):
        # refused: a source outside the variety is named by its law sweep
        from .laws import require_aragb  # here, so only a refusal runs laws
        require_aragb(src, "source")
        raise
    back = [0] * src.order
    for e, image in enumerate(canonical_iso(dst, phi.images).images):
        back[image] = e
    return _verified_iso([back[image] for image in forth.images], src, dst)


# ---------------------------------------------------------------------------
# the two-generator recipe and the inductive canonical isomorphism


def two_generator_recipe(g: FiniteGroupoid, c: int, d: int):
    """Materialize <c, d> and map it onto the order-4 model by
    c -> a, d -> b, cd -> ab, dc -> ba: the first stage of
    ``canonical_iso`` with c and d enumerated first.

    Returns (subgroupoid, carrier, mapping).  In any groupoid satisfying the
    three defining laws the carrier has exactly four elements and the mapping
    verifies as ISO; a four-element span outside the variety raises
    VarietyError.
    """
    if c == d:
        raise ValueError("generators must be distinct")
    carrier = tuple(sorted(g.generated_subgroupoid({c, d})))
    sub = g.restrict(carrier)
    if sub.order != 4:
        raise SearchInvariantError(
            f"<{c}, {d}> has {sub.order} elements, expected 4"
        )
    first = (carrier.index(c), carrier.index(d))
    rest = (k for k in range(4) if k not in first)
    return sub, carrier, canonical_iso(sub, (*first, *rest))


def canonical_iso(k: FiniteGroupoid, enumeration=None) -> Mapping:
    """Inductively build an isomorphism from k onto the tower level of the
    same order.

    The enumeration fixes which elements play the generator roles: the first
    two seed the base copy, and each later stage adjoins the least-enumerated
    element not yet covered.  Images are forced by the three product shapes
    of the extension (left product, right product, and product through the
    seed), so the construction either succeeds in one pass or trips an
    invariant error.  The result is re-verified over all pairs against the
    tower level, which is an anti-rectangular AG-band, so success is its own
    proof that k is one too.  Only when the construction fails are k's laws
    swept, and a violated law raises VarietyError ahead of the invariant
    error.
    """
    try:
        return _staged_iso(k, enumeration)
    except SearchInvariantError:
        from .laws import require_aragb
        require_aragb(k, "input")
        raise


def _staged_iso(k: FiniteGroupoid, enumeration=None) -> Mapping:
    """``canonical_iso`` without the law sweep: ValueError for an order or
    enumeration it cannot take, SearchInvariantError when the construction
    fails."""
    n = k.order
    level = 0
    while 4 ** level < n:
        level += 1
    if 4 ** level != n or level < 1:
        raise ValueError(f"order {n} is not 4**n for some n >= 1")
    if enumeration is None:
        enumeration = range(n)
    enumeration = tuple(enumeration)
    if sorted(enumeration) != list(range(n)):
        raise ValueError("enumeration must be a permutation of the indices")
    target = tower_level(level)
    tt = target.table
    tk = k.table

    # Each stage extends phi over a snapshot of the previous one, first
    # writer wins: on input outside the variety, the check after the stages
    # or the re-verification against the tower level refuses the result.
    y1, y2 = enumeration[0], enumeration[1]
    phi = {y1: 0, y2: 1, tk[y1][y2]: 2, tk[y2][y1]: 3}
    for m in range(1, level):
        y = next(e for e in enumeration if e not in phi)
        x_idx = adjoined_generator_index(m + 1)
        y1y = tk[y1][y]
        y1x = tt[phi[y1]][x_idx]
        for c, pc in list(phi.items()):
            phi.setdefault(tk[y][c], tt[x_idx][pc])
            phi.setdefault(tk[c][y], tt[pc][x_idx])
            phi.setdefault(tk[y1y][c], tt[y1x][pc])
    distinct = len(set(phi.values()))
    if len(phi) != n or distinct != n:
        raise SearchInvariantError(
            f"the stages mapped {len(phi)} of {n} elements onto {distinct} "
            "distinct images"
        )

    return _verified_iso([phi[e] for e in range(n)], k, target)
