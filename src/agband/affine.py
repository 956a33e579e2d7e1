"""The tower as a vector space over F_4.

Code F_4 = {0, 1, w, w^2} as 0, 1, 2, 3, so that addition is XOR.  A vector
of F_4^n is an int with coordinate k in bits 2k and 2k+1, so vectors add by
XOR too.  The index map phi carries x.y = w x + w^2 y on F_4^n onto tower
level n, the n-th direct power of level 1.  phi reads the base-4 digits of
a tower index t from the most significant, with s = 1 at the start: for
k = n-1 down to 1 coordinate k is s C[t_k] and s becomes s S[t_k], and
coordinate 0 is s F[t_0].  S and C are the extension's blocks h, xh, hx and
(ax)h written affinely.  A leading zero digit keeps s = 1 and gives
coordinate 0, so phi does not depend on the level.
"""

from __future__ import annotations

from itertools import product as assignments

from .errors import SearchInvariantError

_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_S = (1, 3, 2, 3)
_C = (0, 2, 3, 1)
_C_INV = (0, 3, 1, 2)
_F = (0, 1, 3, 2)  # x -> x^2: its own inverse, and 1/x for x != 0


def to_vector(t: int) -> int:
    """phi(t): the vector of tower index t."""
    s, v = 1, 0
    for k in range((t.bit_length() - 1) // 2, 0, -1):
        d = t >> 2 * k & 3
        v |= _MUL[s][_C[d]] << 2 * k
        s = _MUL[s][_S[d]]
    return v | _MUL[s][_F[t & 3]]


def to_index(v: int) -> int:
    """phi^-1(v): the tower index of vector v."""
    s, t = 1, 0
    for k in range((v.bit_length() - 1) // 2, 0, -1):
        d = _C_INV[_MUL[_F[s]][v >> 2 * k & 3]]
        t |= d << 2 * k
        s = _MUL[s][_S[d]]
    return t | _F[_MUL[_F[s]][v & 3]]


def product(u: int, v: int) -> int:
    """w u + w^2 v, the affine product of two vectors, coordinatewise with
    w (a + b w) = b + (a + b) w and w^2 (a + b w) = (a + b) + a w."""
    ones = (4 ** (max(u, v).bit_length() // 2 + 1) - 1) // 3  # each bit 0
    a, b, c, d = u & ones, u >> 1 & ones, v & ones, v >> 1 & ones
    return (b | (a ^ b) << 1) ^ (c ^ d | c << 1)


# w and w^2 times each vector of at most four coordinates, as translate tables
_OMEGA = bytes(product(v, 0) for v in range(256))
_OMEGA2 = bytes(product(0, v) for v in range(256))


def affine_table(vectors: bytes) -> tuple[tuple[int, ...], ...]:
    """The affine product's table on elements 0..len(vectors)-1, where e has
    vector ``vectors[e]``: row x is the XOR of w^2 vectors[y] over all y with
    w vectors[x] repeated, one int each, translated back to elements."""
    n = len(vectors)
    index = bytearray(256)
    for e, v in enumerate(vectors):
        index[v] = e
    right = int.from_bytes(vectors.translate(_OMEGA2), "big")
    ones = int.from_bytes(b"\1" * n, "big")
    return tuple(
        tuple((right ^ _OMEGA[v] * ones).to_bytes(n, "big").translate(index))
        for v in vectors
    )


def certify(g, level: int) -> None:
    """Prove that g, the table of tower level ``level`` (1..4), is an
    anti-rectangular AG-band, from n^2 cells rather than a law sweep.

    Three checks: phi is a bijection of 0..4**level-1; every cell of g is
    phi^-1(w phi(x) + w^2 phi(y)); and the three defining laws hold in F_4,
    over all 64 assignments.  Then g is a direct power of F_4, which keeps
    every identity of F_4.  Raises SearchInvariantError naming the first
    failure, with cells in row-major order.
    """
    n = 4 ** level
    if not 1 <= level <= 4 or g.order != n:
        raise ValueError(f"certify takes levels 1..4 at their order, got "
                         f"level {level} at order {g.order}")
    vectors = bytes(map(to_vector, range(n)))
    if sorted(vectors) != list(range(n)):
        raise SearchInvariantError(f"phi is not a bijection at level {level}")
    model = affine_table(vectors)
    if g.table != model:
        x, y = next((x, y) for x, (got, want) in enumerate(zip(g.table, model))
                    for y in range(n) if got[y] != want[y])
        raise SearchInvariantError(
            f"tower level {level} differs from its F_4 model at ({x}, {y}): "
            f"{g.table[x][y]} against {model[x][y]}"
        )
    for x, y, z in assignments(range(4), repeat=3):
        xy = product(x, y)  # (xy)z = (zy)x, xx = x and (xy)x = y
        if (product(xy, z), product(x, x), product(xy, x)) != (
                product(product(z, y), x), x, y):
            raise SearchInvariantError(f"F_4 fails a defining law at {x, y, z}")
