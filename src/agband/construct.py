"""Constructions of anti-rectangular bands.

The pieces: the standard order-4 model on two generators, an order-quadrupling
extension that adjoins one fresh generator, the tower of iterated extensions
together with the product of its direct limit, the proper sub-band witnessing
self-embedding, and an order-16 table that is cancellative without being
anti-rectangular.  The order-16 table is kept in two forms, one derived from
its block description and one transcribed from its printed source, so the two
can be diffed.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import ResourceLimitError
from .groupoid import FiniteGroupoid, _built, _checked_labels

# ---------------------------------------------------------------------------
# the standard order-4 model

_G_TABLE = (
    (0, 2, 3, 1),
    (3, 1, 0, 2),
    (1, 3, 2, 0),
    (2, 0, 1, 3),
)


def standard_g() -> FiniteGroupoid:
    """The order-4 model generated by two elements a and b."""
    return FiniteGroupoid(_G_TABLE, ("a", "b", "ab", "ba"))


# ---------------------------------------------------------------------------
# the order-quadrupling extension
#
# extend(h, a, x) has carrier h + xh + hx + (ax)h, indexed in four blocks of
# |h|.  The fresh generator x is the (ax)h-block element at the designated
# position, since (ax)a = x under the anti-rectangular law.  Each of the 16
# block pairs multiplies into a single block, with the inner index given by a
# fixed word in the base product p; the words below are written for row inner
# index i, column inner index j and designated element a.  They are the scalar
# form; extend evaluates the same words a whole block row at a time.

_EXT_CELLS = {
    (0, 0): (0, lambda p, i, j, a: p(i, j)),
    (0, 1): (3, lambda p, i, j, a: p(p(j, a), i)),
    (0, 2): (1, lambda p, i, j, a: p(j, i)),
    (0, 3): (2, lambda p, i, j, a: p(p(i, j), p(a, i))),
    (1, 0): (2, lambda p, i, j, a: p(j, i)),
    (1, 1): (1, lambda p, i, j, a: p(i, j)),
    (1, 2): (3, lambda p, i, j, a: p(j, p(a, i))),
    (1, 3): (0, lambda p, i, j, a: p(a, p(i, j))),
    (2, 0): (3, lambda p, i, j, a: p(p(i, a), p(j, i))),
    (2, 1): (0, lambda p, i, j, a: p(j, i)),
    (2, 2): (2, lambda p, i, j, a: p(i, j)),
    (2, 3): (1, lambda p, i, j, a: p(p(a, i), j)),
    (3, 0): (1, lambda p, i, j, a: p(i, p(j, a))),
    (3, 1): (2, lambda p, i, j, a: p(p(i, j), a)),
    (3, 2): (0, lambda p, i, j, a: p(p(a, i), p(j, a))),
    (3, 3): (3, lambda p, i, j, a: p(i, j)),
}


def _wrap(s: str) -> str:
    return f"({s})" if "*" in s else s


def _mul_label(u: str, v: str) -> str:
    return f"{_wrap(u)}*{_wrap(v)}"


def extend(base: FiniteGroupoid, designated: int = 0,
           x_label: str | None = None) -> FiniteGroupoid:
    """Adjoin a fresh generator to ``base`` at the designated element.

    Quadruples the order.  The first block of the result is ``base`` itself
    (same indices, same labels), so iterating the construction gives a chain
    of prefix-compatible tables.  The base must already satisfy the three
    defining laws; they then carry over to the result.
    """
    n = base.order
    if n < 4:
        raise ValueError(f"base must have order at least 4, got {n}")
    if not 0 <= designated < n:
        raise IndexError(f"designated element {designated} out of range")
    if x_label is None:
        x_label = "x"
    if x_label in base.labels:
        raise ValueError(f"label {x_label!r} already used in the base")
    from .laws import require_aragb  # here, so that `build g` never runs laws
    require_aragb(base, "base")
    g = _extend(base, designated, x_label)
    # a base label may read as a product label does, "x*a" say
    _checked_labels(g.labels, g.order)
    return g


def _extension_labels(labels, a: int, x_label: str) -> list[str]:
    """The labels of the extension of a base labelled ``labels``."""
    ax = _mul_label(labels[a], x_label)
    return (
        list(labels)
        + [_mul_label(x_label, s) for s in labels]
        + [_mul_label(s, x_label) for s in labels]
        + [x_label if i == a else _mul_label(ax, s) for i, s in enumerate(labels)]
    )


def _extend(base: FiniteGroupoid, a: int, x_label: str) -> FiniteGroupoid:
    """``extend`` on a base already known to satisfy the defining laws."""
    m = base.table
    n = len(m)
    cols = tuple(zip(*m))
    js = range(n)

    # Each word reads j once, so evaluating it at the vector js gives a whole
    # block row: an int times a vector gathers a base row, a vector times an
    # int a base column, and js itself stands for the row or column.  A
    # gather from shifted[ob] then moves the row into output block ob.
    def p(u, v):
        if isinstance(v, int):
            if isinstance(u, int):
                return m[u][v]
            return cols[v] if u is js else itemgetter(*u)(cols[v])
        return m[u] if v is js else itemgetter(*v)(m[u])

    shifted = [tuple(range(ob * n, (ob + 1) * n)) for ob in range(4)]
    words = [[_EXT_CELLS[(rb, cb)] for cb in range(4)] for rb in range(4)]
    table = [
        sum((itemgetter(*word(p, i, js, a))(shifted[ob])
             for ob, word in row), ())
        for row in words for i in js
    ]
    return _built(tuple(table), _extension_labels(base.labels, a, x_label))


# ---------------------------------------------------------------------------
# the tower and its limit

_tower_cache: list[FiniteGroupoid] = []

# Level 5 (order 1024, about a million cells) builds in a fraction of a
# second; level 6 would hold 16.7 M cells.
_MAX_LEVEL = 5


def _require_level_in_envelope(n: int) -> None:
    if n > _MAX_LEVEL:
        raise ResourceLimitError(
            f"tower level {n} has order {4 ** n}; levels above "
            f"{_MAX_LEVEL} (order {4 ** _MAX_LEVEL}) are not built"
        )


def tower_level(n: int) -> FiniteGroupoid:
    """Level n of the iterated extension.

    Level 0 is the one-element band, level 1 the standard order-4 model, and
    each later level extends the previous one at its first element with a
    generator named x1, x2, ...  Level k has order 4**k, and every level's
    table is the top-left corner of the next one's.  Each level extended is
    first certified against its F_4 model, which proves its defining laws.
    Levels above 5 raise ResourceLimitError before any work.
    """
    if n < 0:
        raise IndexError("tower levels start at 0")
    _require_level_in_envelope(n)
    if not _tower_cache:
        _tower_cache.append(FiniteGroupoid(((0,),), ("a",)))
        _tower_cache.append(standard_g())
    while len(_tower_cache) <= n:
        from .affine import certify  # here, so that `build g` never runs it
        k = len(_tower_cache)
        certify(_tower_cache[k - 1], k - 1)
        _tower_cache.append(_extend(_tower_cache[k - 1], 0, f"x{k - 1}"))
    return _tower_cache[n]


def limit_product(i: int, j: int) -> int:
    """Product of elements i and j of the union of all tower levels.

    Prefix compatibility makes this well defined: any level whose order
    exceeds both indices gives the same answer.  It is evaluated without a
    table, as the affine product of the two indices' vectors over F_4, in
    time linear in their number of base-4 digits.
    """
    if i < 0 or j < 0:
        raise IndexError("indices must be nonnegative")
    from .affine import product, to_index, to_vector
    return to_index(product(to_vector(i), to_vector(j)))


def adjoined_generator_index(level: int) -> int:
    """Ambient index of the generator adjoined at the given level (>= 2)."""
    if level < 2:
        raise IndexError("levels below 2 adjoin no generator")
    return 3 * 4 ** (level - 1)


def j_subband(n: int) -> FiniteGroupoid:
    """The order-4**n sub-band of level n+1 generated by element 0 together
    with the generators adjoined at levels 2..n+1.  Proper in its ambient
    level, yet isomorphic to level n: the self-embedding witness.

    Level n+1 is not built: the seeds' vectors are 0 and the unit vectors of
    coordinates 1..n, whose span is the vectors 4u, u in level n.  Level n
    is certified, as extending it would be.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _require_level_in_envelope(n + 1)
    from .affine import affine_table, certify, to_index, to_vector
    base = tower_level(n)
    certify(base, n)
    carrier = sorted(to_index(u << 2) for u in range(base.order))
    table = affine_table(bytes(to_vector(t) >> 2 for t in carrier))
    labels = _extension_labels(base.labels, 0, f"x{n}")
    return _built(table, [labels[t] for t in carrier])


# ---------------------------------------------------------------------------
# the order-16 cancellative near-miss
#
# Four blocks of four: each block is a copy of the standard model in a
# twisted parameterization, blocks multiply like the standard model, and the
# entry inside the target block is a fixed word in the row and column
# parameters evaluated back in the base copy (designated elements a, x).

_BLOCK_SYMBOLS = ("A", "B", "AB", "BA")

# Row r of the parameter grid lists, position by position, which base-copy
# element parameterizes each element of block r.
_GBAR_PARAMS = (
    (0, 1, 2, 3),
    (3, 0, 2, 1),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

GBAR_LABELS = (
    "a", "x", "ax", "xa",
    "b", "y", "by", "yb",
    "ab", "xy", "(ab)(xy)", "(xy)(ab)",
    "ba", "yx", "(ba)(yx)", "(yx)(ba)",
)

# Entry words per (row block, column block): g is the row element's
# parameter, h the column element's, and a, x are the base copy's designated
# elements (indices 0 and 1).
_GBAR_WORDS = {
    ("A", "A"): "gh",
    ("A", "B"): "x(g(ah))",
    ("A", "AB"): "(a(hg))x",
    ("A", "BA"): "(ga)h",
    ("B", "A"): "(xa)(hg)",
    ("B", "B"): "gh",
    ("B", "AB"): "(xg)(ha)",
    ("B", "BA"): "(gh)a",
    ("AB", "A"): "(ha)(gh)",
    ("AB", "B"): "(hg)(xa)",
    ("AB", "AB"): "gh",
    ("AB", "BA"): "h((ag)x)",
    ("BA", "A"): "hg",
    ("BA", "B"): "h(gx)",
    ("BA", "AB"): "g(xh)",
    ("BA", "BA"): "gh",
}


def gbar_derived() -> FiniteGroupoid:
    """The order-16 table built from its block description (ground truth)."""
    from .laws import eval_term, parse_term
    terms = {key: parse_term(src) for key, src in _GBAR_WORDS.items()}
    params = _GBAR_PARAMS
    inv = tuple({v: p for p, v in enumerate(row)} for row in params)
    table = [[0] * 16 for _ in range(16)]
    for rb in range(4):
        for cb in range(4):
            ob = _G_TABLE[rb][cb]
            term = terms[(_BLOCK_SYMBOLS[rb], _BLOCK_SYMBOLS[cb])]
            for rp in range(4):
                for cp in range(4):
                    env = {"g": params[rb][rp], "h": params[cb][cp],
                           "a": 0, "x": 1}
                    value = eval_term(term, _G_TABLE, env)
                    table[rb * 4 + rp][cb * 4 + cp] = ob * 4 + inv[ob][value]
    return FiniteGroupoid(tuple(tuple(r) for r in table), GBAR_LABELS)


# Transcribed 1-based form of the same table as printed in its source.  Kept
# verbatim, flaws included: the fourth row lists 12 twice and omits 15, so
# that row is not a permutation.  Diff against gbar_derived() to locate the
# bad cell.
_TABLE3_ROWS = (
    (1, 3, 4, 2, 9, 11, 12, 10, 16, 14, 13, 15, 6, 8, 7, 5),
    (4, 2, 1, 3, 12, 10, 9, 11, 13, 15, 16, 14, 7, 5, 6, 8),
    (2, 4, 3, 1, 10, 12, 11, 9, 15, 13, 14, 16, 5, 7, 8, 6),
    (3, 1, 2, 4, 11, 9, 10, 12, 14, 16, 12, 13, 8, 6, 5, 7),
    (13, 15, 16, 14, 5, 7, 8, 6, 2, 4, 3, 1, 12, 10, 9, 11),
    (16, 14, 13, 15, 8, 6, 5, 7, 3, 1, 2, 4, 9, 11, 12, 10),
    (14, 16, 15, 13, 6, 8, 7, 5, 1, 3, 4, 2, 11, 9, 10, 12),
    (15, 13, 14, 16, 7, 5, 6, 8, 4, 2, 1, 3, 10, 12, 11, 9),
    (6, 8, 7, 5, 13, 15, 16, 14, 9, 11, 12, 10, 4, 2, 1, 3),
    (7, 5, 6, 8, 16, 14, 13, 15, 12, 10, 9, 11, 1, 3, 4, 2),
    (5, 7, 8, 6, 14, 16, 15, 13, 10, 12, 11, 9, 3, 1, 2, 4),
    (8, 6, 5, 7, 15, 13, 14, 16, 11, 9, 10, 12, 2, 4, 3, 1),
    (9, 11, 12, 10, 2, 4, 3, 1, 8, 6, 5, 7, 13, 15, 16, 14),
    (12, 10, 9, 11, 3, 1, 2, 4, 5, 7, 8, 6, 16, 14, 13, 15),
    (10, 12, 11, 9, 1, 3, 4, 2, 7, 5, 6, 8, 14, 16, 15, 13),
    (11, 9, 10, 12, 4, 2, 1, 3, 6, 8, 7, 5, 15, 13, 14, 16),
)


def gbar_table3() -> FiniteGroupoid:
    """The transcribed printed form of the order-16 table (0-based).

    A fixture for diffing only; carries no validity guarantee.
    """
    table = tuple(tuple(v - 1 for v in row) for row in _TABLE3_ROWS)
    return FiniteGroupoid(table, GBAR_LABELS)


def diff_tables(a: FiniteGroupoid, b: FiniteGroupoid) -> tuple[tuple[int, int, int, int], ...]:
    """Cells where two same-order tables disagree, as (row, col, left, right),
    in row-major order.  Empty iff the tables are identical."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} vs {b.order}")
    n = a.order
    return tuple(
        (i, j, a.table[i][j], b.table[i][j])
        for i in range(n)
        for j in range(n)
        if a.table[i][j] != b.table[i][j]
    )
