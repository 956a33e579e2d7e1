"""The benchmark's own algebra: tower levels, relabellings and output checks.

Nothing here imports agband.  Inputs are generated and outputs are checked
with this code alone, so a defect in one of agband's kernels cannot hide in
the check of its own output.
"""

from __future__ import annotations

import itertools
import json

# The order-4 model on generators a, b with elements a, b, ab, ba.
G_TABLE = ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3))

# The order-quadrupling extension at designated element a.  For row block
# rb and column block cb the product lands in block ob, at the inner index
# given by a word in the base product of the row index i, the column index
# j and a.
_EXTENSION_WORDS = {
    (0, 0): (0, "ij"), (0, 1): (3, "(ja)i"), (0, 2): (1, "ji"),
    (0, 3): (2, "(ij)(ai)"),
    (1, 0): (2, "ji"), (1, 1): (1, "ij"), (1, 2): (3, "j(ai)"),
    (1, 3): (0, "a(ij)"),
    (2, 0): (3, "(ia)(ji)"), (2, 1): (0, "ji"), (2, 2): (2, "ij"),
    (2, 3): (1, "(ai)j"),
    (3, 0): (1, "i(ja)"), (3, 1): (2, "(ij)a"), (3, 2): (0, "(ai)(ja)"),
    (3, 3): (3, "ij"),
}


# ---------------------------------------------------------------------------
# terms: a variable is a one-letter string, a product a pair of terms


def _parse_atom(text: str, pos: int):
    if text[pos] == "(":
        left, pos = _parse_atom(text, pos + 1)
        right, pos = _parse_atom(text, pos)
        if text[pos] != ")":
            raise ValueError(f"expected ')' at {pos} in {text!r}")
        return (left, right), pos + 1
    if not (text[pos].isalpha() and text[pos].islower()):
        raise ValueError(f"unexpected {text[pos]!r} at {pos} in {text!r}")
    return text[pos], pos + 1


def parse_side(text: str):
    """A term written as `atom` or `atom atom`, spaces ignored."""
    text = text.replace(" ", "")
    term, pos = _parse_atom(text, 0)
    if pos < len(text):
        right, pos = _parse_atom(text, pos)
        term = (term, right)
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return term


def parse_identity(text: str):
    lhs, rhs = text.split("=")
    return parse_side(lhs), parse_side(rhs)


def variables(identity) -> list[str]:
    """Variables in order of first occurrence, left side first."""
    seen: list[str] = []

    def walk(term):
        if isinstance(term, str):
            if term not in seen:
                seen.append(term)
        else:
            walk(term[0])
            walk(term[1])

    walk(identity[0])
    walk(identity[1])
    return seen


def evaluate(term, table, env: dict) -> int:
    if isinstance(term, str):
        return env[term]
    return table[evaluate(term[0], table, env)][evaluate(term[1], table, env)]


def violates(identity, table, env: dict) -> bool:
    return evaluate(identity[0], table, env) != evaluate(identity[1], table, env)


def holds_everywhere(identity, table) -> bool:
    names = variables(identity)
    n = len(table)
    return not any(
        violates(identity, table, dict(zip(names, values)))
        for values in itertools.product(range(n), repeat=len(names))
    )


def _as_code(term) -> str:
    if isinstance(term, str):
        return term
    return f"m[{_as_code(term[0])}][{_as_code(term[1])}]"


# ---------------------------------------------------------------------------
# the tower


_CELLS = {
    key: (block, eval(f"lambda m, i, j, a: {_as_code(parse_side(word))}"))  # noqa: S307
    for key, (block, word) in _EXTENSION_WORDS.items()
}


def extend(base) -> list[list[int]]:
    """The next tower level: `base` extended at its element 0."""
    n = len(base)
    table = [[0] * (4 * n) for _ in range(4 * n)]
    for (rb, cb), (ob, word) in _CELLS.items():
        off = ob * n
        for i in range(n):
            row = table[rb * n + i]
            for j in range(n):
                row[cb * n + j] = off + word(base, i, j, 0)
    return table


def tower_levels(top: int) -> list[list[list[int]]]:
    """Levels 0..top; level k has order 4**k and is the top-left corner of
    level k + 1."""
    levels = [[[0]], [list(row) for row in G_TABLE]]
    while len(levels) <= top:
        levels.append(extend(levels[-1]))
    return levels[: top + 1]


def next_level_cell(base, i: int, j: int) -> int:
    """One cell of extend(base) without building it."""
    n = len(base)
    (rb, ii), (cb, jj) = divmod(i, n), divmod(j, n)
    ob, word = _CELLS[(rb, cb)]
    return ob * n + word(base, ii, jj, 0)


# ---------------------------------------------------------------------------
# inputs


def relabel(table, perm) -> list[list[int]]:
    """Element i becomes perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row, pi = table[i], perm[i]
        for j in range(n):
            out[pi][perm[j]] = perm[row[j]]
    return out


def shuffled(table, rng) -> list[list[int]]:
    perm = list(range(len(table)))
    rng.shuffle(perm)
    return relabel(table, perm)


def corrupted(table, rng, keep_fixed_points: bool | None = None):
    """A copy with one cell changed.

    A changed cell (i, j) alters the fixed-point counts of row i or column j
    exactly when its old or new value is i or j.  `keep_fixed_points` True
    asks for a change that keeps every count; False asks for one that adds
    a fixed point to row i; None takes any change.
    """
    n = len(table)
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        old = table[i][j]
        if keep_fixed_points is False:
            new = j
        else:
            new = rng.randrange(n)
        if new == old:
            continue
        if keep_fixed_points and {old, new} & {i, j}:
            continue
        out = [list(row) for row in table]
        out[i][j] = new
        return out


def cayley_json(table) -> str:
    n = len(table)
    return json.dumps(
        {"order": n, "labels": [f"v{k}" for k in range(n)], "table": table}
    )


# ---------------------------------------------------------------------------
# output checks


def maps_homomorphically(images, source, target, anti: bool = False) -> bool:
    """Bijective, and image(xy) is image(x)image(y), or image(y)image(x)
    when `anti`, for all n**2 pairs."""
    n = len(source)
    if len(images) != n or sorted(images) != list(range(n)):
        return False
    for i in range(n):
        row, fi = source[i], images[i]
        for j in range(n):
            want = target[images[j]][fi] if anti else target[fi][images[j]]
            if images[row[j]] != want:
                return False
    return True


def restriction(table, carrier) -> list[list[int]] | None:
    """The sub-table on the sorted carrier, or None if it is not closed."""
    pos = {e: k for k, e in enumerate(carrier)}
    try:
        return [[pos[table[u][v]] for v in carrier] for u in carrier]
    except KeyError:
        return None


def canonical(table) -> tuple:
    """Lexicographically least relabelling; small orders only."""
    n = len(table)
    return min(
        tuple(tuple(p[table[inv[r]][inv[c]]] for c in range(n)) for r in range(n))
        for p in itertools.permutations(range(n))
        for inv in [sorted(range(n), key=p.__getitem__)]
    )


G_CANONICAL = canonical(G_TABLE)
