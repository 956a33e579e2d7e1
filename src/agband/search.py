"""Exhaustive search for finite models of an identity variety.

Backtracking over Cayley-table cells in row-major order, run by one list
of propagators built from the variety's laws: the idempotent pins; the
law (xy)x = y, which forces table[k][i] = j whenever table[i][j] = k and
keeps rows and columns all-different (it implies both cancellations);
one delta scanner per other law (``laws._compile_kernel``), re-checking
the instances that read a newly decided cell and forcing the one cell an
instance lacks, in turn; and the row-minimal break.  Propagation removes
only partial tables that cannot be completed.

The walk only yields the completed tables.  One loop after it takes each
to its canonical form (the lexicographic minimum over all relabelings),
drops repeats, re-checks the laws on the first table of each class and
stops at the limit.  Past the full-enumeration envelope, up to order 16,
witness mode requires a limit and leaves out the row break and the
canonical forms, so witnesses may repeat up to isomorphism.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from functools import lru_cache, partial
from operator import itemgetter

from .errors import ResourceLimitError, SearchInvariantError
from .groupoid import FiniteGroupoid
from .laws import (
    VarietySpec,
    _compile_kernel,
    alpha_key,
    check_variety,
    eval_term,
    parse_identity,
    variables,
)

_IDEMPOTENT_KEYS = frozenset(
    alpha_key(parse_identity(s)) for s in ("x = xx", "xx = x")
)
_FORCING_KEYS = frozenset(
    alpha_key(parse_identity(s)) for s in ("(xy)x = y", "y = (xy)x")
)
_TRIVIAL_KEY = alpha_key(parse_identity("x = y"))  # only order 1 holds it

_CANONICAL_LIMIT = 8
_FORCED_FULL_LIMIT = 8
_PLAIN_FULL_LIMIT = 6
_WITNESS_LIMIT = 16


class SearchStats(namedtuple(
        "SearchStats", "nodes propagation_failures seconds")):
    # nodes: branching assignments attempted; propagation_failures:
    # assignments undone by a detected conflict
    __slots__ = ()


class SearchOutcome(namedtuple(
        "SearchOutcome", "order variety canonical_models count stats")):
    __slots__ = ()


# ---------------------------------------------------------------------------
# canonical forms


@lru_cache(maxsize=None)
def _relabelings(n: int):
    """Every relabeling of range(n) that fixes 0, with its inverse, in
    lexicographic order of the relabelings."""
    fixing = [(0, *rest) for rest in itertools.permutations(range(1, n))]
    return tuple((p, tuple(map(p.index, range(n)))) for p in fixing)


@lru_cache(maxsize=None)
def _gathers(n: int):
    """For every relabeling p of range(n): p as a ``bytes.translate``
    table, and the gathers that read, from the row-major cells of a table,
    the first row and all cells of the table relabeled by p."""
    rows = [tuple(range(a * n, (a + 1) * n)) for a in range(n)]
    values, firsts, cells = [], [], []
    for p in itertools.permutations(range(n)):
        inv = tuple(map(p.index, range(n)))
        cols = itemgetter(*inv)  # cell (r, c) reads cell (inv r, inv c)
        values.append(bytes(p).ljust(256, b"\0"))
        firsts.append(itemgetter(*cols(rows[inv[0]])))
        cells.append(itemgetter(*itertools.chain.from_iterable(
            cols(rows[a]) for a in inv
        )))
    return tuple(values), tuple(firsts), tuple(cells)


def canonical_table(
    table: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """Lexicographic minimum of the table over all relabelings."""
    n = len(table)
    if n > _CANONICAL_LIMIT:
        raise ResourceLimitError(
            f"canonicalization sweeps all {n}! relabelings; supported up to "
            f"order {_CANONICAL_LIMIT}"
        )
    if n == 1:  # a gather of one index returns the cell, not a tuple
        return tuple(map(tuple, table))
    # one translate and one gather per relabeling, all in C: rows compare
    # in order, so only the relabelings with the least first row can win,
    # and only those are gathered in full and compared row-major
    values, firsts, cells = _gathers(n)
    flat = bytes(itertools.chain.from_iterable(table))
    moved = list(map(flat.translate, values))
    heads = list(map(itemgetter.__call__, firsts, moved))
    keep = list(map(min(heads).__eq__, heads))
    best = min(map(itemgetter.__call__, itertools.compress(cells, keep),
                   itertools.compress(moved, keep)))
    return tuple(best[r:r + n] for r in range(0, n * n, n))


# ---------------------------------------------------------------------------
# the propagators
#
# Each part is built per search as closures over the walk's state, with
# some of these hooks; the walk runs each hook of every part that has it.
# decide and scan may queue the (row, column, value) cells they force.
#   pins                the cells decided up front
#   decide(a, b, x, q)  False, having changed nothing, refuses table[a][b] = x
#   undo(a, b, x)       takes back what decide recorded
#   scan(a, b, q)       not None on a failing instance that reads cell (a, b)
#   settled()           False drops the state once propagation ends
#   passed(first, pos)  False drops the rows walked past from ``first``
#   used(i, j)          bit mask of the values cell (i, j) may not take

_Part = namedtuple("_Part", "pins decide undo scan settled passed used",
                   defaults=((),) + (None,) * 6)


def _forcing(n: int) -> _Part:
    row_mask, col_mask = [0] * n, [0] * n

    def flip(a: int, b: int, x: int) -> None:
        row_mask[a] ^= 1 << x
        col_mask[b] ^= 1 << x

    def decide(a: int, b: int, x: int, queue: list) -> bool:
        if (row_mask[a] | col_mask[b]) >> x & 1:
            return False
        row_mask[a] ^= 1 << x
        col_mask[b] ^= 1 << x
        queue.append((x, a, b))
        return True

    return _Part(decide=decide, undo=flip,
                 used=lambda i, j: row_mask[i] | col_mask[j])


def _propagators(v: VarietySpec, keys, table, by_value) -> list[_Part]:
    # x = y reads no cell, so no scanner sees it: it drops every state
    n = len(table)
    parts = [_Part(pins=[(i, i, i) for i in range(n)])
             ] if _IDEMPOTENT_KEYS.intersection(keys) else []
    if _FORCING_KEYS.intersection(keys):
        parts.append(_forcing(n))
    for ident, k in zip(v.identities, keys):
        if k == _TRIVIAL_KEY and n > 1:
            parts.append(_Part(settled=lambda: False))
        elif k not in _IDEMPOTENT_KEYS and k not in _FORCING_KEYS:
            scan = _compile_kernel(ident, partial=True)
            parts.append(_Part(scan=partial(scan, table, n, by_value)))
    return parts


def _row_minimal(row0: tuple[int, ...], k: int, row: tuple[int, ...]) -> bool:
    """Whether row 0 is at most row k (``row``) as written by every
    relabeling that sends k to 0."""
    n = len(row)
    swap = list(range(n))  # the relabeling that exchanges 0 and k
    swap[0], swap[k] = k, 0
    moved = [swap[row[x]] for x in swap]
    for sigma, inv in _relabelings(n):
        for i, cur in zip(inv, row0):
            if sigma[moved[i]] != cur:
                if sigma[moved[i]] < cur:
                    return False
                break
    return True


def _row_break(table: list[list[int | None]]) -> _Part:
    # sound: the canonical table C is at most C relabeled by any p, so its
    # row 0 is at most row k of C written by any p with p(k) = 0.  Row 0
    # is tested once propagation settles, so a failure counts; each later
    # row once the walk has passed it (the caller tested those above)
    n = len(table)
    cached = lru_cache(maxsize=None)(_row_minimal)  # this search's memo
    minimal = lambda k: cached(tuple(table[0]), k, tuple(table[k]))
    return _Part(settled=lambda: None in table[0] or minimal(0),
                 passed=lambda first, pos: all(map(
                     minimal, range(max(1, (first - 1) // n), pos // n))))


def enumerate_models(
    order: int, v: VarietySpec, limit: int | None = None
) -> SearchOutcome:
    """All isomorphism classes of order-`order` models of v, or the first
    `limit` of them.  Past the full-enumeration envelope (8 with the law
    (xy)x = y, 6 without) and up to order 16, a limit is mandatory and the
    witnesses are not canonicalized."""
    if order < 1:
        raise ValueError("order must be positive")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive when given")
    if order > _WITNESS_LIMIT:
        raise ResourceLimitError(
            f"order {order} exceeds the supported envelope "
            f"({_WITNESS_LIMIT}); no search mode is available that far out"
        )
    keys = [alpha_key(i) for i in v.identities]
    full_limit = (_FORCED_FULL_LIMIT if _FORCING_KEYS.intersection(keys)
                  else _PLAIN_FULL_LIMIT)
    witness_mode = order > full_limit
    if witness_mode and limit is None:
        raise ResourceLimitError(
            f"full enumeration of '{v.name}' at order {order} exceeds the "
            f"desk-scale envelope (order {full_limit}); only a witness "
            "search with a limit (models --limit) goes past it"
        )

    n = order
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    trail: list[tuple[int, int]] = []
    by_value: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    parts = _propagators(v, keys, table, by_value)
    if not witness_mode:
        parts.append(_row_break(table))
    pins, decides, undos, scans, settles, passes, uses = (
        [h for p in parts if (h := getattr(p, f))] for f in _Part._fields)
    t0 = time.perf_counter()
    nodes = failures = 0
    models: dict[tuple[tuple[int, ...], ...], FiniteGroupoid] = {}

    def propagate(queue: list[tuple[int, int, int]], mark: int) -> bool:
        # decide the queued (row, column, value) cells, then scan in turn
        # each one decided since ``mark``, before which all was consistent
        while True:
            while queue:
                a, b, x = queue.pop()
                if table[a][b] is not None:
                    if table[a][b] != x:
                        return False
                    continue
                for decide in decides:
                    if not decide(a, b, x, queue):
                        return False
                table[a][b] = x
                trail.append((a, b))
                by_value[x].append((a, b))
            if mark == len(trail):
                for settled in settles:
                    if not settled():
                        return False
                return True
            a, b = trail[mark]
            mark += 1
            for scan in scans:
                if scan(a, b, queue) is not None:
                    return False

    def completions(pos: int):
        nonlocal nodes, failures
        first = pos
        while pos < n * n and table[pos // n][pos % n] is not None:
            pos += 1
        for passed in passes:
            if not passed(first, pos):
                return
        if pos == n * n:
            yield tuple(tuple(row) for row in table)
            return
        i, j = divmod(pos, n)
        used = 0
        for mask in uses:
            used |= mask(i, j)
        for val in range(n):
            if used >> val & 1:
                continue
            mark = len(trail)
            nodes += 1
            if propagate([(i, j, val)], mark):
                yield from completions(pos + 1)
            else:
                failures += 1
            while len(trail) > mark:  # undo
                a, b = trail.pop()
                x, table[a][b] = table[a][b], None
                by_value[x].pop()
                for take_back in undos:
                    take_back(a, b, x)

    # the laws hold in all of a class or in none of it, so the first leaf
    # that fails is the first of its class, and checking one table per
    # class still stops at that leaf
    for tab in completions(0) if propagate(sum(pins, []), 0) else ():
        if not witness_mode:
            tab = canonical_table(tab)
        if tab in models:
            continue
        g = models[tab] = FiniteGroupoid(tab)
        report = check_variety(g, v)
        if not report.holds:
            raise SearchInvariantError(
                f"search leaf fails '{report.first_failure.identity}'; "
                "propagation is unsound")
        if len(models) == limit:
            break

    found = tuple(models[tab] for tab in sorted(models))
    if not witness_mode and len(found) <= 10:
        from .morphisms import iso_search  # here, so larger searches skip it

        for a, b in itertools.combinations(found, 2):
            if iso_search(a, b) is not None:
                raise SearchInvariantError(
                    "two canonical models are isomorphic; deduplication is "
                    "broken"
                )
    stats = SearchStats(nodes, failures, time.perf_counter() - t0)
    return SearchOutcome(order, v.name, found, len(found), stats)


def spectrum_scan(
    v: VarietySpec, max_order: int
) -> tuple[tuple[int, int], ...]:
    """(order, isomorphism-class count) for every order 1..max_order."""
    if max_order < 1:
        raise ValueError("max_order must be positive")
    return tuple(
        (k, enumerate_models(k, v).count) for k in range(1, max_order + 1)
    )


# ---------------------------------------------------------------------------
# independent oracle
#
# Used by tests to validate enumerate_models.  Shares only canonical_table
# with the search above and nothing with the law kernels: no forcing, no
# all-different, no symmetry breaking, and ``laws.eval_term`` as its judge.


def brute_force_oracle(order: int, v: VarietySpec) -> int:
    """Isomorphism-class count by one row-major walk over partial tables.

    The walk backs out as soon as a fully decided instance of a law fails,
    so each full table it reaches is a model.  Orders 1..3 are walked for
    any variety; order 4 only for one containing idempotency, which pins the
    diagonal and leaves the 4**12 off-diagonal assignments.
    """
    if order < 1:
        raise ValueError("order must be positive")
    n = order
    has_idem = any(alpha_key(i) in _IDEMPOTENT_KEYS for i in v.identities)
    if n > 4 or (n == 4 and not has_idem):
        raise ResourceLimitError(
            "the oracle walks orders 1..3, and order 4 only for an "
            f"idempotent variety; order {n} of '{v.name}' is out of reach"
        )
    instances = [
        (ident, dict(zip(names, vals)))
        for ident in v.identities
        for names in (variables(ident),)
        for vals in itertools.product(range(n), repeat=len(names))
    ]
    table: list[list[int | None]] = [
        [i if has_idem and i == j else None for j in range(n)]
        for i in range(n)
    ]
    cells = [(i, j) for i in range(n) for j in range(n) if table[i][j] is None]
    classes: set[tuple[tuple[int, ...], ...]] = set()

    def walk(k: int) -> None:
        for ident, env in instances:
            left = eval_term(ident.lhs, table, env)
            right = eval_term(ident.rhs, table, env)
            if left is not None and right is not None and left != right:
                return
        if k == len(cells):
            classes.add(canonical_table(tuple(tuple(row) for row in table)))
            return
        i, j = cells[k]
        for val in range(n):
            table[i][j] = val
            walk(k + 1)
        table[i][j] = None

    walk(0)
    return len(classes)
