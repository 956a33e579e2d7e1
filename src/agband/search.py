"""Exhaustive search for finite models of an identity variety.

Backtracking over Cayley-table cells in row-major order.  After each
assignment the search propagates: idempotency fixes the diagonal up front,
the law (xy)x = y forces table[k][i] = j whenever table[i][j] = k, varieties
containing that law get row/column all-different pruning (it implies both
cancellation properties), and the ground instances of the remaining
identities that read a newly decided cell are re-checked at once, by the
delta scanners of ``laws._compile_kernel``; every other instance was
already checked or is still undecided.  An instance with one side decided
whose other side lacks only its outermost cell forces that cell to the
decided value; forced cells are scanned in turn until nothing changes.
Propagation removes only partial tables that cannot be completed.  Outside
witness mode, symmetry is broken on complete rows: row 0 must be at most
each row k as written by every relabeling that sends k to 0, as it is in
every canonical table, so each class keeps its canonical table.

The walk only yields the completed tables.  One loop after it takes each
to its canonical form (the lexicographic minimum over all relabelings),
drops repeats, re-checks the laws on the first table of each class and
stops at the limit.  Orders 9..16 run in witness mode only: a limit is
required, found tables are re-verified but neither pruned by the row test
nor canonicalized, so duplicates up to isomorphism may appear among the
witnesses.
"""

from __future__ import annotations

import itertools
import time
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .errors import ResourceLimitError, SearchInvariantError
from .groupoid import FiniteGroupoid
from .laws import (
    Var,
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
# row symmetry breaking
#
# The canonical table C is at most C relabeled by any p, and rows compare
# in order, so row 0 of C is at most row 0 of C relabeled by p: when
# p(k) = 0, row k of C written by p.  So pruning a table whose row 0
# exceeds such a rewrite of a complete row never discards a canonical
# table, whatever the variety.


def _row_minimal(row0: tuple[int, ...], k: int, row: tuple[int, ...]) -> bool:
    """Whether row 0 is at most row k (``row``) as written by every
    relabeling that sends k to 0."""
    n = len(row)
    swap = list(range(n))  # the relabeling that exchanges 0 and k
    swap[0], swap[k] = k, 0
    moved = [swap[row[x]] for x in swap]
    for sigma, inv in _relabelings(n):
        for j in range(n):
            v = sigma[moved[inv[j]]]
            cur = row0[j]
            if v < cur:
                return False
            if v > cur:
                break
    return True


# ---------------------------------------------------------------------------
# the search itself


def enumerate_models(
    order: int, v: VarietySpec, limit: int | None = None
) -> SearchOutcome:
    """All isomorphism classes of order-`order` models of v, or the first
    `limit` of them.

    Above the full-enumeration envelope (8 for varieties containing the
    forcing law (xy)x = y, 6 otherwise) and up to order 16, a limit is
    mandatory and the returned witnesses are not canonicalized.
    """
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
    has_idem = any(k in _IDEMPOTENT_KEYS for k in keys)
    has_forcing = any(k in _FORCING_KEYS for k in keys)
    full_limit = _FORCED_FULL_LIMIT if has_forcing else _PLAIN_FULL_LIMIT
    witness_mode = order > full_limit
    if witness_mode and limit is None:
        raise ResourceLimitError(
            f"full enumeration of '{v.name}' at order {order} exceeds the "
            f"desk-scale envelope (order {full_limit}); only a witness "
            "search with a limit (models --limit) goes past it"
        )
    scanners = [
        _compile_kernel(ident, partial=True)
        for ident, k in zip(v.identities, keys)
        if k not in _IDEMPOTENT_KEYS and k not in _FORCING_KEYS
    ]

    n = order
    t0 = time.perf_counter()
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    row_mask = [0] * n
    col_mask = [0] * n
    trail: list[tuple[int, int]] = []
    by_value: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nodes = 0
    failures = 0
    models: dict[tuple[tuple[int, ...], ...], FiniteGroupoid] = {}
    row_memo: dict[tuple, bool] = {}

    def assign(queue: list[tuple[int, int, int]]) -> bool:
        # decide each (row, column, value) on the queue, and the cells the
        # forcing law adds to it; False at the first conflict
        while queue:
            a, b, x = queue.pop()
            cur = table[a][b]
            if cur is not None:
                if cur != x:
                    return False
                continue
            if has_forcing:
                bit = 1 << x
                if row_mask[a] & bit or col_mask[b] & bit:
                    return False
                row_mask[a] |= bit
                col_mask[b] |= bit
                queue.append((x, a, b))
            table[a][b] = x
            trail.append((a, b))
            by_value[x].append((a, b))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            a, b = trail.pop()
            x = table[a][b]
            table[a][b] = None
            by_value[x].pop()
            if has_forcing:
                bit = ~(1 << x)
                row_mask[a] &= bit
                col_mask[b] &= bit

    def consistent(mark: int) -> bool:
        # the state before ``mark`` was consistent, so a failing instance
        # now must read a cell decided since; the cells the scanners force
        # join the trail and are scanned in turn, until none is new
        forced: list[tuple[int, int, int]] = []
        while mark < len(trail):
            a, b = trail[mark]
            mark += 1
            for scan in scanners:
                if scan(table, n, by_value, a, b, forced) is not None:
                    return False
            if not assign(forced):
                return False
        return witness_mode or None in table[0] or row_minimal(0)

    def row_minimal(k: int) -> bool:
        key = (tuple(table[0]), k, tuple(table[k]))
        ok = row_memo.get(key)
        if ok is None:
            ok = row_memo[key] = _row_minimal(*key)
        return ok

    def completions(pos: int):
        nonlocal nodes, failures
        first = pos
        while pos < n * n and table[pos // n][pos % n] is not None:
            pos += 1
        # row 0 is tested in ``consistent``, where a failed test counts as
        # a failure; each later row once the walk has passed it, and the
        # caller has tested those above its own row
        if not witness_mode and not all(
            map(row_minimal, range(max(1, (first - 1) // n), pos // n))
        ):
            return
        if pos == n * n:
            yield tuple(tuple(row) for row in table)
            return
        i, j = divmod(pos, n)
        used = row_mask[i] | col_mask[j]  # both 0 without the forcing law
        for val in range(n):
            if used >> val & 1:
                continue
            mark = len(trail)
            nodes += 1
            if assign([(i, j, val)]) and consistent(mark):
                yield from completions(pos + 1)
            else:
                failures += 1
            undo(mark)

    pins = [(i, i, i) for i in range(n)] if has_idem else []
    # the scanners see instances through the cells they read; those of a
    # law without products (x = y) read none and are decided up front
    feasible = (n == 1 or all(
        ident.lhs == ident.rhs
        for ident in v.identities
        if isinstance(ident.lhs, Var) and isinstance(ident.rhs, Var)
    )) and assign(pins)

    # the laws hold in all of a class or in none of it, so the first leaf
    # that fails is the first of its class, and checking one table per
    # class still stops at that leaf
    for tab in completions(0) if feasible and consistent(0) else ():
        if not witness_mode:
            tab = canonical_table(tab)
        if tab in models:
            continue
        g = models[tab] = FiniteGroupoid(tab)
        report = check_variety(g, v)
        if not report.holds:
            raise SearchInvariantError(
                f"search leaf fails '{report.first_failure.identity}'; "
                "propagation is unsound"
            )
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
