"""Exhaustive search for finite models of an identity variety.

Backtracking over Cayley-table cells in row-major order.  After each
assignment the search propagates: idempotency fixes the diagonal up front,
the law (xy)x = y forces table[k][i] = j whenever table[i][j] = k, varieties
containing that law get row/column all-different pruning (it implies both
cancellation properties), and the ground instances of the remaining
identities that read a newly decided cell are re-checked at once, by the
delta scanners of ``laws._compile_kernel``; every other instance was
already checked or is still undecided.  Symmetry is broken by a first-row
lex constraint during search plus exact canonicalization over all
relabelings at the leaves for orders up to 8.

The walk only yields the completed tables.  One loop after it re-checks
each against the variety, canonicalizes it, drops repeats and stops at the
limit.  Orders 9..16 run in witness mode only: a limit is required, found
tables are re-verified but not canonicalized, so duplicates up to
isomorphism may appear among the witnesses.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

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
from .morphisms import iso_search

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


@dataclass(frozen=True)
class SearchStats:
    nodes: int  # branching assignments attempted
    propagation_failures: int  # assignments undone by a detected conflict
    seconds: float


@dataclass(frozen=True)
class SearchOutcome:
    order: int
    variety: str
    canonical_models: tuple[FiniteGroupoid, ...]
    count: int
    stats: SearchStats


# ---------------------------------------------------------------------------
# canonical forms


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
    best = None
    rng = range(n)
    for p in itertools.permutations(rng):
        inv = [0] * n
        for i, pi in enumerate(p):
            inv[pi] = i
        i0 = inv[0]
        row0 = tuple(p[table[i0][inv[c]]] for c in rng)
        if best is not None and row0 > best[0]:
            continue
        cand = (row0,) + tuple(
            tuple(p[table[inv[r]][inv[c]]] for c in rng) for r in range(1, n)
        )
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# first-row symmetry breaking
#
# The canonical table's first row is lex-minimal among all relabelings that
# fix element 0 (any relabeling lowering row 0 would lower the whole table,
# rows compare in order).  Pruning first rows that fail this test therefore
# never discards a canonical representative.


@lru_cache(maxsize=None)
def _stabilizer_perms(n: int):
    out = []
    for rest in itertools.permutations(range(1, n)):
        sigma = (0,) + rest
        inv = [0] * n
        for i, s in enumerate(sigma):
            inv[s] = i
        out.append((sigma, tuple(inv)))
    return tuple(out)


def _row0_minimal(row0: tuple[int, ...], n: int) -> bool:
    for sigma, inv in _stabilizer_perms(n):
        for j in range(1, n):
            v = sigma[row0[inv[j]]]
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
    row0_memo: dict[tuple[int, ...], bool] = {}

    def assign(i: int, j: int, val: int) -> bool:
        queue = [(i, j, val)]
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
        # now must read a cell decided since
        for a, b in trail[mark:]:
            for scan in scanners:
                if scan(table, n, by_value, a, b) is not None:
                    return False
        if not witness_mode and None not in table[0]:
            key = tuple(table[0])
            ok = row0_memo.get(key)
            if ok is None:
                ok = row0_memo[key] = _row0_minimal(key, n)
            if not ok:
                return False
        return True

    def completions(pos: int):
        nonlocal nodes, failures
        while pos < n * n and table[pos // n][pos % n] is not None:
            pos += 1
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
            if assign(i, j, val) and consistent(mark):
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
    )) and all(assign(*pin) for pin in pins)

    for tab in completions(0) if feasible and consistent(0) else ():
        report = check_variety(FiniteGroupoid(tab), v)
        if not report.holds:
            raise SearchInvariantError(
                f"search leaf fails '{report.first_failure.identity}'; "
                "propagation is unsound"
            )
        if not witness_mode:
            tab = canonical_table(tab)
        if tab not in models:
            models[tab] = FiniteGroupoid(tab)
        if len(models) == limit:
            break

    found = tuple(models[tab] for tab in sorted(models))
    if not witness_mode and len(found) <= 10:
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
