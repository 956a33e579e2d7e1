"""Finite groupoids as immutable Cayley tables.

Elements are the indices 0..n-1.  Labels are display strings only and never
influence multiplication; every operation works on indices.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain
from operator import itemgetter

from .errors import ClosureError


def default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


class CancellativityReport(namedtuple(
        "CancellativityReport", "left right left_witness right_witness",
        defaults=(None, None))):
    # witness triples (x, a, b): x*a == x*b (left) or a*x == b*x (right), a != b
    __slots__ = ()

    @property
    def both(self) -> bool:
        return self.left and self.right


class FiniteGroupoid:
    """An immutable order-n magma given by its n x n multiplication table."""

    __slots__ = ("table", "labels")

    def __init__(self, table, labels=None):
        table = tuple(tuple(row) for row in table)
        if not table:
            raise ValueError("order must be at least 1")
        n = len(table)
        labels = _checked_labels(default_labels(n) if labels is None else labels, n)
        # the whole table at C level; only a bad table pays for the
        # row-major loop that names its first bad row or cell
        cells = chain.from_iterable
        if not (set(map(len, table)) == {n}
                and set(map(type, cells(table))) == {int}
                and 0 <= min(values := set(cells(table)))
                and max(values) < n):
            for i, row in enumerate(table):
                if len(row) != n:
                    raise ValueError(f"row {i} has length {len(row)}, expected {n}")
                for j, v in enumerate(row):
                    if type(v) is not int or not 0 <= v < n:
                        raise ValueError(f"entry ({i}, {j}) = {v!r} out of range")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return FiniteGroupoid, (self.table, self.labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.table, self.labels) == (other.table, other.labels)

    def __hash__(self):
        return hash((self.table, self.labels))

    def __repr__(self):
        return f"FiniteGroupoid(table={self.table!r}, labels={self.labels!r})"

    @property
    def order(self) -> int:
        return len(self.table)

    def opposite(self) -> "FiniteGroupoid":
        """Transpose of the table; same carrier, same labels."""
        return _built(tuple(zip(*self.table)), self.labels)

    def generated_subgroupoid(self, seeds) -> set[int]:
        """Least subset containing ``seeds`` and closed under the product."""
        seeds = set(seeds)
        if not seeds:
            raise ValueError("seed set must be nonempty")
        n = self.order
        for s in seeds:
            if not (isinstance(s, int) and 0 <= s < n):
                raise IndexError(f"seed {s!r} out of range for order {n}")
        # each round gathers every product with a factor found last round
        t = self.table
        closed, new = set(seeds), list(seeds)
        while new:
            members = list(closed)
            found = set(chain.from_iterable(_gather(t[u], members) for u in new))
            found.update(chain.from_iterable(_gather(t[v], new) for v in members))
            new = list(found - closed)
            closed.update(new)
        return closed

    def is_cancellative(self) -> CancellativityReport:
        """Row and column injectivity, with the first failure as a witness."""
        lw = _first_repeat(self.table)
        rw = _first_repeat(zip(*self.table))
        return CancellativityReport(lw is None, rw is None, lw, rw)

    def restrict(self, subset) -> "FiniteGroupoid":
        """Subgroupoid on ``subset``, re-indexed in ascending index order.

        Raises ClosureError if some product of two members escapes the subset.
        """
        sub = sorted(set(subset))
        if not sub:
            raise ValueError("subset must be nonempty")
        n = self.order
        for s in sub:
            if not (isinstance(s, int) and 0 <= s < n):
                raise IndexError(f"index {s!r} out of range for order {n}")
        t = self.table
        rows = [_gather(t[i], sub) for i in sub]
        pos = dict(zip(sub, range(len(sub))))
        if not pos.keys() >= set(chain.from_iterable(rows)):
            i, j = next((i, j) for i, row in zip(sub, rows)
                        for j, v in zip(sub, row) if v not in pos)
            raise ClosureError(
                f"subset not closed: {i} * {j} = {t[i][j]} escapes",
                witness=(i, j, t[i][j]),
            )
        return _built(tuple(_gather(pos, row) for row in rows),
                      _gather(self.labels, sub))

    def relabel(self, perm) -> "FiniteGroupoid":
        """Carrier permutation: element i becomes perm[i].  Labels follow."""
        n = self.order
        perm = tuple(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("not a permutation of the carrier")
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        t = self.table
        return FiniteGroupoid(
            table=tuple(
                tuple(perm[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
            ),
            labels=tuple(self.labels[inv[i]] for i in range(n)),
        )


def _checked_labels(labels, n: int) -> tuple[str, ...]:
    """``labels`` as n distinct nonempty strings, or ValueError."""
    labels = tuple(str(s) for s in labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n or any(not s for s in labels):
        raise ValueError("labels must be distinct and nonempty")
    return labels


def _built(table: tuple[tuple[int, ...], ...], labels) -> FiniteGroupoid:
    """A FiniteGroupoid from parts the library has already checked, without
    the value scan of ``FiniteGroupoid.__init__``.

    The caller guarantees what that scan would prove: ``table`` is a tuple
    of n tuples of n ints, each in range(n), and ``labels`` are n distinct
    nonempty strings.  No table from outside the library comes here
    unchecked; ``tests/test_groupoid.py`` lists the callers.
    """
    g = object.__new__(FiniteGroupoid)
    object.__setattr__(g, "table", table)
    object.__setattr__(g, "labels", tuple(labels))
    return g


def _gather(seq, indices) -> tuple:
    """``tuple(seq[i] for i in indices)`` by one C-level itemgetter call."""
    if len(indices) == 1:  # where itemgetter gives a bare item
        return (seq[indices[0]],)
    return itemgetter(*indices)(seq)


def _first_repeat(rows) -> tuple[int, int, int] | None:
    """The first (x, a, b) with rows[x][a] == rows[x][b] and a < b, scanning
    row-major; None when every row is injective."""
    for x, row in enumerate(rows):
        seen: dict[int, int] = {}
        for b, v in enumerate(row):
            if v in seen:
                return x, seen[v], b
            seen[v] = b
    return None


def to_doc(g: FiniteGroupoid) -> dict:
    """The Cayley JSON object as plain dicts and lists."""
    return {"order": g.order, "labels": list(g.labels), "table": [list(r) for r in g.table]}


def to_json(g: FiniteGroupoid) -> str:
    """``json.dumps(to_doc(g), indent=2)``, byte for byte.

    ``indent`` turns off json's C encoder, so only the head goes through
    json; the table rows, which are plain ints, are joined directly.
    """
    head = json.dumps({"order": g.order, "labels": list(g.labels)}, indent=2)
    numerals = tuple(map(str, range(g.order)))
    rows = ",\n    ".join(
        ["[\n      " + ",\n      ".join(_gather(numerals, row)) + "\n    ]"
         for row in g.table]
    )
    return head[:-2] + ',\n  "table": [\n    ' + rows + "\n  ]\n}"


def from_json(text: str) -> FiniteGroupoid:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict) or not {"order", "labels", "table"} <= set(doc):
        raise ValueError('expected an object with "order", "labels" and "table"')
    if type(doc["order"]) is not int:
        raise ValueError(f'"order" must be an integer, got {doc["order"]!r}')
    if type(doc["labels"]) is not list or any(type(s) is not str for s in doc["labels"]):
        raise ValueError('"labels" must be a list of strings')
    if type(doc["table"]) is not list or any(type(r) is not list for r in doc["table"]):
        raise ValueError('"table" must be a list of lists')
    g = FiniteGroupoid(table=doc["table"], labels=doc["labels"])
    if g.order != doc["order"]:
        raise ValueError(f'"order" is {doc["order"]} but the table has {g.order} rows')
    return g


def render_text(g: FiniteGroupoid) -> str:
    """Whitespace-aligned table with labelled rows and columns."""
    cells = [["*", *g.labels]]
    for i in range(g.order):
        cells.append([g.labels[i], *(g.labels[v] for v in g.table[i])])
    widths = [max(len(row[c]) for row in cells) for c in range(g.order + 1)]
    lines = ["  ".join(row[c].ljust(widths[c]) for c in range(g.order + 1)).rstrip()
             for row in cells]
    return "\n".join(lines)
