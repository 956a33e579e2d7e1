"""Groupoid identities: a small term language, a parser, and fast checkers.

An identity such as ``(xy)z = (zy)x`` quantifies implicitly over all of its
variables.  Checking one against a finite table means sweeping every
assignment of elements to variables.  ``check_identity`` compiles that sweep
into a nest of ``for`` loops, one per variable, with repeated subproducts
hoisted to the outermost loop that can compute them, instead of interpreting
the terms inside the innermost loop.  On tables of order up to 256 the
innermost variable is not a loop at all: it is swept as one ``bytes`` vector
of all n elements, and each product with it in one factor is a single
``bytes.translate`` through a row or column of the table, so the work per
assignment runs in C.  In a law of four or more variables where each side
reaches the innermost variable w through at most two *hooks*, the factors
without w (``(xy)(zw)`` through ``xy`` and ``z``), a side's vector over w
depends only on its hooks: it is tabulated once per call for every pair of
hook values, and the loops stop one variable earlier, a side's n vectors
over the variable before w being one ``operator.itemgetter`` gather of a
table row or column.  Laws with a product of the innermost variable by
itself (such as ``x = xx``), and tables above order 256, keep the scalar
loop.  All three sweeps report the same lexicographically first
counterexample.  The same compiler builds the model search's delta scanners: on a partial
table, with ``None`` for undecided cells, they re-check only the instances
that read one given cell, always with scalar loops, and report the cells
those instances force.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .errors import ParseError, VarietyError


# ---------------------------------------------------------------------------
# terms and identities


class Var(namedtuple("Var", "name")):
    __slots__ = ()


class Prod(namedtuple("Prod", "left right")):  # two Terms
    __slots__ = ()


Term = Var | Prod


class Identity(namedtuple("Identity", "lhs rhs")):  # two Terms
    __slots__ = ()

    def __str__(self) -> str:
        return f"{pretty(self.lhs)} = {pretty(self.rhs)}"


def pretty(term: Term) -> str:
    """Render with the fewest parentheses the grammar can re-read."""

    def atom(t: Term) -> str:
        if isinstance(t, Var):
            return t.name
        return f"({atom(t.left)}{atom(t.right)})"

    if isinstance(term, Var):
        return term.name
    return f"{atom(term.left)}{atom(term.right)}"


def variables(identity: Identity) -> tuple[str, ...]:
    """Variable names in order of first occurrence, left side first."""
    order: list[str] = []

    def scan(t: Term):
        if isinstance(t, Var):
            if t.name not in order:
                order.append(t.name)
        else:
            scan(t.left)
            scan(t.right)

    scan(identity.lhs)
    scan(identity.rhs)
    return tuple(order)


def alpha_key(identity: Identity) -> str:
    """Canonical string, invariant under renaming of variables."""
    names = {v: f"v{i}" for i, v in enumerate(variables(identity))}

    def walk(t: Term) -> Term:
        if isinstance(t, Var):
            return Var(names[t.name])
        return Prod(walk(t.left), walk(t.right))

    return str(Identity(walk(identity.lhs), walk(identity.rhs)))


# ---------------------------------------------------------------------------
# parsing
#
#   identity := side '=' side
#   side     := atom | atom atom        (outermost parentheses optional)
#   atom     := variable | '(' atom atom ')'
#
# Variables are single lowercase letters, products are juxtaposition, and
# whitespace is free.  Parentheses always enclose exactly two factors, and a
# side of three or more atoms is rejected rather than guessed at; write the
# grouping out.


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def fail(self, message: str):
        raise ParseError(message, offset=min(self.pos, len(self.text)))


def _starts_atom(c: str) -> bool:
    return c == "(" or (c.isalpha() and c.islower())


def _parse_atom(cur: _Cursor) -> Term:
    c = cur.peek()
    if c == "(":
        cur.take()
        left = _parse_atom(cur)
        right = _parse_atom(cur)
        if cur.peek() != ")":
            cur.fail("expected ')'")
        cur.take()
        return Prod(left, right)
    if c.isalpha() and c.islower():
        cur.take()
        return Var(c)
    cur.fail("expected a variable or '('")


def _parse_side(cur: _Cursor) -> Term:
    first = _parse_atom(cur)
    if _starts_atom(cur.peek()):
        second = _parse_atom(cur)
        if _starts_atom(cur.peek()):
            cur.fail("ambiguous product of three terms, parenthesize")
        return Prod(first, second)
    return first


def parse_term(text: str) -> Term:
    cur = _Cursor(text)
    term = _parse_side(cur)
    if cur.peek():
        cur.fail("unexpected trailing input")
    return term


def parse_identity(text: str) -> Identity:
    cur = _Cursor(text)
    lhs = _parse_side(cur)
    if cur.peek() != "=":
        cur.fail("expected '='")
    cur.take()
    rhs = _parse_side(cur)
    if cur.peek():
        cur.fail("unexpected trailing input")
    return Identity(lhs, rhs)


# ---------------------------------------------------------------------------
# evaluation and checking


def eval_term(term: Term, table, env: dict[str, int]) -> int | None:
    """Straightforward recursive evaluation; the reference the kernel is
    tested against.  On a partial table, whose undecided cells are None,
    the value is None once a product reads an undecided cell."""
    if isinstance(term, Var):
        return env[term.name]
    left = eval_term(term.left, table, env)
    right = None if left is None else eval_term(term.right, table, env)
    return None if right is None else table[left][right]


class IdentityReport(namedtuple(
        "IdentityReport", "identity holds counterexample assignments")):
    # counterexample: {variable: element} or None; assignments: those
    # swept, counting the failing one
    __slots__ = ()


# CPython compiles at most 20 statically nested blocks, and each loop of a
# kernel is one: the full kernel nests one per variable, a delta scanner one
# per compound operand it pins plus one per variable left free.
_MAX_LOOPS = 20


@lru_cache(maxsize=None)
def _compile_kernel(identity: Identity, partial: bool = False):
    """Build the checker for this identity's shape.

    The full kernel is called as ``(t, n, lines)``: it sweeps every assignment
    in lexicographic order and returns the first failing one as a tuple in
    variable order, or None.  With ``lines = (R, C)``, the rows and columns
    of ``t`` as 256-byte translation tables, the innermost variable ``w`` is
    swept as the vector ``bytes(range(n))``: ``aw`` is row ``a`` and ``wb``
    is column ``b``, any other product with ``w`` in one factor becomes
    ``vec.translate(R[a])`` or ``vec.translate(C[b])``, a side without
    ``w`` is repeated n times, and on a mismatch the first differing byte
    gives ``w``.  Since ``w`` is the innermost loop, that is the same
    assignment the scalar loop stops at.  A product with ``w`` in both
    factors, such as ``x = xx``, cannot be lowered, and those kernels
    always loop on scalars; so do all kernels given ``lines = None``
    (tables of order above 256).

    A law of four or more variables is tabulated when it can be (see the
    module docstring; a side without w is one hook itself).  The tables of
    n or n**2 vectors come from the same translates, equal vectors made
    one object, and sides of one shape share one.  With z the variable
    before w, each hook is a scalar or, for at most one per side, a vector
    over z; the first differing z, then the first differing byte, give the
    scalar loop's counterexample.  Three hooks, w in both factors of a
    product, or a hook that cannot be a vector over z leave the law to the
    vector lowering.  The function is named ``_tabulated``, ``_vector`` or
    ``_scalar`` after its lowering; given ``lines = None`` (or, when
    tabulated, order 1) the first two loop on scalars.

    With ``partial`` the result is the model search's delta scanner
    ``_scan(t, n, by_value, i, j, forced)``.  The table may hold ``None``
    holes (undecided cells), and ``by_value[k]`` lists the decided cells
    holding ``k``.  It returns a failing instance, as a tuple in variable
    order, among the instances that read the decided cell ``(i, j)``,
    skipping those with an undecided subterm, or None.  An instance whose
    one side is decided, and whose other side's only undecided cell is the
    one its outermost product reads, forces that cell to the decided
    value: the scanner appends ``(row, column, value)`` to ``forced`` and
    goes on; it may append a cell more than once, and stops appending at a
    failure.  An instance reads ``(i, j)``
    exactly when some product in the identity has operands that evaluate
    to ``i`` and ``j``, so there is one block per distinct product, and
    each pins that product's operands: a variable is bound to the value
    (or compared with it, when already bound), a compound operand runs
    over ``by_value`` of the value and pins its own factors to the cell's
    row and column.  The variables still free loop over ``range(n)``.

    Generated names other than the law's variables start with an
    underscore, so they never clash with a variable (a lowercase letter).
    """
    order = variables(identity)
    w = order[-1]
    pad = "    "

    def uses_w(t: Term) -> bool:
        if isinstance(t, Var):
            return t.name == w
        return uses_w(t.left) or uses_w(t.right)

    def nest(steps, known, vec: str = "", tabulate: bool = False):
        # ``steps`` are (line, opens a block, variables it binds), in order;
        # ``known`` maps subterms to the (expression, step) that gives their
        # value.  Every other subterm is hoisted to the first step after
        # which it can be computed; the ones that depend on the variable
        # ``vec`` are bytes of length n, and with ``tabulate`` each side is
        # a tuple of its n vectors over w, one for each value of ``vec``
        level = {v: k for k, (_, _, bound) in enumerate(steps) for v in bound}
        names: dict[tuple[str, bool], str] = {}
        stmts: list[tuple[int, str, str, bool]] = []

        def temp(expr: str, lvl: int, guard: bool = True) -> str:
            if (expr, guard) not in names:
                names[expr, guard] = f"_s{len(names)}"
                stmts.append((lvl, names[expr, guard], expr, guard))
            return names[expr, guard]

        def lower(t: Term) -> tuple[str, int, bool] | None:
            # -> (name, step, depends on vec); None when vec meets itself
            if t in known:
                return known[t] + (False,)
            if isinstance(t, Var):
                if t.name == vec:
                    return "_w", -1, True
                return t.name, level[t.name], False
            left, right = lower(t.left), lower(t.right)
            if left is None or right is None or (left[2] and right[2]):
                return None
            (a, la, va), (b, lb, vb) = left, right
            if a == "_w":
                expr = f"C[{b}][:_n]"
            elif va:
                expr = f"{a}.translate(C[{b}])"
            elif b == "_w":
                expr = f"R[{a}][:_n]"
            elif vb:
                expr = f"{b}.translate(R[{a}])"
            else:
                expr = f"_t[{a}][{b}]"
            lvl = max(la, lb)
            return temp(expr, lvl), lvl, va or vb

        def tabulated(t: Term):
            # -> (name, step, True); None when t has more than two hooks,
            # w in both factors of a product, or hooks that cannot be
            # gathered over z (vec) with one ``itemgetter``
            seen = temp("{}", -1)
            if not uses_w(t):
                hooks = [t]
                table = temp(f"_interned((bytes((_a,)) * _n for _a in range(_n)), "
                             f"{seen})", -1)
            else:
                hooks, dirs, table = [], "", "_w"
                while isinstance(t, Prod):
                    left = uses_w(t.left)
                    if left and uses_w(t.right):
                        return None
                    dirs += "C" if left else "R"
                    hooks.append(t.right if left else t.left)
                    t = t.left if left else t.right
                if len(hooks) > 2:
                    return None
                if hooks:
                    table = temp(f"_interned(map(_w.translate, {dirs[-1]}), {seen})",
                                 -1)
                if len(hooks) == 2:
                    table = temp(f"[_interned([_v.translate({dirs[0]}[_a]) for _v in "
                                 f"{table}], {seen}) for _a in range(_n)]", -1)
            lowered = [lower(h) for h in hooks]
            if None in lowered or sum(dep for _, _, dep in lowered) > 1:
                return None
            if not hooks:
                return temp("(_w,) * _n", -1), -1, True
            if lowered[0][2] and len(hooks) == 2:
                # the outer hook varies with z: gather a column
                table = temp(f"list(zip(*{table}))", -1)
                lowered.reverse()
            row, lvl = table, -1
            if len(hooks) == 2:
                lvl = lowered[0][1]
                row = temp(f"{table}[{lowered[0][0]}]", lvl)
            h, lh, dh = lowered[-1]
            lvl = max(lvl, lh)
            if not dh:
                return temp(f"({row}[{h}],) * _n", lvl), lvl, True
            if h == "_w":
                return row, lvl, True
            return temp(f"{temp(f'_ig(*{h})', lh)}({row})", lvl), lvl, True

        def side(t: Term):
            # -> (lowered, cell); in a scanner a side's outermost product
            # is left unguarded, and ``cell`` is the cell it reads, which
            # the other side's value forces while it is undecided
            if tabulate:
                return tabulated(t), None
            if not partial or isinstance(t, Var) or t in known:
                return lower(t), None
            (a, la, _), (b, lb, _) = lower(t.left), lower(t.right)
            lvl = max(la, lb)
            return (temp(f"_t[{a}][{b}]", lvl, False), lvl, False), (a, b)

        (lhs, lcell), (rhs, rcell) = side(identity.lhs), side(identity.rhs)
        if lhs is None or rhs is None:
            return None
        (a, la, va), (b, lb, vb) = lhs, rhs
        if vec and not va:
            a = temp(f"bytes(({a},)) * _n", la)
        if vec and not vb:
            b = temp(f"bytes(({b},)) * _n", lb)
        code = []
        depth = 1
        if vec:
            code.append(pad + "_w = bytes(range(_n))")
        for k in range(-1, len(steps)):
            if k >= 0:
                line, opens, _ = steps[k]
                code.append(pad * depth + line)
                depth += opens
            for tl, name, expr, guard in stmts:
                if tl == k:
                    code.append(pad * depth + f"{name} = {expr}")
                    if partial and guard:
                        code.append(pad * depth + f"if {name} is not None:")
                        depth += 1
        inner = pad * depth
        found = f"return ({', '.join(order)},)"
        test = "if"
        for x, y, cell in ((a, b, lcell), (b, a, rcell)):
            if cell:
                code += [inner + f"{test} {x} is None:",
                         inner + pad + f"if {y} is not None:",
                         inner + pad * 2
                         + f"_forced.append(({cell[0]}, {cell[1]}, {y}))"]
                test = "elif"
        code.append(inner + f"{test} {a} != {b}:")
        # the vectors' first difference, innermost variable last
        for v in order[order.index(vec):] if vec else ():
            a, b = f"{a}[{v}]", f"{b}[{v}]"
            code += [inner + pad + f"for {v} in range(_n):",
                     inner + pad * 2 + f"if {a} != {b}:"]
            inner += pad * 2
        code.append(inner + pad + found)
        return code

    def loops(names) -> list[tuple[str, bool, tuple[str, ...]]]:
        return [(f"for {v} in range(_n):", True, (v,)) for v in names]

    def delta(prod: Prod) -> list[str]:
        # the instances in which ``prod`` reads cell (_i, _j)
        steps: list[tuple[str, bool, tuple[str, ...]]] = []
        known = {prod: ("_v", -1)}

        def bound(name: str) -> bool:
            return any(name in names for _, _, names in steps)

        def pin(t: Term, val: str) -> None:
            if isinstance(t, Var):
                if bound(t.name):
                    steps.append((f"if {t.name} == {val}:", True, ()))
                else:
                    steps.append((f"{t.name} = {val}", False, (t.name,)))
                return
            k = len(steps)
            row, col = f"_r{k}", f"_c{k}"
            steps.append((f"for {row}, {col} in _by_value[{val}]:", True, ()))
            known[t] = (val, k)
            pin_factors(t, row, col)

        def pin_factors(p: Prod, left: str, right: str) -> None:
            # variables first, so that compound factors loop innermost
            pairs = ((p.left, left), (p.right, right))
            for sub, val in sorted(pairs, key=lambda sv: isinstance(sv[0], Prod)):
                pin(sub, val)

        pin_factors(prod, "_i", "_j")
        steps += loops([v for v in order if not bound(v)])
        if sum(line.startswith("for ") for line, _, _ in steps) > _MAX_LOOPS:
            raise ValueError(
                f"identity {identity} is too deep for the model search: it "
                f"needs more than {_MAX_LOOPS} nested loops"
            )
        return nest(steps, known)

    def products(t: Term) -> list[Prod]:
        if isinstance(t, Var):
            return []
        return [t] + products(t.left) + products(t.right)

    if partial:
        fname = "_scan"
        src = ["def _scan(_t, _n, _by_value, _i, _j, _forced):",
               pad + "_v = _t[_i][_j]",
               pad + "if _v is None:",
               pad * 2 + "return None"]
        for prod in dict.fromkeys(products(identity.lhs) + products(identity.rhs)):
            src += delta(prod)
    else:
        # the function's name says which lowering it got
        scalar, fname, fast = nest(loops(order), {}), "_tabulated", None
        if len(order) >= 4:
            fast = nest(loops(order[:-2]), {}, order[-2], True)
        if fast is None:
            fname, fast = "_vector", nest(loops(order[:-1]), {}, w)
        if fast is None:
            fname, src = "_scalar", ["def _scalar(_t, _n, _lines):"] + scalar
        else:
            # at order 1 an ``itemgetter`` would gather a bare element
            tiny = " or _n < 2" if fname == "_tabulated" else ""
            src = [f"def {fname}(_t, _n, _lines):", pad + f"if _lines is None{tiny}:"]
            src += [pad + line for line in scalar] + [pad * 2 + "return None"]
            src += [pad + "R, C = _lines"] + fast
    src.append(pad + "return None")
    ns: dict = {"_ig": itemgetter, "_interned": _interned}
    exec("\n".join(src), ns)  # noqa: S102 - source is generated above
    return ns[fname]


def _interned(vectors, seen: dict) -> tuple:
    """The vectors as a tuple, each equal to one seen before replaced by
    that one, so that comparing tuples of them mostly compares pointers."""
    vectors = list(vectors)
    return tuple(map(seen.setdefault, vectors, vectors))


def _byte_lines(g):
    """The rows and columns of g's table as 256-byte ``bytes.translate``
    tables, or None above order 256, where the kernels loop on scalars."""
    n = g.order
    if n > 256:
        return None
    fill = bytes(256 - n)
    return ([bytes(row) + fill for row in g.table],
            [bytes(col) + fill for col in zip(*g.table)])


def check_identity(g, identity: Identity, _lines=None) -> IdentityReport:
    """Sweep every assignment in lexicographic order and report the first
    failing one.  ``_lines`` is ``_byte_lines(g)`` when the caller already
    built it, as check_variety does for all of its identities."""
    names = variables(identity)
    if len(names) > _MAX_LOOPS:
        raise ValueError(
            f"identity {identity} has {len(names)} variables; at most "
            f"{_MAX_LOOPS} can be checked"
        )
    if _lines is None:
        _lines = _byte_lines(g)
    bad = _compile_kernel(identity)(g.table, g.order, _lines)
    if bad is None:
        return IdentityReport(identity, True, None, g.order ** len(names))
    rank = 0
    for v in bad:
        rank = rank * g.order + v
    return IdentityReport(identity, False, dict(zip(names, bad)), rank + 1)


# ---------------------------------------------------------------------------
# varieties


class VarietySpec(namedtuple("VarietySpec", "name identities")):
    __slots__ = ()


class VarietyReport(namedtuple("VarietyReport", "variety holds reports")):
    __slots__ = ()

    @property
    def first_failure(self) -> IdentityReport | None:
        for r in self.reports:
            if not r.holds:
                return r
        return None


def check_variety(g, spec: VarietySpec) -> VarietyReport:
    lines = _byte_lines(g)
    reports = tuple(check_identity(g, idy, lines) for idy in spec.identities)
    return VarietyReport(spec.name, all(r.holds for r in reports), reports)


LEFT_INVERTIVE = parse_identity("(xy)z = (zy)x")
IDEMPOTENT = parse_identity("x = (xx)")
ANTI_RECTANGULAR = parse_identity("(xy)x = y")
MEDIAL = parse_identity("(xy)(zw) = (xz)(yw)")
EVANS = parse_identity("(xy)(yz) = y")

# Named presets for the CLI and tests.  BAND here means idempotent AG
# groupoid, not a bare band.
VARIETIES: dict[str, VarietySpec] = {
    "ag": VarietySpec("AG", (LEFT_INVERTIVE,)),
    "band": VarietySpec("BAND", (LEFT_INVERTIVE, IDEMPOTENT)),
    "aragb": VarietySpec("ARAGB", (LEFT_INVERTIVE, IDEMPOTENT, ANTI_RECTANGULAR)),
    "medial": VarietySpec("MEDIAL", (MEDIAL,)),
    "evans": VarietySpec("EVANS", (EVANS,)),
}


def require_aragb(g, who: str) -> None:
    """Raise VarietyError naming ``who`` unless g is an anti-rectangular
    AG-band; the error carries the failing variety report."""
    report = check_variety(g, VARIETIES["aragb"])
    if not report.holds:
        bad = report.first_failure
        raise VarietyError(
            f"{who} violates '{bad.identity}' at {bad.counterexample}",
            report=report,
        )


def get_variety(name: str) -> VarietySpec:
    """Look up a preset by name, case-insensitively."""
    try:
        return VARIETIES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown variety {name!r}; presets: {', '.join(sorted(VARIETIES))}"
        ) from None
