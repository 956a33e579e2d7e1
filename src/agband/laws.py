"""Groupoid identities: a small term language, a parser, and fast checkers.

An identity such as ``(xy)z = (zy)x`` quantifies implicitly over all of its
variables.  Checking one against a finite table means sweeping every
assignment of elements to variables.  ``check_identity`` compiles that sweep
into a nest of ``for`` loops (one per variable, with repeated subproducts
hoisted to the outermost loop that can compute them) instead of interpreting
the terms inside the innermost loop; on tables of order 64 and up the
difference is an order of magnitude.  The model search scans its partial
tables, with ``None`` for undecided cells, through the same compiler.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, VarietyError


# ---------------------------------------------------------------------------
# terms and identities


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Prod:
    left: "Term"
    right: "Term"


Term = Var | Prod


@dataclass(frozen=True)
class Identity:
    lhs: Term
    rhs: Term

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in order of first occurrence, left side first."""
        return variables(self)

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


def eval_term(term: Term, table, env: dict[str, int]) -> int:
    """Straightforward recursive evaluation; the reference the kernel is
    tested against."""
    if isinstance(term, Var):
        return env[term.name]
    return table[eval_term(term.left, table, env)][eval_term(term.right, table, env)]


@dataclass(frozen=True)
class IdentityReport:
    identity: Identity
    holds: bool
    counterexample: dict[str, int] | None
    assignments: int  # assignments swept, counting the failing one


_KERNELS: dict[tuple[str, bool], object] = {}


def _compile_kernel(identity: Identity, partial: bool):
    """Build ``_kernel(t, n) -> None | tuple`` for this identity's shape.

    With ``partial`` the table may hold ``None`` holes (the model search's
    undecided cells); an instance with an undecided subterm cannot be
    verified yet, so the generated ``_scan`` skips past it.
    """
    order = variables(identity)
    level = {v: i for i, v in enumerate(order)}
    temps: dict[tuple[str, str], tuple[str, int, str]] = {}
    creation: list[tuple[str, str]] = []

    def build(t: Term) -> tuple[str, int]:
        if isinstance(t, Var):
            return t.name, level[t.name]
        le, ll = build(t.left)
        re_, rl = build(t.right)
        key = (le, re_)
        lvl = max(ll, rl)
        if key not in temps:
            temps[key] = (f"_s{len(temps)}", lvl, f"t[{le}][{re_}]")
            creation.append(key)
        return temps[key][0], lvl

    lexpr, _ = build(identity.lhs)
    rexpr, _ = build(identity.rhs)

    pad = "    "
    fname = "_scan" if partial else "_kernel"
    lines = [f"def {fname}(t, n):"]
    for lvl, var in enumerate(order):
        lines.append(pad * (lvl + 1) + f"for {var} in range(n):")
        for key in creation:
            name, tl, expr = temps[key]
            if tl == lvl:
                body = pad * (lvl + 2)
                lines.append(body + f"{name} = {expr}")
                if partial:
                    lines.append(body + f"if {name} is None: continue")
    inner = pad * (len(order) + 1)
    lines.append(inner + f"if {lexpr} != {rexpr}:")
    lines.append(inner + pad + f"return ({', '.join(order)},)")
    lines.append(pad + "return None")
    ns: dict = {}
    exec("\n".join(lines), ns)  # noqa: S102 - source is generated above
    return ns[fname]


def _kernel_for(identity: Identity, partial: bool = False):
    key = (alpha_key(identity), partial)
    kern = _KERNELS.get(key)
    if kern is None:
        kern = _KERNELS[key] = _compile_kernel(identity, partial)
    return kern


def check_identity(g, identity: Identity) -> IdentityReport:
    names = variables(identity)
    bad = _kernel_for(identity)(g.table, g.order)
    if bad is None:
        return IdentityReport(identity, True, None, g.order ** len(names))
    rank = 0
    for v in bad:
        rank = rank * g.order + v
    return IdentityReport(identity, False, dict(zip(names, bad)), rank + 1)


# ---------------------------------------------------------------------------
# varieties


@dataclass(frozen=True)
class VarietySpec:
    name: str
    identities: tuple[Identity, ...]


@dataclass(frozen=True)
class VarietyReport:
    variety: str
    holds: bool
    reports: tuple[IdentityReport, ...]

    @property
    def first_failure(self) -> IdentityReport | None:
        for r in self.reports:
            if not r.holds:
                return r
        return None


def check_variety(g, spec: VarietySpec) -> VarietyReport:
    reports = tuple(check_identity(g, idy) for idy in spec.identities)
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
