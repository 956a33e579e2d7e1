import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from agband.construct import tower_level
from agband.errors import ParseError
from agband.groupoid import FiniteGroupoid
from agband.laws import (
    ANTI_RECTANGULAR,
    IDEMPOTENT,
    LEFT_INVERTIVE,
    MEDIAL,
    VARIETIES,
    Identity,
    IdentityReport,
    Prod,
    Var,
    VarietySpec,
    _byte_lines,
    _compile_kernel,
    alpha_key,
    check_identity,
    check_variety,
    eval_term,
    get_variety,
    parse_identity,
    parse_term,
    pretty,
    variables,
)

RIGHT_ZERO_4 = FiniteGroupoid(
    table=tuple(tuple(range(4)) for _ in range(4))
)


def terms(max_leaves=6):
    variable = st.sampled_from("wxyz").map(Var)
    return st.recursive(
        variable,
        lambda sub: st.tuples(sub, sub).map(lambda p: Prod(*p)),
        max_leaves=max_leaves,
    )


# --- parsing ----------------------------------------------------------------


def test_parse_accepts_outer_juxtaposition():
    t = parse_term("x(yz)")
    assert t == Prod(Var("x"), Prod(Var("y"), Var("z")))


def test_parse_identity_reads_both_sides():
    ident = parse_identity("(xy)z = (zy)x")
    assert variables(ident) == ("x", "y", "z")
    assert str(ident) == "(xy)z = (zy)x"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x =",
        "= x",
        "xyz = x",  # three atoms with no explicit grouping
        "(xy = z",
        "x) = y",
        "(x) = y",  # parens must enclose exactly two factors
        "X = x",  # uppercase is not a variable
        "x = y = z",
    ],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_identity(bad)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse_term("(x")
    assert exc.value.offset == 2


def test_parse_term_refuses_trailing_input():
    with pytest.raises(ParseError, match="unexpected trailing input") as exc:
        parse_term("xy)")
    assert exc.value.offset == 2


@given(terms(), terms())
def test_pretty_parse_round_trip(lhs, rhs):
    ident = Identity(lhs, rhs)
    assert parse_identity(str(ident)) == ident


def test_alpha_key_ignores_names_but_not_shape():
    a = parse_identity("(pq)p = q")
    assert alpha_key(a) == alpha_key(ANTI_RECTANGULAR)
    assert alpha_key(parse_identity("x(yx) = y")) != alpha_key(ANTI_RECTANGULAR)


def test_alpha_equivalent_identities_report_their_own_names():
    a = parse_identity("(xy)z = (zy)x")
    b = parse_identity("(ab)c = (cb)a")
    assert a != b and alpha_key(a) == alpha_key(b)
    right_zero = FiniteGroupoid(table=((0, 1), (0, 1)))
    for ident, names in ((a, "xyz"), (b, "abc")):
        report = check_identity(right_zero, ident)
        assert report.identity is ident
        assert report.counterexample == dict(zip(names, (0, 0, 1)))
        assert report.assignments == 2


# --- evaluation and checking -------------------------------------------------


def reference_report(g, ident):
    """Lexicographic eval_term sweep: the first failing assignment and its
    1-based rank, or every assignment counted when the identity holds."""
    names = variables(ident)
    sweep = itertools.product(range(g.order), repeat=len(names))
    for rank, vals in enumerate(sweep, 1):
        env = dict(zip(names, vals))
        if eval_term(ident.lhs, g.table, env) != eval_term(ident.rhs, g.table, env):
            return IdentityReport(ident, False, env, rank)
    return IdentityReport(ident, True, None, g.order ** len(names))


def lowers_to_vectors(ident):
    return "translate" in _compile_kernel(ident).__code__.co_names


PRESET_LAWS = tuple(
    {idy: None for spec in VARIETIES.values() for idy in spec.identities}
)
# w meets itself in a product, so these keep the scalar loop
SELF_PRODUCT_LAWS = tuple(
    parse_identity(s)
    for s in ("(xy)(yy) = x", "(xy)(zy) = (xz)(zy)", "x(yy) = (xy)y")
)


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return FiniteGroupoid(tuple(map(tuple, rows)))


@st.composite
def corrupted_levels(draw):
    g = tower_level(draw(st.integers(1, 2)))
    n = g.order
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1).filter(lambda v: v != g.table[i][j]))
    table = [list(row) for row in g.table]
    table[i][j] = v
    return FiniteGroupoid(tuple(map(tuple, table)))


parsed_identities = st.tuples(terms(), terms()).map(
    lambda p: parse_identity(str(Identity(*p)))
)


@given(terms())
@settings(max_examples=30)
def test_compiled_kernel_agrees_with_recursive_evaluator(lhs):
    # the whole report, counterexample and rank included, on a fixed
    # order-3 table
    ident = Identity(lhs, Var("w"))
    g = FiniteGroupoid(table=((0, 2, 1), (2, 1, 0), (1, 0, 2)))
    assert check_identity(g, ident) == reference_report(g, ident)


@given(
    random_tables(),
    st.one_of(st.sampled_from(PRESET_LAWS + SELF_PRODUCT_LAWS),
              parsed_identities),
)
@settings(max_examples=60, deadline=None)
def test_check_identity_report_matches_eval_term_sweep(g, ident):
    assert check_identity(g, ident) == reference_report(g, ident)


# laws of the tower levels; one corrupted cell breaks them at a rank that
# depends on the cell
TOWER_LAWS = (LEFT_INVERTIVE, IDEMPOTENT, ANTI_RECTANGULAR, MEDIAL,
              parse_identity("(xy)(yy) = xy"))


@given(corrupted_levels(), st.sampled_from(TOWER_LAWS))
@settings(max_examples=40, deadline=None)
def test_corrupted_tower_level_reports_match_eval_term_sweep(g, ident):
    assert check_identity(g, ident) == reference_report(g, ident)


@given(st.one_of(random_tables(), corrupted_levels()))
@settings(max_examples=25, deadline=None)
def test_check_variety_reports_match_eval_term_sweeps(g):
    # check_variety shares one set of byte rows and columns across its laws
    for spec in VARIETIES.values():
        want = tuple(reference_report(g, idy) for idy in spec.identities)
        assert check_variety(g, spec).reports == want


@pytest.mark.parametrize("text", ["n = (tn)", "(tn)(nt) = n", "(tt)n = n", "(nn)x = x"])
def test_law_variables_named_like_kernel_arguments(text):
    # t and n are the kernel's own argument names in a careless generator
    ident = parse_identity(text)
    g = FiniteGroupoid(table=((0, 2, 1), (2, 1, 0), (1, 0, 2)))
    want = reference_report(g, ident)
    assert not want.holds
    assert check_identity(g, ident) == want
    scalar = _compile_kernel(ident)(g.table, g.order, None)
    assert scalar == tuple(want.counterexample.values())


def test_presets_that_lower_to_byte_vectors():
    lowered = {str(idy) for idy in PRESET_LAWS if lowers_to_vectors(idy)}
    assert lowered == {"(xy)z = (zy)x", "(xy)x = y", "(xy)(zw) = (xz)(yw)",
                       "(xy)(yz) = y"}
    assert not any(lowers_to_vectors(idy) for idy in SELF_PRODUCT_LAWS)


def test_order_above_256_keeps_the_scalar_loop():
    # x*y = -x-y mod 257 satisfies (xy)x = y; one late corrupted cell breaks it
    n = 257
    rows = [[(-x - y) % n for y in range(n)] for x in range(n)]
    good = FiniteGroupoid(tuple(map(tuple, rows)))
    rows[200][3] = (rows[200][3] + 1) % n
    bad = FiniteGroupoid(tuple(map(tuple, rows)))
    assert lowers_to_vectors(ANTI_RECTANGULAR)
    assert _byte_lines(good) is None
    for g in (good, bad):
        assert check_identity(g, ANTI_RECTANGULAR) == reference_report(g, ANTI_RECTANGULAR)
    assert not check_identity(bad, ANTI_RECTANGULAR).holds


def test_idempotency_keeps_the_scalar_loop_at_order_64():
    assert not lowers_to_vectors(IDEMPOTENT)
    g = tower_level(3)
    rows = [list(row) for row in g.table]
    rows[40][40] = 0
    bad = FiniteGroupoid(tuple(map(tuple, rows)))
    for h in (g, bad):
        assert check_identity(h, IDEMPOTENT) == reference_report(h, IDEMPOTENT)
    assert check_identity(bad, IDEMPOTENT).counterexample == {"x": 40}


def test_check_identity_counts_assignments():
    rep = check_identity(RIGHT_ZERO_4, IDEMPOTENT)
    assert rep.holds and rep.assignments == 4
    rep = check_identity(RIGHT_ZERO_4, ANTI_RECTANGULAR)
    # (xy)x = x in a right-zero band, so the first x != y pair fails
    assert not rep.holds
    assert rep.counterexample == {"x": 0, "y": 1}
    assert rep.assignments == 2  # lex rank of (0, 1) plus one


def left_nested_law(k):
    """((ab)c)... = z over the first k letters; z is the last one."""
    names = "abcdefghijklmnopqrstuvwxyz"[:k]
    term = names[0]
    for v in names[1:]:
        term = f"({term}){v}" if len(term) > 1 else term + v
    return parse_identity(f"{term} = {names[-1]}")


def test_check_identity_refuses_more_than_twenty_variables():
    g = tower_level(1)
    rep = check_identity(g, left_nested_law(20))
    assert not rep.holds and rep.assignments == 2
    for k in (21, 26):
        with pytest.raises(ValueError, match=f"has {k} variables; at most 20"):
            check_identity(g, left_nested_law(k))


def test_check_identity_counterexample_evaluates_to_failure():
    rep = check_identity(RIGHT_ZERO_4, LEFT_INVERTIVE)
    if not rep.holds:
        env = rep.counterexample
        lhs = eval_term(rep.identity.lhs, RIGHT_ZERO_4.table, env)
        rhs = eval_term(rep.identity.rhs, RIGHT_ZERO_4.table, env)
        assert lhs != rhs
    else:
        assert rep.counterexample is None


def test_check_variety_stops_at_first_failing_law():
    spec = get_variety("aragb")
    rep = check_variety(RIGHT_ZERO_4, spec)
    assert not rep.holds
    assert rep.first_failure is not None
    assert str(rep.first_failure.identity) == "(xy)z = (zy)x"


def test_check_variety_passes_on_a_model():
    table = ((0,),)
    g = FiniteGroupoid(table=table)
    for name in ("ag", "band", "aragb", "medial", "evans"):
        assert check_variety(g, get_variety(name)).holds


def test_get_variety_is_case_insensitive_and_lists_presets():
    assert get_variety("ARAGB") is get_variety("aragb")
    with pytest.raises(KeyError) as exc:
        get_variety("nosuch")
    assert "presets" in str(exc.value)


def test_variety_spec_is_shape_only_data():
    spec = VarietySpec(name="custom", identities=(IDEMPOTENT,))
    rep = check_variety(RIGHT_ZERO_4, spec)
    assert rep.holds and rep.variety == "custom"


# --- the tabulated lowering ---------------------------------------------------

# laws of four or more variables whose sides each reach the innermost
# variable through at most two hooks (the factors without it), each
# gatherable over the variable before it
TABULATED_LAWS = tuple(
    parse_identity(s)
    for s in (
        "(xy)(zw) = (xz)(yw)",  # medial: both sides hook on the left
        "(xy)(zw) = (wz)(yx)",  # hooks on the right
        "(xy)(zw) = (xw)(yz)",  # the outer hook varies with z: a column
        "(xy)(zw) = (xz)y",  # a side without w
        "(xy)(zw) = w",  # a side that is w itself
        "((xy)z)(vw) = ((xv)z)(yw)",  # five variables
        "((xy)z)(vw) = (xz)(yv)",
    )
)
# four or more variables, but a side the table cannot serve, and the
# lowering each keeps
UNTABULATED_LAWS = {
    parse_identity(s): kept
    for s, kept in (
        ("x(y(zw)) = ((wz)y)x", "_vector"),  # three hooks
        ("(xy)(zw) = (xz)(zw)", "_vector"),  # both hooks vary with z
        ("(xy)(zw) = (x(zz))w", "_vector"),  # z meets itself in a hook
        ("(xy)(zw) = (xw)(yw)", "_scalar"),  # w in both factors
    )
}


def lowering(ident):
    return _compile_kernel(ident).__name__


def test_laws_of_four_variables_lower_to_tables_where_each_side_allows():
    assert all(lowering(idy) == "_tabulated" for idy in TABULATED_LAWS)
    assert lowering(MEDIAL) == "_tabulated"
    assert {idy: lowering(idy) for idy in UNTABULATED_LAWS} == UNTABULATED_LAWS
    assert lowering(LEFT_INVERTIVE) == lowering(ANTI_RECTANGULAR) == "_vector"
    # w meets itself, so no vector over it
    assert lowering(IDEMPOTENT) == lowering(parse_identity("(xy)(zw) = (xw)(ww)")) \
        == "_scalar"


def corrupted(g, i, j, v):
    rows = [list(row) for row in g.table]
    rows[i][j] = v
    return FiniteGroupoid(tuple(map(tuple, rows)))


def kernel_inputs():
    rng = random.Random(27)
    tables = [("right-zero-4", RIGHT_ZERO_4)]
    for n in (1, 2, 3, 5, 8, 16):
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        tables.append((f"random-{n}", FiniteGroupoid(tuple(map(tuple, rows)))))
    for level in (1, 2):
        g = tower_level(level)
        tables.append((f"level-{level}", g))
        for _ in range(3):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            v = (g.table[i][j] + 1 + rng.randrange(g.order - 1)) % g.order
            tables.append((f"level-{level}-cell-{i}-{j}", corrupted(g, i, j, v)))
    g = tower_level(3)
    tables.append(("level-3-cell-1-5", corrupted(g, 1, 5, 7)))
    return tables


@pytest.mark.parametrize("name, g", kernel_inputs(), ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("ident", TABULATED_LAWS, ids=str)
def test_tabulated_kernel_matches_the_scalar_kernel_and_eval_term(name, g, ident):
    k = len(variables(ident))
    report = check_identity(g, ident)
    scalar = _compile_kernel(ident)(g.table, g.order, None)
    assert scalar == (None if report.holds else tuple(report.counterexample.values()))
    if g.order ** k <= 70_000 or not report.holds and report.assignments <= 70_000:
        assert report == reference_report(g, ident)
    else:
        assert report.holds and report.assignments == g.order ** k


def test_medial_law_holds_on_level_3_through_the_table():
    g = tower_level(3)
    assert check_identity(g, MEDIAL) == IdentityReport(MEDIAL, True, None, 64 ** 4)


@pytest.mark.parametrize("ident", UNTABULATED_LAWS, ids=str)
def test_untabulated_laws_of_four_variables_match_eval_term(ident):
    for level in (1, 2):
        g = corrupted(tower_level(level), 1, 2, 0)
        assert check_identity(g, ident) == reference_report(g, ident)


def four_or_five_variable_laws():
    # sides built as hook chains down to w over random hooks in x, y, z and
    # v, and fully random sides, kept when they have four or five variables
    def without_w(t):
        if isinstance(t, Var):
            return Var("v") if t.name == "w" else t
        return Prod(without_w(t.left), without_w(t.right))

    hook = terms(max_leaves=3).map(without_w)

    @st.composite
    def chain(draw):
        side = Var("w")
        for h in draw(st.lists(hook, max_size=3)):
            side = Prod(h, side) if draw(st.booleans()) else Prod(side, h)
        return side

    sides = st.one_of(chain(), terms())
    return st.tuples(sides, sides).map(
        lambda p: parse_identity(str(Identity(*p)))
    ).filter(lambda idy: len(variables(idy)) in (4, 5))


@given(st.one_of(random_tables(), corrupted_levels()), four_or_five_variable_laws())
@settings(max_examples=80, deadline=None)
def test_four_and_five_variable_laws_match_eval_term_and_the_scalar_kernel(g, ident):
    if g.order ** len(variables(ident)) > 70_000:
        g = FiniteGroupoid(table=((0, 2, 1), (2, 1, 0), (1, 0, 2)))
    report = check_identity(g, ident)
    assert report == reference_report(g, ident)
    scalar = _compile_kernel(ident)(g.table, g.order, None)
    assert scalar == (None if report.holds else tuple(report.counterexample.values()))
