import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from agband.construct import standard_g, tower_level
from agband.errors import ResourceLimitError, SearchInvariantError
from agband.groupoid import FiniteGroupoid
from agband.laws import (
    IDEMPOTENT,
    Identity,
    Prod,
    Var,
    VarietySpec,
    _compile_kernel,
    check_variety,
    eval_term,
    get_variety,
    parse_identity,
    variables,
)
from agband import search
from agband.morphisms import iso_search
from agband.search import (
    SearchOutcome,
    brute_force_oracle,
    canonical_table,
    enumerate_models,
    spectrum_scan,
)

ARAGB = get_variety("aragb")


def _terms(names="xyijnt", max_leaves=5):
    # i, j, n and t are also the scanner's argument names in a careless
    # generator; law variables must not clash with them
    return st.recursive(
        st.sampled_from(names).map(Var),
        lambda sub: st.tuples(sub, sub).map(lambda p: Prod(*p)),
        max_leaves=max_leaves,
    )


def _partial_tables():
    def build(n):
        cell = st.one_of(st.none(), st.integers(0, n - 1))
        row = st.lists(cell, min_size=n, max_size=n)
        return st.lists(row, min_size=n, max_size=n)

    return st.integers(1, 4).flatmap(build)


def _reading(term, env, table, cells):
    """Evaluate on a partial table, None once a product reads an undecided
    cell, adding each cell read to ``cells``."""
    if isinstance(term, Var):
        return env[term.name]
    left = _reading(term.left, env, table, cells)
    if left is None:
        return None
    right = _reading(term.right, env, table, cells)
    if right is None:
        return None
    cells.add((left, right))
    return table[left][right]


def _side(term, env, table, cells):
    """(value, None) as ``_reading`` gives it, or (None, cell) when the
    outermost product reads the undecided ``cell`` and all below it is
    decided."""
    if isinstance(term, Prod):
        left = _reading(term.left, env, table, cells)
        right = None if left is None else _reading(term.right, env, table, cells)
        if right is not None and table[left][right] is None:
            return None, (left, right)
    return _reading(term, env, table, cells), None


@given(_terms(), _terms(), _partial_tables(), st.data())
@settings(max_examples=300)
def test_delta_scanner_finds_exactly_the_failures_reading_a_cell(
    lhs, rhs, table, data
):
    # the compiled delta scanner against a sweep of every instance with an
    # evaluator that records the cells each instance reads; an instance
    # with one side decided forces the other side's outermost cell when
    # that is all it lacks
    ident = Identity(lhs, rhs)
    names = variables(ident)
    n = len(table)
    decided = [(a, b) for a in range(n) for b in range(n) if table[a][b] is not None]
    assume(decided)
    i, j = data.draw(st.sampled_from(decided))
    by_value = [[] for _ in range(n)]
    for a, b in data.draw(st.permutations(decided)):
        by_value[table[a][b]].append((a, b))
    failing, forced = set(), set()
    for vals in itertools.product(range(n), repeat=len(names)):
        env = dict(zip(names, vals))
        cells = set()
        left, lcell = _side(lhs, env, table, cells)
        right, rcell = _side(rhs, env, table, cells)
        if (i, j) not in cells:
            continue
        if left is not None and right is not None and left != right:
            failing.add(vals)
        if lcell and right is not None:
            forced.add(lcell + (right,))
        if rcell and left is not None:
            forced.add(rcell + (left,))
    got_forced = []
    got = _compile_kernel(ident, partial=True)(table, n, by_value, i, j, got_forced)
    assert (got is None) == (not failing)
    assert got is None or got in failing
    # a scanner stops at the first failure, so it may not get to every force
    assert set(got_forced) == forced if got is None else set(got_forced) <= forced


@given(_terms(), _partial_tables(), st.data())
@settings(max_examples=300)
def test_eval_term_on_partial_tables_matches_the_reading_evaluator(
    term, table, data
):
    n = len(table)
    env = {name: data.draw(st.integers(0, n - 1)) for name in "xyijnt"}
    assert eval_term(term, table, env) == _reading(term, env, table, set())


def test_delta_scanner_on_a_table_with_a_hole():
    # (xy)z = (zy)x fails at (0, 0, 1) and (1, 0, 0), which both read the
    # cells (0, 0), (0, 1) and (1, 0); the hole (1, 1) decides nothing
    scan = _compile_kernel(parse_identity("(xy)z = (zy)x"), partial=True)
    table = [[0, 1], [0, None]]
    by_value = [[(0, 0), (1, 0)], [(0, 1)]]
    for cell in ((0, 0), (0, 1), (1, 0)):
        assert scan(table, 2, by_value, *cell, []) in {(0, 0, 1), (1, 0, 0)}
    assert scan(table, 2, by_value, 1, 1, []) is None


def test_delta_scanner_forces_the_one_cell_an_instance_lacks():
    # at x = y = 1, z = 0 the side (zy)x = (01)1 = 11 = 0 is decided
    # through the cell (0, 1), and (xy)z = (11)0 = 00 lacks only the hole
    scan = _compile_kernel(parse_identity("(xy)z = (zy)x"), partial=True)
    table = [[None, 1], [1, 0]]
    by_value = [[(1, 1)], [(0, 1), (1, 0)]]
    forced = []
    assert scan(table, 2, by_value, 0, 1, forced) is None
    assert set(forced) == {(0, 0, 0)}


def test_canonical_table_is_a_relabelling_invariant():
    g = standard_g()
    base = canonical_table(g.table)
    for perm in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)):
        assert canonical_table(g.relabel(perm).table) == base


def _symmetric_tables(n):
    # tables with many automorphisms, where relabelings tie row by row
    yield tuple((0,) * n for _ in range(n))
    yield tuple((i,) * n for i in range(n))
    yield tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    yield tuple(tuple(min(i, j) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_table_is_the_minimum_over_all_relabelings(n):
    # n = 1 has one relabeling, whose gather of one cell is not a tuple
    rng = random.Random(n)
    tables = list(_symmetric_tables(n)) + [
        tuple(tuple(rng.choice(values) for _ in range(n)) for _ in range(n))
        for values in ([0, n - 1], range(n)) * (8 if n < 6 else 2)
    ]
    for table in tables:
        relabeled = []
        for p in itertools.permutations(range(n)):
            inv = [p.index(k) for k in range(n)]
            relabeled.append(tuple(
                tuple(p[table[inv[r]][inv[c]]] for c in range(n))
                for r in range(n)
            ))
        assert canonical_table(table) == min(relabeled)


def test_canonical_table_order_limit():
    with pytest.raises(ResourceLimitError):
        canonical_table(tower_level(2).table)


def test_single_order_four_model_up_to_isomorphism():
    out = enumerate_models(4, ARAGB)
    assert isinstance(out, SearchOutcome)
    assert out.count == 1
    assert out.canonical_models[0].table == canonical_table(standard_g().table)
    assert out.stats.nodes > 0


# (order, classes, nodes, propagation failures); a lost or a wrong prune
# or force changes the nodes or the failures
SEARCH_COUNTS = {
    "ag": [(1, 1, 1, 0), (2, 3, 18, 4), (3, 20, 327, 161),
           (4, 331, 13248, 7891)],
    "band": [(1, 1, 0, 0), (2, 1, 2, 0), (3, 2, 27, 12), (4, 6, 264, 159),
             (5, 18, 3605, 2535)],
    "aragb": [(1, 1, 0, 0), (2, 0, 0, 0), (3, 0, 2, 1), (4, 1, 5, 2),
              (5, 0, 14, 5), (6, 0, 53, 23), (7, 0, 162, 90),
              (8, 0, 603, 273)],
    "evans": [(1, 1, 1, 0), (2, 0, 8, 5), (3, 0, 39, 27),
              (4, 1, 236, 175)],
    "medial": [(1, 1, 1, 0), (2, 7, 26, 4), (3, 75, 771, 344)],
}


@pytest.mark.parametrize(
    "name, order, count, nodes, failures",
    [(name, *row) for name, rows in SEARCH_COUNTS.items() for row in rows],
)
def test_search_counts_are_pinned(name, order, count, nodes, failures):
    out = enumerate_models(order, get_variety(name))
    assert (out.count, out.stats.nodes, out.stats.propagation_failures) == (
        count, nodes, failures
    )


# witness mode, limit=1: (variety, order, count, nodes, failures)
WITNESS_COUNTS = [("aragb", 9, 0, 2774, 1345), ("aragb", 16, 1, 21, 8),
                  ("band", 7, 1, 21, 0), ("ag", 7, 1, 49, 0)]

ARAGB_16_WITNESS = (
    (0, 2, 3, 1, 5, 6, 4, 8, 9, 7, 11, 12, 10, 14, 15, 13),
    (3, 1, 0, 2, 7, 10, 13, 15, 11, 5, 9, 14, 6, 12, 8, 4),
    (1, 3, 2, 0, 14, 8, 11, 6, 13, 12, 4, 7, 15, 5, 10, 9),
    (2, 0, 1, 3, 12, 15, 9, 10, 4, 14, 13, 5, 8, 7, 6, 11),
    (6, 15, 10, 8, 4, 0, 5, 1, 12, 13, 14, 9, 3, 11, 2, 7),
    (4, 9, 13, 11, 6, 5, 0, 14, 2, 10, 1, 15, 7, 8, 12, 3),
    (5, 12, 7, 14, 0, 4, 6, 11, 15, 3, 8, 2, 13, 1, 9, 10),
    (9, 4, 11, 13, 15, 12, 2, 7, 0, 8, 3, 6, 14, 10, 5, 1),
    (7, 14, 5, 12, 3, 13, 10, 9, 8, 0, 15, 1, 4, 2, 11, 6),
    (8, 10, 15, 6, 11, 1, 14, 0, 7, 9, 5, 13, 2, 4, 3, 12),
    (12, 5, 14, 7, 2, 9, 15, 13, 6, 1, 10, 0, 11, 3, 4, 8),
    (10, 8, 6, 15, 13, 3, 7, 2, 14, 4, 12, 11, 0, 9, 1, 5),
    (11, 13, 9, 4, 8, 14, 1, 5, 3, 15, 0, 10, 12, 6, 7, 2),
    (15, 6, 8, 10, 9, 2, 12, 3, 5, 11, 7, 4, 1, 13, 0, 14),
    (13, 11, 4, 9, 10, 7, 3, 12, 1, 6, 2, 8, 5, 15, 14, 0),
    (14, 7, 12, 5, 1, 11, 8, 4, 10, 2, 6, 3, 9, 0, 13, 15),
)


@pytest.mark.parametrize("name, order, count, nodes, failures",
                         WITNESS_COUNTS)
def test_witness_search_counts_are_pinned(name, order, count, nodes,
                                          failures):
    out = enumerate_models(order, get_variety(name), limit=1)
    assert (out.count, out.stats.nodes, out.stats.propagation_failures) == (
        count, nodes, failures
    )


def test_the_first_order_16_witness_is_pinned():
    (w,) = enumerate_models(16, ARAGB, limit=1).canonical_models
    assert w.table == ARAGB_16_WITNESS


@pytest.mark.parametrize("name", ["ag", "band"])
def test_propagation_loses_no_leaf_and_reorders_none(name, monkeypatch):
    # the walk yields every model whose rows all pass the symmetry break,
    # in row-major lexicographic order, exactly as a sweep over all 3**9
    # tables does
    v = get_variety(name)
    n = 3
    instances = [
        (ident, dict(zip(variables(ident), vals)))
        for ident in v.identities
        for vals in itertools.product(range(n), repeat=len(variables(ident)))
    ]
    swept = []
    for cells in itertools.product(range(n), repeat=n * n):
        table = tuple(cells[r * n:(r + 1) * n] for r in range(n))
        if all(
            search._row_minimal(table[0], k, row) for k, row in enumerate(table)
        ) and all(
            eval_term(ident.lhs, table, env) == eval_term(ident.rhs, table, env)
            for ident, env in instances
        ):
            swept.append(table)
    walked = []
    canonical = search.canonical_table
    monkeypatch.setattr(
        search, "canonical_table",
        lambda table: walked.append(table) or canonical(table),
    )
    enumerate_models(n, v)
    assert walked == swept


@pytest.mark.parametrize("name, order", [
    (name, k) for name, top in (("ag", 3), ("band", 4), ("medial", 3),
                                ("evans", 3))
    for k in range(1, top + 1)
])
def test_every_canonical_model_is_a_leaf_of_the_walk(name, order, monkeypatch):
    # the symmetry break keeps each class's canonical table itself, also
    # where the diagonal is not pinned (medial, evans)
    leaves = set()
    canonical = search.canonical_table
    monkeypatch.setattr(
        search, "canonical_table",
        lambda table: leaves.add(table) or canonical(table),
    )
    out = enumerate_models(order, get_variety(name))
    assert {m.table for m in out.canonical_models} <= leaves


@pytest.mark.parametrize("name, order, classes", [("ag", 4, 331),
                                                  ("band", 5, 18)])
def test_the_laws_are_checked_once_per_class(name, order, classes,
                                             monkeypatch):
    checked = []
    check = search.check_variety
    monkeypatch.setattr(
        search, "check_variety",
        lambda g, v: checked.append(g.table) or check(g, v),
    )
    out = enumerate_models(order, get_variety(name))
    assert len(checked) == out.count == classes
    assert set(checked) == {m.table for m in out.canonical_models}


@given(_terms("xyz", 4), _terms("xyz", 4), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_any_law_enumerates_as_the_oracle_counts(lhs, rhs, n):
    # shapes the presets lack: a variable side, a right-nested product,
    # a variable on one side only
    assume(lhs != rhs)
    v = VarietySpec("T", (Identity(lhs, rhs),))
    assert enumerate_models(n, v).count == brute_force_oracle(n, v)


@pytest.mark.parametrize("law", ["x = y", "xx = y"])
def test_instances_decided_before_the_search_are_checked(law):
    # x = y reads no cell, and with idempotency xx = y reads only the
    # diagonal; the scanners never see these instances again once the
    # search has started, so a refutation must come before it
    v = VarietySpec("T", (IDEMPOTENT, parse_identity(law)))
    assert enumerate_models(1, v).count == 1
    out = enumerate_models(2, v)
    assert (out.count, out.stats.nodes) == (0, 0)


def test_a_law_without_products_that_always_holds():
    same = VarietySpec("ANY", (parse_identity("x = x"),))
    assert enumerate_models(2, same).count == 10


def test_search_is_deterministic():
    a = enumerate_models(4, ARAGB)
    b = enumerate_models(4, ARAGB)
    assert [m.table for m in a.canonical_models] == [m.table for m in b.canonical_models]
    assert a.count == b.count


def test_models_survive_an_independent_recheck():
    for order in (1, 4):
        out = enumerate_models(order, ARAGB)
        for m in out.canonical_models:
            assert check_variety(m, ARAGB).holds


def test_model_set_closed_under_opposite():
    # bands and the collapsing law are mirror-symmetric as identity sets;
    # the anti-rectangular variety is closed under opposites as a theorem
    for order in (2, 3, 4):
        for variety in ("band", "evans", "aragb"):
            out = enumerate_models(order, get_variety(variety))
            tables = {m.table for m in out.canonical_models}
            for m in out.canonical_models:
                assert canonical_table(m.opposite().table) in tables


def test_spectrum_scan_matches_the_known_gap():
    spec = spectrum_scan(ARAGB, 8)
    assert spec == ((1, 1), (2, 0), (3, 0), (4, 1), (5, 0), (6, 0), (7, 0), (8, 0))


def test_spectrum_scan_for_the_collapsing_law():
    spec = spectrum_scan(get_variety("evans"), 4)
    assert spec == ((1, 1), (2, 0), (3, 0), (4, 1))


def test_enumeration_agrees_with_the_oracle_at_tiny_orders():
    for order in (1, 2, 3):
        for name in ("aragb", "band", "ag", "evans", "medial"):
            v = get_variety(name)
            assert enumerate_models(order, v).count == brute_force_oracle(order, v)


def test_oracle_order_four_idempotent_case():
    assert brute_force_oracle(4, ARAGB) == enumerate_models(4, ARAGB).count == 1
    band = get_variety("band")
    assert brute_force_oracle(4, band) == enumerate_models(4, band).count == 6


def test_oracle_needs_neither_the_law_kernels_nor_finite_groupoid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle left eval_term for the kernels")

    monkeypatch.setattr(search, "check_variety", forbidden)
    monkeypatch.setattr(search, "FiniteGroupoid", forbidden)
    assert brute_force_oracle(3, get_variety("band")) == 2
    assert brute_force_oracle(4, ARAGB) == 1


def test_oracle_refuses_what_it_cannot_sweep():
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(4, get_variety("ag"))  # not idempotent, 4^16 tables
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(5, ARAGB)


def test_oracle_refuses_order_zero():
    with pytest.raises(ValueError, match="order must be positive"):
        brute_force_oracle(0, ARAGB)


def test_known_counts_from_the_literature():
    assert brute_force_oracle(2, get_variety("ag")) == 3
    assert brute_force_oracle(3, get_variety("ag")) == 20
    assert brute_force_oracle(3, get_variety("band")) == 2


def deep_law(k):
    """x = x left-multiplied by x k times: the scanner of the outermost
    product pins one compound operand per level below it."""
    term = "x"
    for _ in range(k):
        term = f"x({term})" if len(term) > 1 else "xx"
    return VarietySpec("deep", (parse_identity("x = " + term),))


def test_the_model_search_takes_a_law_twenty_one_levels_deep():
    v = deep_law(21)
    assert enumerate_models(2, v).count == brute_force_oracle(2, v)


def test_the_model_search_refuses_a_law_twenty_two_levels_deep():
    with pytest.raises(ValueError, match="too deep for the model search"):
        enumerate_models(2, deep_law(22))


def test_witness_mode_needs_a_limit():
    with pytest.raises(ResourceLimitError):
        enumerate_models(12, ARAGB)


def test_witness_mode_stops_at_the_limit():
    out = enumerate_models(16, ARAGB, limit=1)
    assert out.count == 1
    w = out.canonical_models[0]
    assert check_variety(w, ARAGB).holds
    assert iso_search(w, tower_level(2)) is not None


def test_order_guards():
    with pytest.raises(ValueError):
        enumerate_models(0, ARAGB)
    with pytest.raises(ResourceLimitError):
        enumerate_models(17, ARAGB, limit=1)


def test_stats_include_wall_time_and_failures():
    out = enumerate_models(4, ARAGB)
    assert out.stats.seconds >= 0.0
    assert out.stats.propagation_failures >= 0
    assert out.order == 4 and out.variety == "ARAGB"


def test_empty_order_two_search_returns_no_models():
    out = enumerate_models(2, ARAGB)
    assert out.count == 0
    assert out.canonical_models == ()


def test_a_leaf_that_fails_the_variety_is_refused(monkeypatch):
    # scanners that never report a failure leave every law unpropagated,
    # so the leaf check is the only thing left to catch a bad table
    monkeypatch.setattr(
        search, "_compile_kernel", lambda ident, partial: lambda *a: None
    )
    with pytest.raises(SearchInvariantError, match="propagation is unsound"):
        enumerate_models(2, get_variety("ag"))


def test_isomorphic_canonical_models_are_refused(monkeypatch):
    monkeypatch.setattr(search, "canonical_table", lambda table: table)
    with pytest.raises(SearchInvariantError, match="deduplication is broken"):
        enumerate_models(3, get_variety("band"))


def test_a_limit_in_full_mode_stops_the_walk_early():
    medial = get_variety("medial")
    full = enumerate_models(3, medial)
    out = enumerate_models(3, medial, limit=2)
    assert out.count == 2
    assert [m.table for m in out.canonical_models] == [
        ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 0), (0, 0, 1)),
    ]
    assert {m.table for m in out.canonical_models} <= {
        m.table for m in full.canonical_models
    }
    assert (full.count, full.stats.nodes, out.stats.nodes) == (75, 771, 10)
