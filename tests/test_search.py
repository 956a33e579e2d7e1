import itertools

import pytest
from hypothesis import given, settings, strategies as st

from agband.construct import standard_g, tower_level
from agband.errors import ResourceLimitError
from agband.groupoid import FiniteGroupoid
from agband.laws import (
    Identity,
    Prod,
    Var,
    _kernel_for,
    check_variety,
    get_variety,
    variables,
)
from agband.morphisms import iso_search
from agband.search import (
    SearchOutcome,
    _eval_partial,
    brute_force_oracle,
    canonical_form,
    canonical_table,
    enumerate_models,
    spectrum_scan,
)

ARAGB = get_variety("aragb")


def _terms():
    return st.recursive(
        st.sampled_from("xyz").map(Var),
        lambda sub: st.tuples(sub, sub).map(lambda p: Prod(*p)),
        max_leaves=5,
    )


def _partial_tables():
    def build(n):
        cell = st.one_of(st.none(), st.integers(0, n - 1))
        row = st.lists(cell, min_size=n, max_size=n)
        return st.lists(row, min_size=n, max_size=n)

    return st.integers(1, 4).flatmap(build)


@given(_terms(), _terms(), _partial_tables())
@settings(max_examples=200)
def test_partial_scanner_finds_the_first_decided_failure(lhs, rhs, table):
    # the compiled partial-table scanner against a lexicographic sweep with
    # the recursive evaluator, skipping instances with an undecided subterm
    ident = Identity(lhs, rhs)
    names = variables(ident)
    n = len(table)
    want = None
    for vals in itertools.product(range(n), repeat=len(names)):
        env = dict(zip(names, vals))
        left = _eval_partial(lhs, env, table)
        right = _eval_partial(rhs, env, table)
        if left is not None and right is not None and left != right:
            want = vals
            break
    assert _kernel_for(ident, partial=True)(table, n) == want


def test_canonical_table_is_a_relabelling_invariant():
    g = standard_g()
    base = canonical_table(g.table)
    for perm in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)):
        assert canonical_table(g.relabel(perm).table) == base


def test_canonical_table_order_limit():
    with pytest.raises(ResourceLimitError):
        canonical_table(tower_level(2).table)


def test_canonical_form_wraps_with_default_labels():
    g = canonical_form(standard_g())
    assert g.labels == ("e0", "e1", "e2", "e3")


def test_single_order_four_model_up_to_isomorphism():
    out = enumerate_models(4, ARAGB)
    assert isinstance(out, SearchOutcome)
    assert out.count == 1
    assert out.canonical_models[0].table == canonical_table(standard_g().table)
    assert out.stats.nodes > 0


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
        for name in ("aragb", "band", "ag", "evans"):
            v = get_variety(name)
            assert enumerate_models(order, v).count == brute_force_oracle(order, v)


def test_oracle_order_four_idempotent_case():
    assert brute_force_oracle(4, ARAGB) == enumerate_models(4, ARAGB).count == 1
    band = get_variety("band")
    assert brute_force_oracle(4, band) == enumerate_models(4, band).count == 6


def test_oracle_refuses_what_it_cannot_sweep():
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(4, get_variety("ag"))  # not idempotent, 4^16 tables
    with pytest.raises(ResourceLimitError):
        brute_force_oracle(5, ARAGB)


def test_known_counts_from_the_literature():
    assert brute_force_oracle(2, get_variety("ag")) == 3
    assert brute_force_oracle(3, get_variety("ag")) == 20
    assert brute_force_oracle(3, get_variety("band")) == 2


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
