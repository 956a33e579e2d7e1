import ast
import json
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from agband import groupoid
from agband.construct import gbar_table3, j_subband, tower_level
from agband.errors import ClosureError
from agband.groupoid import (
    FiniteGroupoid,
    default_labels,
    from_json,
    render_text,
    to_doc,
    to_json,
)

LEFT_ZERO_3 = FiniteGroupoid(table=((0, 0, 0), (1, 1, 1), (2, 2, 2)))
Z3 = FiniteGroupoid(table=tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)))


def small_tables(max_order=5):
    def build(n):
        return st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda rows: tuple(tuple(r) for r in rows))

    return st.integers(1, max_order).flatmap(build)


def test_rejects_ragged_table():
    with pytest.raises(ValueError):
        FiniteGroupoid(table=((0, 1), (0,)))


def test_rejects_out_of_range_entry():
    with pytest.raises(ValueError):
        FiniteGroupoid(table=((0, 2), (1, 0)))


def test_rejects_boolean_entries():
    with pytest.raises(ValueError):
        FiniteGroupoid(table=((True, False), (False, True)))


def test_rejects_empty_table():
    with pytest.raises(ValueError):
        FiniteGroupoid(table=())


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        FiniteGroupoid(table=((0, 1), (1, 0)), labels=("x", "x"))


def test_rejects_too_few_labels():
    with pytest.raises(ValueError, match="expected 2 labels, got 1"):
        FiniteGroupoid(table=((0, 1), (1, 0)), labels=("x",))


def test_default_labels_fill_in():
    g = FiniteGroupoid(table=((0, 1), (1, 0)))
    assert g.labels == default_labels(2) == ("e0", "e1")


@given(small_tables())
def test_opposite_is_an_involution(table):
    g = FiniteGroupoid(table=table)
    assert g.opposite().opposite().table == g.table


def test_opposite_transposes():
    g = LEFT_ZERO_3.opposite()
    assert all(g.table[i][j] == j for i in range(3) for j in range(3))


def test_generated_subgroupoid_grows_to_closure():
    # in Z3 any single nonzero element generates everything
    assert Z3.generated_subgroupoid({1}) == {0, 1, 2}
    assert LEFT_ZERO_3.generated_subgroupoid({2}) == {2}


def test_generated_subgroupoid_rejects_bad_seeds():
    with pytest.raises(ValueError):
        Z3.generated_subgroupoid(set())
    with pytest.raises(IndexError):
        Z3.generated_subgroupoid({5})


def test_cancellativity_report_witnesses():
    rep = LEFT_ZERO_3.is_cancellative()
    assert not rep.left and rep.right is False or not rep.both
    # row 0 repeats 0 at columns 0 and 1
    assert rep.left_witness == (0, 0, 1)
    ok = Z3.is_cancellative()
    assert ok.both and ok.left_witness is None and ok.right_witness is None


# FiniteGroupoid was a frozen dataclass; these pin what callers saw of it.


def test_equality_and_hash_cover_table_and_labels():
    table = ((0, 1), (1, 0))
    g = FiniteGroupoid(table=table)
    assert g == FiniteGroupoid(table=[[0, 1], [1, 0]], labels=("e0", "e1"))
    assert hash(g) == hash(FiniteGroupoid(table, ("e0", "e1")))
    assert hash(g) == hash((table, ("e0", "e1")))
    assert g != FiniteGroupoid(table, ("p", "q"))
    assert g != FiniteGroupoid(((1, 0), (0, 1)))
    assert g != (table, ("e0", "e1"))
    assert len({g, FiniteGroupoid(table), FiniteGroupoid(table, "pq")}) == 2


def test_repr_names_both_fields():
    assert repr(FiniteGroupoid(table=((0, 1), (1, 0)))) == (
        "FiniteGroupoid(table=((0, 1), (1, 0)), labels=('e0', 'e1'))"
    )
    assert repr(LEFT_ZERO_3.is_cancellative()) == (
        "CancellativityReport(left=False, right=True, "
        "left_witness=(0, 0, 1), right_witness=None)"
    )


def test_assignment_and_deletion_raise():
    g = FiniteGroupoid(table=((0,),))
    for attr in ("table", "labels", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, attr, ((0,),))
        with pytest.raises(AttributeError):
            delattr(g, attr)
    assert g.table == ((0,),) and g.labels == ("e0",)


def test_keyword_and_positional_construction_agree():
    table, labels = ((0, 2, 1), (2, 1, 0), (1, 0, 2)), ("a", "b", "c")
    by_keyword = FiniteGroupoid(table=table, labels=labels)
    assert by_keyword == FiniteGroupoid(table, labels)
    assert by_keyword == FiniteGroupoid(labels=labels, table=table)
    with pytest.raises(ValueError):
        FiniteGroupoid(table=table, labels=("a", "a", "b"))


def test_copies_and_pickles_are_equal_groupoids():
    import copy
    import pickle

    g = tower_level(2)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is FiniteGroupoid and twin == g


def test_cancellativity_of_the_near_miss_table():
    # the transcribed table repeats 12 in its fourth row
    rep = gbar_table3().is_cancellative()
    assert (rep.left, rep.right, rep.both) == (False, False, False)
    assert rep.left_witness == (3, 7, 10)
    assert rep.right_witness == (10, 3, 8)
    level = tower_level(2).is_cancellative()
    assert level.both and (level.left_witness, level.right_witness) == (None, None)


def test_restrict_reindexes_and_checks_closure():
    sub = LEFT_ZERO_3.restrict([0, 2])
    assert sub.order == 2
    assert sub.table == ((0, 0), (1, 1))
    assert sub.labels == ("e0", "e2")
    with pytest.raises(ClosureError) as exc:
        Z3.restrict([1, 2])
    assert exc.value.witness == (1, 1, 2) or exc.value.witness[2] not in (1, 2)


def test_restrict_refuses_an_empty_subset():
    with pytest.raises(ValueError, match="subset must be nonempty"):
        LEFT_ZERO_3.restrict([])


def test_restrict_refuses_an_index_out_of_range():
    with pytest.raises(IndexError, match="index 3 out of range for order 3"):
        LEFT_ZERO_3.restrict([0, 3])


def reference_closure(g, seeds):
    """The cell-by-cell worklist closure that the gathers replaced."""
    t = g.table
    closed = set(seeds)
    work = list(closed)
    while work:
        u = work.pop()
        for v in tuple(closed):
            for w in (t[u][v], t[v][u]):
                if w not in closed:
                    closed.add(w)
                    work.append(w)
    return closed


def reference_restrict(g, subset):
    """The cell-by-cell restriction that the gathers replaced."""
    sub = sorted(set(subset))
    pos = {v: k for k, v in enumerate(sub)}
    t = g.table
    for i in sub:
        for j in sub:
            if t[i][j] not in pos:
                raise ClosureError(
                    f"subset not closed: {i} * {j} = {t[i][j]} escapes",
                    witness=(i, j, t[i][j]),
                )
    return FiniteGroupoid(
        table=tuple(tuple(pos[t[i][j]] for j in sub) for i in sub),
        labels=tuple(g.labels[i] for i in sub),
    )


def outcome(call, *args):
    try:
        return call(*args)
    except ClosureError as e:
        return str(e), e.witness


@settings(max_examples=200)
@given(small_tables(8).flatmap(lambda t: st.tuples(
    st.just(t), st.sets(st.integers(0, len(t) - 1), min_size=1))))
def test_closure_and_restrict_match_the_cell_loops(table_subset):
    table, subset = table_subset
    g = FiniteGroupoid(table)
    assert g.generated_subgroupoid(subset) == reference_closure(g, subset)
    assert (outcome(g.restrict, subset)
            == outcome(reference_restrict, g, subset))


@pytest.mark.parametrize("level", [2, 3, 4])
def test_closure_and_restrict_match_the_cell_loops_on_tower_levels(level):
    g = tower_level(level)
    for seeds in ({0, 12}, {5, 9, 33}, {1, 2, 3}, {0}, set(range(0, g.order, 7))):
        seeds = {s % g.order for s in seeds}
        closed = g.generated_subgroupoid(seeds)
        assert closed == reference_closure(g, seeds)
        assert g.restrict(closed) == reference_restrict(g, closed)
        assert (outcome(g.restrict, seeds | {1})
                == outcome(reference_restrict, g, seeds | {1}))


def test_relabel_moves_products_with_elements():
    perm = (2, 0, 1)
    h = Z3.relabel(perm)
    for i in range(3):
        for j in range(3):
            assert h.table[perm[i]][perm[j]] == perm[Z3.table[i][j]]
    assert h.labels[perm[0]] == Z3.labels[0]


def test_relabel_rejects_non_permutation():
    with pytest.raises(ValueError):
        Z3.relabel((0, 0, 1))


@given(small_tables(), st.randoms(use_true_random=False))
def test_relabel_round_trip(table, rng):
    g = FiniteGroupoid(table=table)
    perm = list(range(g.order))
    rng.shuffle(perm)
    inv = [0] * g.order
    for i, p in enumerate(perm):
        inv[p] = i
    assert g.relabel(perm).relabel(inv).table == g.table


@given(small_tables())
def test_json_round_trip(table):
    g = FiniteGroupoid(table=table)
    assert from_json(to_json(g)).table == g.table


@pytest.mark.parametrize("g", [
    *map(tower_level, range(5)),
    gbar_table3(),
    FiniteGroupoid(table=((0,),), labels=("\u00e9",)),
    FiniteGroupoid(table=Z3.table, labels=('"q"', "back\\slash", "\u2603\n\u2028")),
])
def test_to_json_is_the_indented_json_encoding(g):
    assert to_json(g) == json.dumps(to_doc(g), indent=2)


@settings(max_examples=40)
@given(small_tables().flatmap(lambda t: st.tuples(
    st.just(t),
    st.lists(st.text(min_size=1), min_size=len(t), max_size=len(t), unique=True),
)))
def test_to_json_matches_json_dumps_on_any_labels(table_labels):
    g = FiniteGroupoid(*table_labels)
    assert to_json(g) == json.dumps(to_doc(g), indent=2)


def reference_table_error(table):
    """Message of the row-major check every table once went through cell by
    cell: the first row of the wrong length or the first bad cell."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            return f"row {i} has length {len(row)}, expected {n}"
        for j, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                return f"entry ({i}, {j}) = {v!r} out of range"
    return None


SHORT_ROW = "short row"


@st.composite
def tables_with_bad_cells(draw):
    rows = [list(r) for r in draw(small_tables())]
    n = len(rows)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from([True, -1, n, 1.0, "0", SHORT_ROW]))
        if not rows[i]:
            continue  # emptied by an earlier SHORT_ROW
        if bad is SHORT_ROW:
            rows[i].pop()
        else:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = bad
    return rows


@given(tables_with_bad_cells())
def test_bad_tables_are_refused_with_the_first_bad_row_or_cell(rows):
    message = reference_table_error(rows)
    assert message is not None
    with pytest.raises(ValueError) as err:
        FiniteGroupoid(table=rows)
    assert str(err.value) == message
    doc = {"order": len(rows), "labels": list(default_labels(len(rows))),
           "table": rows}
    with pytest.raises(ValueError) as err:
        from_json(json.dumps(doc))
    assert str(err.value) == message


def test_from_json_validates_shape():
    with pytest.raises(ValueError):
        from_json("[1, 2]")
    with pytest.raises(ValueError):
        from_json("not json at all")
    doc = json.loads(to_json(Z3))
    doc["order"] = 7
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("order, table", [(2.0, ((0, 1), (1, 0))), (True, ((0,),))])
def test_from_json_rejects_a_non_integer_order(order, table):
    # both compare equal to the row count, so only the type check refuses them
    doc = json.loads(to_json(FiniteGroupoid(table=table)))
    doc["order"] = order
    with pytest.raises(ValueError):
        from_json(json.dumps(doc))


@pytest.mark.parametrize("labels", ["abcd", [None, 1, True, {}], ["a", "b", "c", 3]])
def test_from_json_rejects_labels_that_are_not_a_list_of_strings(labels):
    doc = json.loads(to_json(FiniteGroupoid(table=((0,) * 4,) * 4)))
    doc["labels"] = labels
    with pytest.raises(ValueError, match='"labels" must be a list of strings'):
        from_json(json.dumps(doc))
    # the constructor still takes any iterable and renders its items
    assert FiniteGroupoid(table=((0, 0), (0, 0)), labels="ab").labels == ("a", "b")


@pytest.mark.parametrize("table", [5, [1, 2], "a", [{"x": 0}], [[0, 1], "ab"], None])
def test_from_json_rejects_a_table_that_is_not_a_list_of_lists(table):
    doc = {"order": 2, "labels": ["a", "b"], "table": table}
    with pytest.raises(ValueError, match='"table" must be a list of lists'):
        from_json(json.dumps(doc))


def test_render_text_aligns_columns():
    text = render_text(Z3)
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("*")
    assert "e1" in lines[0] and "e2" in lines[2]


# ---------------------------------------------------------------------------
# the trusted path: tables the library builds from checked parts skip the
# value scan of FiniteGroupoid.__init__

TRUSTED_CALLERS = {
    "construct._extend",
    "construct.j_subband",
    "groupoid.FiniteGroupoid.opposite",
    "groupoid.FiniteGroupoid.restrict",
}


def _callers_of(name, tree, module):
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None) == name:
                    found.add(".".join([module, *scope]))
            walk(child, scope)

    walk(tree, [])
    return found


def test_the_trusted_constructor_has_exactly_the_reviewed_callers():
    src = Path(groupoid.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        callers |= _callers_of("_built", tree, path.stem)
    assert callers == TRUSTED_CALLERS


def _trusted_results():
    for n in range(1, 6):
        level = tower_level(n)
        yield pytest.param(level, id=f"level-{n}")
        yield pytest.param(level.opposite(), id=f"level-{n}-opposite")
    for n in range(1, 5):
        j = j_subband(n)
        yield pytest.param(j, id=f"J{n}")
        yield pytest.param(j.opposite(), id=f"J{n}-opposite")
    level3 = tower_level(3)
    for subset in ((0,), (0, 1, 2, 3), range(16), (0, 4, 8, 12)):
        yield pytest.param(level3.restrict(subset),
                           id=f"level-3-on-{len(subset)}-from-{subset[-1]}")
    yield pytest.param(tower_level(4).restrict(
        level3.generated_subgroupoid((0, 12, 48))), id="level-4-on-J2-carrier")


@pytest.mark.parametrize("g", _trusted_results())
def test_trusted_results_are_what_the_checking_constructor_builds(g):
    assert g == FiniteGroupoid(g.table, g.labels)
    assert type(g.table) is tuple and type(g.labels) is tuple
    assert {type(row) for row in g.table} == {tuple}
    assert set(map(type, chain.from_iterable(g.table))) == {int}
    assert {type(s) for s in g.labels} == {str}
