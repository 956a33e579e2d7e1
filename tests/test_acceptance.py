"""Acceptance suite: twelve numbered criteria, each with a runtime budget.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line verdict
per criterion; without ``-s`` the lines show up in pytest's captured output.
Every criterion re-derives what it checks instead of trusting the library's
own reporting, so a regression anywhere upstream fails loudly here.
"""

import itertools
import random
import time
from contextlib import contextmanager

from agband.construct import (
    diff_tables,
    extend,
    gbar_derived,
    gbar_table3,
    j_subband,
    limit_product,
    tower_level,
)
from agband.decompose import Partition, check_band_decomposition
from agband.errors import ClosureError
from agband.groupoid import FiniteGroupoid, standard_g
from agband.laws import (
    ANTI_RECTANGULAR,
    IDEMPOTENT,
    LEFT_INVERTIVE,
    MEDIAL,
    check_identity,
    check_variety,
    eval_term,
    get_variety,
    parse_identity,
)
from agband.morphisms import (
    MapKind,
    canonical_iso,
    classify_all_bijections,
    classify_mapping,
    iso_search,
)
from agband.search import brute_force_oracle, enumerate_models, spectrum_scan

ARAGB = get_variety("aragb")
AG = get_variety("ag")


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            raise AssertionError(
                f"overran the {budget_s:g} s budget: {elapsed:.2f} s"
            )
        print(f"criterion {num:02d}: PASS  {label}  [{elapsed:.2f}s < {budget_s:g}s]")
    except BaseException:
        print(f"criterion {num:02d}: FAIL  {label}")
        raise


def _shuffled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def test_criterion_01_order_four_model_and_generating_pairs():
    with criterion(1, "order-4 model laws and generating pairs", 1.0):
        g = standard_g()
        t = g.table
        for x, y, z in itertools.product(range(4), repeat=3):
            env = {"x": x, "y": y, "z": z, "w": x}
            for law in (LEFT_INVERTIVE, IDEMPOTENT, ANTI_RECTANGULAR):
                assert eval_term(law.lhs, t, env) == eval_term(law.rhs, t, env)
        for c, d in itertools.combinations(range(4), 2):
            assert g.generated_subgroupoid({c, d}) == {0, 1, 2, 3}


def test_criterion_02_bijection_census():
    with criterion(2, "bijection census 12/12/0 with cycle types", 1.0):
        census = classify_all_bijections(standard_g())
        assert census.total == 24
        assert census.counts[MapKind.ISO] == 12
        assert census.counts[MapKind.ANTI_ISO] == 12
        assert census.counts[MapKind.NEITHER] == 0
        assert census.by_cycle_type == {
            (MapKind.ISO, (1, 1, 1, 1)): 1,
            (MapKind.ISO, (3, 1)): 8,
            (MapKind.ISO, (2, 2)): 3,
            (MapKind.ANTI_ISO, (2, 1, 1)): 6,
            (MapKind.ANTI_ISO, (4,)): 6,
        }


def test_criterion_03_extension_quadruples_and_stays_in_variety():
    with criterion(3, "extension at varied designated elements", 5.0):
        for h in (standard_g(), tower_level(2)):
            for a in (0, 1, h.order - 1):
                big = extend(h, designated=a)
                assert big.order == 4 * h.order
                assert check_variety(big, ARAGB).holds


def test_criterion_04_spectrum_and_oracle_agreement():
    with criterion(4, "spectrum 1..8 and oracle cross-check", 180.0):
        t0 = time.perf_counter()
        spec = spectrum_scan(ARAGB, 8)
        search_elapsed = time.perf_counter() - t0
        assert spec == ((1, 1), (2, 0), (3, 0), (4, 1), (5, 0), (6, 0), (7, 0), (8, 0))
        assert search_elapsed < 60.0
        for order in (1, 2, 3):
            assert enumerate_models(order, ARAGB).count == brute_force_oracle(order, ARAGB)
        t0 = time.perf_counter()
        oracle4 = brute_force_oracle(4, ARAGB)
        assert time.perf_counter() - t0 < 120.0
        assert oracle4 == enumerate_models(4, ARAGB).count == 1


def test_criterion_05_order_sixteen_uniqueness_sample():
    with criterion(5, "100 order-16 instances all isomorphic to level 2", 30.0):
        g = standard_g()
        top = tower_level(2)
        rng = random.Random(1405)
        instances = [extend(g, designated=a) for a in range(4)]
        while len(instances) < 52:
            instances.append(_shuffled(top, rng))
        while len(instances) < 100:
            instances.append(_shuffled(top.opposite(), rng))
        assert len(instances) == 100
        for h in instances:
            assert iso_search(h, top) is not None


def test_criterion_06_staged_isomorphism_on_shuffles():
    with criterion(6, "staged isomorphism re-verified on shuffles", 30.0):
        rng = random.Random(86)
        for order_level, count in ((2, 20), (3, 3)):
            target = tower_level(order_level)
            for _ in range(count):
                h = _shuffled(target, rng)
                phi = canonical_iso(h)
                assert phi.kind is MapKind.ISO
                assert classify_mapping(phi.images, h, target) is MapKind.ISO


def test_criterion_07_proper_self_copy():
    with criterion(7, "proper inner copy at level 3", 10.0):
        j2 = j_subband(2)
        assert j2.order == 16 < tower_level(3).order
        assert iso_search(j2, tower_level(2)) is not None


def test_criterion_08_opposite_stays_isomorphic():
    with criterion(8, "opposites of levels 1 and 2", 5.0):
        for n in (1, 2):
            g = tower_level(n)
            op = g.opposite()
            assert check_variety(op, ARAGB).holds
            assert iso_search(op, g) is not None


def test_criterion_09_the_order_sixteen_counterexample():
    with criterion(9, "order-16 counterexample structure", 5.0):
        gbar = gbar_derived()
        assert check_variety(gbar, AG).holds
        assert check_identity(gbar, IDEMPOTENT).holds
        assert gbar.is_cancellative().both
        rep = check_identity(gbar, ANTI_RECTANGULAR)
        assert not rep.holds and rep.counterexample is not None
        quarters = Partition(
            blocks=tuple(tuple(range(4 * b, 4 * b + 4)) for b in range(4))
        )
        decomp = check_band_decomposition(gbar, quarters)
        g = standard_g()
        assert iso_search(decomp.quotient, g) is not None
        for block in quarters.blocks:
            assert iso_search(gbar.restrict(block), g) is not None
        t = gbar.table
        for a, b in itertools.product(range(16), repeat=2):
            assert (t[t[a][b]][a] == b) == (t[t[b][a]][b] == a)
        try:
            gbar.restrict([0, 4, 8, 12])
        except ClosureError:
            pass
        else:
            raise AssertionError("expected a closure failure on {0, 4, 8, 12}")


def test_criterion_10_transcription_audit():
    with criterion(10, "single-cell transcription discrepancy", 1.0):
        diffs = diff_tables(gbar_derived(), gbar_table3())
        assert diffs
        assert {d[0] for d in diffs} == {3}
        assert diffs == ((3, 10, 14, 11),)
        derived, transcribed = gbar_derived().table, gbar_table3().table
        for i in range(16):
            if i == 3:
                continue
            assert derived[i] == transcribed[i]


def test_criterion_11_derived_laws_exhaustively():
    with criterion(11, "medial and reversal laws at orders 4/16/64", 60.0):
        reversal = parse_identity("x(yz) = z(yx)")
        for n in (1, 2, 3):
            g = tower_level(n)
            assert check_identity(g, MEDIAL).holds
            assert check_identity(g, reversal).holds


def test_criterion_12_limit_products_are_level_independent():
    with criterion(12, "limit products agree across levels", 5.0):
        g = standard_g()
        for i in range(4):
            for j in range(4):
                assert limit_product(i, j) == g.table[i][j]
        rng = random.Random(4096)
        for _ in range(1000):
            i = rng.randrange(64)
            j = rng.randrange(64)
            m = 1
            while 4**m <= max(i, j):
                m += 1
            assert (
                tower_level(m).table[i][j]
                == tower_level(m + 1).table[i][j]
                == limit_product(i, j)
            )
