"""Replay of the source material's numbered claims as a pass/fail checklist.

Each claim id maps to one reference and one concrete finite check built
from the library modules.  Claims whose content has no finite realization
here are reported as SKIPPED rather than silently dropped, so the report
doubles as a coverage map.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .construct import (
    adjoined_generator_index,
    diff_tables,
    extend,
    gbar_derived,
    gbar_table3,
    j_subband,
    limit_product,
    standard_g,
    tower_level,
)
from .decompose import (
    BandDecomposition,
    Partition,
    check_band_decomposition,
    copy_intersection_audit,
    extension_block_decomposition,
    g_copy_partition,
)
from .errors import ClosureError
from .laws import (
    ANTI_RECTANGULAR,
    IDEMPOTENT,
    MEDIAL,
    check_identity,
    check_variety,
    get_variety,
    parse_identity,
)
from .morphisms import (
    MapKind,
    anti_to_iso,
    canonical_iso,
    classify_all_bijections,
    iso_search,
    two_generator_recipe,
    verified,
)
from .search import canonical_table, enumerate_models, spectrum_scan

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

_SEED = 731
_ARAGB = get_variety("aragb")


class ClaimResult(namedtuple("ClaimResult", "claim reference status detail")):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "results")):
    __slots__ = ()

    @property
    def overall(self) -> str:
        return FAIL if any(r.status == FAIL for r in self.results) else PASS


class _ClaimFailed(Exception):
    pass


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise _ClaimFailed(message)


def _shuffles(order: int, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        perm = list(range(order))
        rng.shuffle(perm)
        yield tuple(perm)


# ---------------------------------------------------------------------------
# claim checks, in source order


def _example_1() -> str:
    g = standard_g()
    report = check_variety(g, _ARAGB)
    _need(report.holds, f"order-4 model fails {report.first_failure}")
    total = sum(r.assignments for r in report.reports)
    return (
        "order-4 model satisfies idempotency, the left invertive law and "
        f"(xy)x = y; {total} ground instances checked"
    )


def _result_2() -> str:
    for n in (1, 2, 3):
        rep = check_identity(tower_level(n), MEDIAL)
        _need(rep.holds, f"medial law fails at level {n}: {rep.counterexample}")
    return "medial law holds exhaustively at orders 4, 16 and 64"


def _result_3() -> str:
    law = parse_identity("a(bc) = c(ba)")
    for n in (1, 2, 3):
        rep = check_identity(tower_level(n), law)
        _need(rep.holds, f"derived law fails at level {n}: {rep.counterexample}")
    return "a(bc) = c(ba) holds exhaustively at orders 4, 16 and 64"


def _result_4() -> str:
    g2 = tower_level(2)
    pairs = list(itertools.permutations(range(16), 2))
    for c, d in pairs:
        two_generator_recipe(g2, c, d)
    return (
        f"c→0, d→1, cd→2, dc→3 extends to an isomorphism of the generated "
        f"copy onto the order-4 model for all {len(pairs)} ordered pairs"
    )


def _result_5() -> str:
    g = standard_g()
    for c, d in itertools.combinations(range(4), 2):
        span = g.generated_subgroupoid({c, d})
        _need(len(span) == 4, f"pair ({c}, {d}) spans only {sorted(span)}")
    return "all 6 unordered pairs of distinct elements generate the whole model"


def _result_6() -> str:
    census = classify_all_bijections(standard_g())
    counts = census.counts
    _need(
        counts[MapKind.ISO] == 12
        and counts[MapKind.ANTI_ISO] == 12
        and counts[MapKind.NEITHER] == 0,
        f"census off: {counts}",
    )
    want = {
        (MapKind.ISO, (1, 1, 1, 1)): 1,
        (MapKind.ISO, (3, 1)): 8,
        (MapKind.ISO, (2, 2)): 3,
        (MapKind.ANTI_ISO, (2, 1, 1)): 6,
        (MapKind.ANTI_ISO, (4,)): 6,
    }
    _need(census.by_cycle_type == want, f"cycle types off: {census.by_cycle_type}")
    return "12 isomorphisms / 12 anti-isomorphisms / 0 neither, by cycle type"


def _result_7() -> str:
    g = standard_g()
    converted = 0
    for images in itertools.permutations(range(4)):
        phi = verified(images, g, g)
        if phi.kind != MapKind.ANTI_ISO:
            continue
        anti_to_iso(phi, g, g)
        converted += 1
    _need(converted == 12, f"expected 12 anti-isomorphisms, saw {converted}")
    return "all 12 self-anti-isomorphisms convert to verified isomorphisms"


def _result_8() -> str:
    audit = copy_intersection_audit(tower_level(2))
    _need(
        audit.ok,
        f"intersection sizes {sorted(audit.distribution)} not within {{0, 1, 4}}",
    )
    dist = {k: audit.distribution[k] for k in sorted(audit.distribution)}
    return (
        f"{audit.distinct_copies} order-4 copies in the order-16 band; "
        f"pairwise intersections {dist}"
    )


def _result_9() -> str:
    for n in (1, 2):
        rep = check_variety(tower_level(n).opposite(), _ARAGB)
        _need(rep.holds, f"opposite of level {n} fails {rep.first_failure}")
    return "opposites of the order-4 and order-16 levels satisfy all identities"


def _theorem_1() -> str:
    for base, want in ((standard_g(), 16), (tower_level(2), 64)):
        h = extend(base, 0, "z")
        _need(h.order == want, f"extension of order {base.order} has {h.order}")
        rep = check_variety(h, _ARAGB)
        _need(rep.holds, f"extension of order {base.order} fails {rep.first_failure}")
    return "extensions quadruple the order (16, 64) and satisfy all identities"


def _corollary_2() -> str:
    got = spectrum_scan(_ARAGB, 8)
    want = ((1, 1), (2, 0), (3, 0), (4, 1), (5, 0), (6, 0), (7, 0), (8, 0))
    _need(got == want, f"spectrum scan returned {got}")
    return "orders 1..8 admit models only at 1 and 4, one class each"


def _corollary_3() -> str:
    seeds = [0, 1]
    for n in (1, 2, 3):
        g = tower_level(n)
        span = g.generated_subgroupoid(seeds)
        _need(
            len(span) == g.order,
            f"{len(seeds)} seeds span {len(span)} of {g.order} at level {n}",
        )
        seeds = seeds + [adjoined_generator_index(n + 1)]
    g2 = tower_level(2)
    worst = max(
        len(g2.generated_subgroupoid({c, d}))
        for c, d in itertools.combinations(range(16), 2)
    )
    _need(worst == 4, f"some pair spans {worst} elements of the order-16 band")
    return (
        "levels 1..3 are generated by 2, 3 and 4 elements; no pair spans "
        "more than 4 elements of the order-16 band"
    )


def _corollary_5() -> str:
    out = enumerate_models(4, _ARAGB)
    _need(out.count == 1, f"order 4 has {out.count} classes")
    _need(
        out.canonical_models[0].table == canonical_table(tower_level(1).table),
        "order-4 class differs from the tower level",
    )
    g2 = tower_level(2)
    witness = enumerate_models(16, _ARAGB, limit=1).canonical_models[0]
    _need(iso_search(witness, g2) is not None, "search witness not isomorphic")
    for perm in _shuffles(16, 10, _SEED):
        _need(
            iso_search(g2.relabel(perm), g2) is not None,
            f"relabeling {perm} broke isomorphism",
        )
    return (
        "one class at order 4; the order-16 search witness and 10 relabelings "
        "are all isomorphic to the order-16 level"
    )


def _corollary_6() -> str:
    for n in (2, 3):
        extension_block_decomposition(n)
    return (
        "levels 2 and 3 split into four blocks isomorphic to the previous "
        "level with quotient isomorphic to the order-4 model"
    )


def _construction_1() -> str:
    g1, g2, g3 = standard_g(), tower_level(2), tower_level(3)
    for i in range(16):
        for j in range(16):
            p = limit_product(i, j)
            _need(p == g3.table[i][j], f"product ({i}, {j}) differs at level 3")
            if i < 4 > j:
                _need(p == g1.table[i][j], f"product ({i}, {j}) differs at level 1")
            _need(p == g2.table[i][j], f"product ({i}, {j}) differs at level 2")
    return "all 256 products below index 16 agree across levels 1, 2 and 3"


def _theorem_7() -> str:
    for n in (0, 1, 2, 3):
        rep = check_variety(tower_level(n), _ARAGB)
        _need(rep.holds, f"level {n} fails {rep.first_failure}")
    return "every finite stage of the union (orders 1, 4, 16, 64) satisfies all identities"


def _theorem_8() -> str:
    targets = ((2, 5), (3, 2))
    checked = 0
    for level, count in targets:
        g = tower_level(level)
        for perm in _shuffles(g.order, count, _SEED + level):
            canonical_iso(g.relabel(perm))
            checked += 1
    return (
        f"the staged identification rebuilt verified isomorphisms for "
        f"{checked} shuffled copies (orders 16 and 64)"
    )


def _corollary_9() -> str:
    for n, want in ((2, 4), (3, 16)):
        partition = g_copy_partition(tower_level(n))
        _need(
            len(partition.blocks) == want,
            f"level {n} split into {len(partition.blocks)} blocks",
        )
    return (
        "the order-16 and order-64 levels split into 4 and 16 disjoint "
        "order-4 copies, each isomorphic to the order-4 model"
    )


def _corollary_10() -> str:
    g3 = tower_level(3)
    j2 = j_subband(2)
    _need(j2.order == 16, f"inner sub-band has order {j2.order}")
    _need(j2.order < g3.order, "sub-band is not proper")
    _need(
        iso_search(j2, tower_level(2)) is not None,
        "inner sub-band not isomorphic to the order-16 level",
    )
    return "a proper order-16 sub-band of the order-64 level is isomorphic to the order-16 level"


def _corollary_12() -> str:
    for n in (1, 2):
        g = tower_level(n)
        _need(
            iso_search(g.opposite(), g) is not None,
            f"opposite of level {n} not isomorphic to it",
        )
    return "the order-4 and order-16 levels are isomorphic to their opposites"


def _gbar_quarters():
    """The order-16 counterexample and its split into four quarters."""
    gbar = gbar_derived()
    partition = Partition(tuple(tuple(range(b, b + 4)) for b in (0, 4, 8, 12)))
    dec = check_band_decomposition(gbar, partition)
    _need(isinstance(dec, BandDecomposition), f"blocks smear: {dec}")
    return gbar, dec


def _lemma_12() -> str:
    gbar, dec = _gbar_quarters()
    cancel = gbar.is_cancellative()
    _need(cancel.both, f"cancellativity report: {cancel}")
    sizes = {len(block) for block in dec.partition.blocks}
    _need(len(sizes) == 1, f"component sizes {sizes}")
    t = gbar.table
    holds = 0
    for a in range(16):
        for b in range(16):
            forward = t[t[a][b]][a] == b
            backward = t[t[b][a]][b] == a
            _need(
                forward == backward,
                f"(ab)a = b and (ba)b = a disagree at ({a}, {b})",
            )
            holds += forward
    return (
        "the counterexample is cancellative, has equal-size components, and "
        f"(ab)a = b iff (ba)b = a over all 256 pairs ({holds} positive)"
    )


def _theorem_12() -> str:
    gbar, dec = _gbar_quarters()
    g = standard_g()
    ag = check_variety(gbar, get_variety("ag"))
    _need(ag.holds, f"counterexample fails {ag.first_failure}")
    idem = check_identity(gbar, IDEMPOTENT)
    _need(idem.holds, f"counterexample not idempotent: {idem.counterexample}")
    anti = check_identity(gbar, ANTI_RECTANGULAR)
    _need(not anti.holds, "counterexample unexpectedly anti-rectangular")
    _need(
        iso_search(dec.quotient, g) is not None,
        "quotient not isomorphic to the order-4 model",
    )
    for block in dec.partition.blocks:
        _need(
            iso_search(gbar.restrict(block), g) is not None,
            f"block {block} not isomorphic to the order-4 model",
        )
    try:
        gbar.restrict((0, 4, 8, 12))
        _need(False, "the four base points unexpectedly form a subgroupoid")
    except ClosureError as e:
        witness = e.witness
    return (
        "order-16 AG band, not anti-rectangular (witness "
        f"{dict(anti.counterexample)}), splits into four order-4 copies with "
        f"quotient the order-4 model; base points are not closed "
        f"(product {witness[0]}*{witness[1]} = {witness[2]} escapes)"
    )


def _table_3() -> str:
    derived = gbar_derived()
    fixture = gbar_table3()
    delta = diff_tables(derived, fixture)
    _need(bool(delta), "transcription unexpectedly matches the derived table")
    rows = {entry[0] for entry in delta}
    _need(rows == {3}, f"differences touch rows {sorted(rows)}, expected row 3 only")
    cells = ", ".join(
        f"({i},{j}): derived {a} vs transcribed {b}" for i, j, a, b in delta
    )
    return f"expected discrepancy confined to row 3: {cells}"


# (claim id, reference, check); a skipped claim has its reason in place of
# the check.
_REGISTRY: tuple[tuple[str, str, object], ...] = (
    ("example-1", "Example 1", _example_1),
    ("result-1", "Result 1", (
        "decomposing arbitrary AG bands into anti-rectangular components is "
        "out of scope; the order-16 counterexample instantiates the statement"
    )),
    ("result-2", "Result 2", _result_2),
    ("result-3", "Result 3", _result_3),
    ("result-4", "Result 4", _result_4),
    ("result-5", "Result 5", _result_5),
    ("result-6", "Result 6", _result_6),
    ("result-7", "Result 7", _result_7),
    ("result-8", "Result 8", _result_8),
    ("result-9", "Result 9", _result_9),
    ("theorem-1", "Theorem 1", _theorem_1),
    ("corollary-2", "Corollary 2", _corollary_2),
    ("corollary-3", "Corollary 3", _corollary_3),
    ("theorem-4", "Theorem 4", (
        "restates the extension on a set-builder carrier; only the indexed "
        "extension is modeled here"
    )),
    ("corollary-5", "Corollary 5", _corollary_5),
    ("corollary-6", "Corollary 6", _corollary_6),
    ("construction-1", "Construction 1", _construction_1),
    ("theorem-7", "Theorem 7", _theorem_7),
    ("theorem-8", "Theorem 8", _theorem_8),
    ("corollary-9", "Corollary 9", _corollary_9),
    ("corollary-10", "Corollary 10", _corollary_10),
    ("corollary-12", "Corollary 12", _corollary_12),
    ("lemma-12", "Lemma 12", _lemma_12),
    ("theorem-12", "Theorem 12", _theorem_12),
    ("table-3", "Table 3", _table_3),
)


def run_claims(only=None) -> VerificationReport:
    """Run all claim checks, or the subset named in `only`."""
    if only is not None:
        wanted = list(only)
        if not wanted:
            raise ValueError("no claim ids selected")
        known = [claim for claim, _, _ in _REGISTRY]
        unknown = [c for c in wanted if c not in known]
        if unknown:
            raise ValueError(
                f"unknown claim ids {unknown}; known: {', '.join(known)}"
            )
        selected = set(wanted)
    else:
        selected = None
    results = []
    for claim, reference, func in _REGISTRY:
        if selected is not None and claim not in selected:
            continue
        if isinstance(func, str):
            results.append(ClaimResult(claim, reference, SKIPPED, func))
            continue
        try:
            detail = func()
            status = PASS
        except _ClaimFailed as e:
            status, detail = FAIL, str(e)
        except Exception as e:  # noqa: BLE001 - a crash is a failed claim
            status, detail = FAIL, f"{type(e).__name__}: {e}"
        results.append(ClaimResult(claim, reference, status, detail))
    return VerificationReport(tuple(results))
