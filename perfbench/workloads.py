"""The four workloads: each builds its inputs from the seed, writes them as
Cayley-JSON files, and returns one pass as a fixed list of CLI requests,
each with a check of its output written against `model`, not agband.

paper      repeated `verify-paper`: the headline output, which touches every
           module; the law kernels are most of its time.
tables     "I have a table, what is it?": check, iso, canonical-iso and
           gcopies on relabelled and one-cell-corrupted copies of tower
           levels 3 and 4 (orders 64 and 256), and a corrupted order-16 copy
           that only the isomorphism search itself can refute.  Large JSON
           reads, law sweeps that run to the end beside ones that stop at a
           counterexample, isomorphism search, and the labelling-dependent
           gcopies search.
enumerate  `models` for AG at order 4 and AG bands at order 5: the
           backtracking model search, and the no-change control for work on
           the law kernels.
tower      building level 5 (a 1024 x 1024 table written as 11 MB of JSON),
           its inner copy J_4, its quarter decomposition and limit products:
           the construction and table validation, and large JSON writes.

Every pass also runs `build g` a few times, spread through the pass: the
fixed cost of any invocation.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import model

CLAIMS = (
    "example-1", "result-1", "result-2", "result-3", "result-4", "result-5",
    "result-6", "result-7", "result-8", "result-9", "theorem-1",
    "corollary-2", "corollary-3", "theorem-4", "corollary-5", "corollary-6",
    "construction-1", "theorem-7", "theorem-8", "corollary-9",
    "corollary-10", "corollary-12", "lemma-12", "theorem-12", "table-3",
)
SKIPPED_CLAIMS = {"result-1", "theorem-4"}
RUNNABLE_CLAIMS = tuple(c for c in CLAIMS if c not in SKIPPED_CLAIMS)

ARAGB = tuple(
    model.parse_identity(s) for s in ("(xy)z = (zy)x", "x = xx", "(xy)x = y")
)
LEFT_INVERTIVE, IDEMPOTENT, ANTI_RECTANGULAR = ARAGB

# Requests not run because one would take minutes; each with what it was
# seen to cost (2-CPU Intel Xeon, Python 3.11.7).
OVER_BUDGET = (
    ("check --variety medial on tower level 4 (order 256)", "371 s"),
    ("check --variety aragb on tower level 5 (order 1024)", "235 s"),
    ("decompose gcopies on a relabelled order-256 table",
     "killed after more than 7 min"),
    ("decompose gcopies on uniformly relabelled order-64 tables",
     "heavy-tailed in the labelling: over 40 shuffles the median was 0.39 s, "
     "one took 13.6 s and one was killed after 15 s"),
    ("iso on a one-cell-corrupted order-64 or order-256 table whose "
     "fixed-point counts match the level",
     "order 64: 5 of 6 killed after 20 s, one took 15.4 s; order 256: "
     "killed after 55 s"),
    ("limit-product at indices beyond tower level 5",
     "builds the whole level: level 9 alone has 4**18 = 6.9e10 cells"),
)

# gcopies cost depends heavily on the labelling and has a long tail (see
# OVER_BUDGET), so its labellings are the first three of a fixed stream
# rather than drawn from the seed: a seed-drawn set would make a run's time
# depend on which seed it got.  They took 0.03 s, 0.6 s and 2.0 s.
GCOPIES_LABELLINGS = 3


class CheckFailed(Exception):
    pass


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[int, str, str], None]  # exit code, stdout, stderr
    timeout: float = 60.0


def _doc(code: int, out: str, err: str, want: int = 0):
    need(code == want, f"exit {code}, expected {want}: {err.strip()[-300:]}")
    return json.loads(out)


def _table(doc) -> list[list[int]]:
    table = doc["table"]
    need(doc["order"] == len(table), "order does not match the table")
    return table


def _write(work: Path, name: str, table) -> str:
    path = work / name
    path.write_text(model.cayley_json(table), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# checks shared by several workloads


def check_g(code, out, err):
    doc = _doc(code, out, err)
    need(tuple(map(tuple, _table(doc))) == model.G_TABLE, "not the order-4 model")
    need(len(set(doc["labels"])) == 4, "labels not distinct")


FLOOR = Request("floor", ["build", "g"], check_g, 30.0)


def with_floor(requests: list[Request], count: int) -> list[Request]:
    """`requests` with `count` floor requests spread evenly among them, so
    the floor samples span the whole run."""
    out = []
    step = len(requests) / count
    for k in range(count):
        out += requests[round(k * step): round((k + 1) * step)]
        out.append(FLOOR)
    return out


def _check_paper(code, out, err):
    doc = _doc(code, out, err)
    got = [(r["claim"], r["status"]) for r in doc["results"]]
    want = [(c, "SKIPPED" if c in SKIPPED_CLAIMS else "PASS") for c in CLAIMS]
    need(got == want, f"claims {got}")
    need(doc["overall"] == "PASS", f"overall {doc['overall']}")


def claim_request(claim: str) -> Request:
    def check(code, out, err):
        doc = _doc(code, out, err)
        got = [(r["claim"], r["status"]) for r in doc["results"]]
        need(got == [(claim, "PASS")], f"claims {got}")

    return Request("claim", ["verify-paper", "--only", claim], check, 60.0)


def _rank(names, env, n: int) -> int:
    rank = 0
    for v in names:
        rank = rank * n + env[v]
    return rank


def _check_variety(table, valid: bool):
    """`check --variety aragb` on `table`, known valid or known corrupted."""
    n = len(table)

    def check(code, out, err):
        doc = _doc(code, out, err, 0 if valid else 1)
        need(doc["order"] == n and doc["holds"] is valid, f"holds {doc['holds']}")
        reports = doc["identities"]
        need([model.parse_identity(r["identity"]) for r in reports] == list(ARAGB),
             "identities are not the ARAGB laws")
        for r, identity in zip(reports, ARAGB):
            names = model.variables(identity)
            if r["holds"]:
                need(r["counterexample"] is None, "counterexample on a pass")
                need(r["assignments"] == n ** len(names),
                     f"{r['identity']}: {r['assignments']} assignments")
                continue
            env = r["counterexample"]
            need(model.violates(identity, table, env),
                 f"{r['identity']}: {env} is no counterexample")
            need(r["assignments"] == _rank(names, env, n) + 1,
                 f"{r['identity']}: assignments {r['assignments']} is not "
                 "the counterexample's rank + 1")
        # a changed cell (i, j) always breaks (ij)i = j at x = i, y = j
        need(reports[2]["holds"] is valid, "anti-rectangular verdict is wrong")

    return check


def _check_map(source, target, anti: bool):
    def check(code, out, err):
        doc = _doc(code, out, err)
        need(doc["kind"] == ("ANTI_ISO" if anti else "ISO"), f"kind {doc['kind']}")
        need(model.maps_homomorphically(doc["images"], source, target, anti),
             "images do not re-verify over all pairs")

    return check


def _check_refused(marker: str):
    def check(code, out, err):
        need(code == 1, f"exit {code}, expected 1")
        need(marker in err, f"stderr lacks {marker!r}: {err.strip()[-300:]}")

    return check


def _check_gcopies(table):
    n = len(table)

    def check(code, out, err):
        blocks = _doc(code, out, err)["blocks"]
        need(sorted(itertools.chain(*blocks)) == list(range(n)),
             "blocks do not partition the carrier")
        for block in blocks:
            sub = model.restriction(table, sorted(block))
            need(len(block) == 4 and sub is not None, f"block {block} not closed")
            need(model.canonical(sub) == model.G_CANONICAL,
                 f"block {block} is not a copy of the order-4 model")

    return check


def _check_models(count: int, laws):
    def check(code, out, err):
        doc = _doc(code, out, err)
        tables = [_table(m) for m in doc["models"]]
        need(doc["count"] == count == len(tables), f"{doc['count']} classes")
        for t in tables:
            need(all(model.holds_everywhere(law, t) for law in laws),
                 f"model {t} fails a law")
        need(len({model.canonical(t) for t in tables}) == count,
             "two models are isomorphic")

    return check


# ---------------------------------------------------------------------------
# workloads


def paper(seed: int, work: Path) -> list[Request]:
    return with_floor([Request("verify_paper", ["verify-paper", "--format", "json"],
                               _check_paper, 90.0)], 4)


def tables(seed: int, work: Path) -> list[Request]:
    rng = random.Random(seed)
    levels = model.tower_levels(4)
    l2, l3, l4 = levels[2], levels[3], levels[4]
    level2 = _write(work, "level2.json", l2)
    level4 = _write(work, "level4.json", l4)
    inputs = {}
    for name in ("check", "iso", "anti", "canonical"):
        inputs[name] = model.shuffled(l4, rng)
    # any one-cell change, one that shows at the fixed-point filter, and one
    # at order 16 that only the search itself can refute
    inputs["corrupt"] = model.corrupted(model.shuffled(l4, rng), rng)
    inputs["filtered"] = model.corrupted(model.shuffled(l4, rng), rng, False)
    inputs["searched"] = model.corrupted(model.shuffled(l2, rng), rng, True)
    files = {name: _write(work, f"{name}.json", t) for name, t in inputs.items()}
    requests = [
        Request("check", ["check", "--variety", "aragb", files["check"]],
                _check_variety(inputs["check"], True)),
        Request("check_fail", ["check", "--variety", "aragb", files["corrupt"]],
                _check_variety(inputs["corrupt"], False)),
        Request("iso", ["iso", files["iso"], level4],
                _check_map(inputs["iso"], l4, False)),
        Request("iso", ["iso", "--anti", files["anti"], level4],
                _check_map(inputs["anti"], l4, True)),
        Request("iso_miss", ["iso", files["filtered"], level4],
                _check_refused("NOT_FOUND")),
        Request("iso_miss", ["iso", "--anti", files["searched"], level2],
                _check_refused("NOT_FOUND")),
        Request("canonical_iso", ["canonical-iso", files["canonical"]],
                _check_map(inputs["canonical"], l4, False)),
        Request("canonical_fail", ["canonical-iso", files["corrupt"]],
                _check_refused("violates")),
    ]
    for k in range(GCOPIES_LABELLINGS):
        t = model.shuffled(l3, random.Random(k))
        path = _write(work, f"gcopies{k}.json", t)
        requests.append(Request("gcopies", ["decompose", "gcopies", path],
                                _check_gcopies(t)))
    return with_floor(requests, 8)


def enumerate_(seed: int, work: Path) -> list[Request]:
    return with_floor([
        Request("models_ag4", ["models", "--variety", "ag", "--order", "4"],
                _check_models(331, [LEFT_INVERTIVE]), 90.0),
        Request("models_band5", ["models", "--variety", "band", "--order", "5"],
                _check_models(18, [LEFT_INVERTIVE, IDEMPOTENT]), 90.0),
    ], 8)


def tower(seed: int, work: Path) -> list[Request]:
    rng = random.Random(seed)
    l4 = model.tower_levels(4)[4]
    q = len(l4)
    built = {}  # the level-5 table of this pass, for the later checks

    def check_gn5(code, out, err):
        built.clear()
        doc = _doc(code, out, err)
        t = _table(doc)
        need(len(t) == 4 * q, f"order {len(t)}")
        need(all(t[i][:q] == l4[i] for i in range(q)),
             "not prefix-compatible with level 4")
        spots = random.Random(seed)
        for _ in range(4096):
            i, j = spots.randrange(4 * q), spots.randrange(4 * q)
            need(t[i][j] == model.next_level_cell(l4, i, j), f"cell ({i}, {j})")
        built["table"], built["labels"] = t, doc["labels"]

    def check_j4(code, out, err):
        doc = _doc(code, out, err)
        index = {label: k for k, label in enumerate(built["labels"])}
        carrier = sorted(index[label] for label in doc["labels"])
        need(len(carrier) == q and {0, 12, 48, 192, 768} <= set(carrier),
             "carrier is not generated by 0 and the adjoined generators")
        need(model.restriction(built["table"], carrier) == _table(doc),
             "not the restriction of level 5 to its carrier")

    def check_extension(code, out, err):
        doc = _doc(code, out, err)
        need(doc["blocks"] == [list(range(b * q, (b + 1) * q)) for b in range(4)],
             "blocks are not the quarters")
        quotient = _table(doc["quotient"])
        need(model.canonical(quotient) == model.G_CANONICAL,
             "quotient is not the order-4 model")
        t = built["table"]
        for u in range(4 * q):
            row, qrow = t[u], quotient[u // q]
            need(all(row[v] // q == qrow[v // q] for v in range(4 * q)),
                 f"row {u} leaves its quotient blocks")

    def limit_product(i: int, j: int) -> Request:
        def check(code, out, err):
            doc = _doc(code, out, err)
            need(doc["product"] == model.next_level_cell(l4, i, j)
                 == built["table"][i][j], f"product of {i} and {j}")

        return Request("limit_product", ["limit-product", str(i), str(j)],
                       check, 90.0)

    return with_floor([
        Request("build_gn5", ["build", "gn", "--n", "5"], check_gn5, 90.0),
        Request("build_j4", ["build", "j", "--n", "4"], check_j4, 90.0),
        Request("extension5", ["decompose", "extension", "--n", "5"],
                check_extension, 90.0),
        limit_product(rng.randrange(q, 4 * q), rng.randrange(4 * q)),
    ], 8)


WORKLOADS = {
    "paper": paper,
    "tables": tables,
    "enumerate": enumerate_,
    "tower": tower,
}

# Metric name, scale and unit for the median time of each request kind.
KIND_METRICS = {
    "floor": ("cli_floor_ms", 1e3, "ms"),
    "verify_paper": ("verify_paper_s", 1.0, "s"),
    "check": ("check_ms", 1e3, "ms"),
    "check_fail": ("check_fail_ms", 1e3, "ms"),
    "iso": ("iso_ms", 1e3, "ms"),
    "iso_miss": ("iso_miss_ms", 1e3, "ms"),
    "canonical_iso": ("canonical_iso_ms", 1e3, "ms"),
    "canonical_fail": ("canonical_fail_ms", 1e3, "ms"),
    "gcopies": ("gcopies_ms", 1e3, "ms"),
    "models_ag4": ("models_ag4_s", 1.0, "s"),
    "models_band5": ("models_band5_s", 1.0, "s"),
    "build_gn5": ("build_gn5_s", 1.0, "s"),
    "build_j4": ("build_j4_s", 1.0, "s"),
    "extension5": ("extension5_s", 1.0, "s"),
    "limit_product": ("limit_product_ms", 1e3, "ms"),
}
