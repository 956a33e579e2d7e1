"""The subcommands that read tables or run the law, morphism,
decomposition, search and claim modules: one ``cmd_<name>`` per subcommand,
which the CLI looks up by name when it dispatches, so that building the
parser runs none of this.
"""

from __future__ import annotations

import json
import os
import sys

from . import construct, decompose, laws, morphisms, search, verify
from .errors import ResourceLimitError
from .groupoid import FiniteGroupoid, from_json, render_text, to_doc, to_json


def _read_groupoid(path: str) -> FiniteGroupoid:
    if path == "-":
        return from_json(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _print_mapping(mapping, src_names, dst_names, fmt: str) -> None:
    if fmt == "text":
        for name, image in zip(src_names, mapping.images):
            print(f"{name} -> {dst_names[image]}")
        print(f"kind: {mapping.kind.value}")
    else:
        _print_json({"images": mapping.images, "kind": mapping.kind.value})


def cmd_check(args) -> int:
    g = _read_groupoid(args.input)
    if args.law:
        spec = laws.VarietySpec(
            "custom", tuple(laws.parse_identity(text) for text in args.law)
        )
    else:
        spec = laws.get_variety(args.variety or "aragb")
    report = laws.check_variety(g, spec)
    if args.format == "text":
        for r in report.reports:
            verdict = "holds" if r.holds else f"fails at {r.counterexample}"
            print(f"{r.identity}: {verdict}")
        print(f"{spec.name} on order {g.order}: "
              + ("holds" if report.holds else "fails"))
    else:
        _print_json({
            "variety": spec.name,
            "order": g.order,
            "holds": report.holds,
            "identities": [
                {**r._asdict(), "identity": str(r.identity)}
                for r in report.reports
            ],
        })
    return 0 if report.holds else 1


def cmd_iso(args) -> int:
    src = _read_groupoid(args.source)
    dst = _read_groupoid(args.target)
    mapping = morphisms.iso_search(src.opposite() if args.anti else src, dst)
    if mapping is None:
        kind = "anti-isomorphism" if args.anti else "isomorphism"
        print(f"NOT_FOUND: no {kind} exists", file=sys.stderr)
        return 1
    if args.anti:
        mapping = morphisms.verified(mapping.images, src, dst)
    _print_mapping(mapping, src.labels, dst.labels, args.format)
    return 0


def cmd_classify_bijections(args) -> int:
    g = _read_groupoid(args.input)
    census = morphisms.classify_all_bijections(g)
    rows = [
        {"kind": kind.value, "cycle_type": ct, "count": count}
        for (kind, ct), count in sorted(
            census.by_cycle_type.items(),
            key=lambda item: (item[0][0].value, item[0][1]),
        )
    ]
    if args.format == "text":
        for kind, count in sorted(
            census.counts.items(), key=lambda kv: kv[0].value
        ):
            print(f"{kind.value}: {count}")
        for row in rows:
            ct = "+".join(str(c) for c in row["cycle_type"])
            print(f"  {row['kind']} cycle type {ct}: {row['count']}")
    else:
        _print_json(
            {
                "order": census.order,
                "total": census.total,
                "counts": {k.value: v for k, v in census.counts.items()},
                "by_cycle_type": rows,
            }
        )
    return 0


def cmd_canonical_iso(args) -> int:
    g = _read_groupoid(args.input)
    enumeration = None
    if args.enumeration:
        enumeration = tuple(
            int(part) for part in args.enumeration.split(",") if part != ""
        )
    mapping = morphisms.canonical_iso(g, enumeration)
    _print_mapping(mapping, g.labels, range(g.order), args.format)
    return 0


def cmd_decompose(args) -> int:
    quotient = None
    if args.mode == "extension":
        dec = decompose.extension_block_decomposition(args.n)
        partition, quotient = dec.partition, dec.quotient
    elif args.mode == "gcopies":
        partition = decompose.g_copy_partition(_read_groupoid(args.input))
    else:
        g = _read_groupoid(args.input)
        blocks = json.loads(args.partition)
        if type(blocks) is not list or any(type(b) is not list for b in blocks):
            raise ValueError("--partition must be a JSON list of lists")
        outcome = decompose.check_band_decomposition(
            g, decompose.Partition(tuple(tuple(b) for b in blocks))
        )
        if not isinstance(outcome, decompose.BandDecomposition):
            print(
                "NOT_A_DECOMPOSITION: products of blocks smear; witness "
                f"u={outcome.u}, v={outcome.v}, u'={outcome.u2}, "
                f"v'={outcome.v2}",
                file=sys.stderr,
            )
            return 1
        partition, quotient = outcome.partition, outcome.quotient
    if args.format == "text":
        for i, block in enumerate(partition.blocks):
            print(f"B{i}: {list(block)}")
        if quotient is not None:
            print(render_text(quotient))
    else:
        doc = {"blocks": partition.blocks}
        if quotient is not None:
            doc["quotient"] = to_doc(quotient)
        _print_json(doc)
    return 0


def cmd_spectrum(args) -> int:
    v = laws.get_variety(args.variety)
    scan = search.spectrum_scan(v, args.max_order)
    rows = []
    mismatch = False
    for order, count in scan:
        row = {"order": order, "count": count}
        if args.oracle:
            try:
                row["oracle"] = search.brute_force_oracle(order, v)
                if row["oracle"] != count:
                    mismatch = True
            except ResourceLimitError:
                row["oracle"] = None
        rows.append(row)
    if args.format == "text":
        for row in rows:
            suffix = ""
            if args.oracle:
                suffix = (
                    f"  oracle {row['oracle']}"
                    if row["oracle"] is not None
                    else "  oracle -"
                )
            print(f"order {row['order']}: {row['count']}{suffix}")
    else:
        _print_json({"variety": v.name, "spectrum": rows})
    if mismatch:
        print("oracle count disagrees with the search", file=sys.stderr)
        return 1
    return 0


def cmd_models(args) -> int:
    v = laws.get_variety(args.variety)
    out = search.enumerate_models(args.order, v, args.limit)
    summary = {
        "order": out.order,
        "variety": out.variety,
        "count": out.count,
        "stats": out.stats._asdict(),
    }
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        paths = []
        for k, g in enumerate(out.canonical_models):
            path = os.path.join(args.emit, f"model-{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(to_json(g) + "\n")
            paths.append(path)
        summary["models"] = paths
    if args.format == "text":
        print(f"{out.variety} order {out.order}: {out.count} classes "
              f"({out.stats.nodes} nodes, {out.stats.seconds:.3f}s)")
        for g in out.canonical_models:
            print(render_text(g))
    elif args.emit:
        _print_json(summary)
    else:
        # _print_json with the models as a last key, byte for byte: each
        # model is to_json one level deeper, so that json's pure-Python
        # indenting encoder never walks a table
        models = ",\n    ".join(to_json(g).replace("\n", "\n    ")
                                for g in out.canonical_models)
        print(json.dumps(summary, indent=2)[:-2] + ',\n  "models": '
              + ("[\n    " + models + "\n  ]" if models else "[]") + "\n}")
    return 0


def cmd_diff(args) -> int:
    left = _read_groupoid(args.left)
    right = _read_groupoid(args.right)
    delta = construct.diff_tables(left, right)
    rows = [
        {
            "row": i,
            "col": j,
            "row_label": left.labels[i],
            "col_label": left.labels[j],
            "left": a,
            "right": b,
        }
        for i, j, a, b in delta
    ]
    if args.format == "text":
        if not rows:
            print("tables match")
        for row in rows:
            print(
                f"({row['row']},{row['col']}) {row['row_label']}*"
                f"{row['col_label']}: {row['left']} vs {row['right']}"
            )
    else:
        _print_json(rows)
    return 1 if rows else 0


def cmd_verify_paper(args) -> int:
    only = None
    if args.only:
        only = [
            claim
            for chunk in args.only
            for claim in chunk.split(",")
            if claim != ""
        ]
    report = verify.run_claims(only)
    if args.format == "text":
        for r in report.results:
            print(f"{r.status:<7} {r.claim:<15} [{r.reference}] {r.detail}")
        print(f"overall: {report.overall}")
    else:
        _print_json({
            "overall": report.overall,
            "results": [r._asdict() for r in report.results],
        })
    return 0 if report.overall == "PASS" else 1
