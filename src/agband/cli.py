"""Command-line front end.

Thin adapters over the library: every subcommand reads Cayley JSON
(`{"order", "labels", "table"}`), calls one library entry point, and prints
JSON (default) or a human-readable text view (`--format text`).

Exit codes: 0 success / all checks pass, 1 mathematical failure (an
identity fails, no isomorphism exists, tables differ, a claim fails),
2 usage error (bad arguments, unreadable input, out-of-envelope request).
A closed stdout ends the process quietly by SIGPIPE, as it ends ``cat``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import asdict

from .construct import (
    diff_tables,
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
    extension_block_decomposition,
    g_copy_partition,
)
from .errors import (
    ClosureError,
    ResourceLimitError,
    SearchInvariantError,
    VarietyError,
)
from .groupoid import FiniteGroupoid, from_json, render_text, to_doc, to_json
from .laws import VarietySpec, check_variety, get_variety, parse_identity
from .morphisms import canonical_iso, classify_all_bijections, iso_search, verified
from .search import brute_force_oracle, enumerate_models, spectrum_scan
from .verify import run_claims


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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    if args.what == "g":
        g = standard_g()
    elif args.what == "gn":
        g = tower_level(args.n)
    elif args.what == "gbar":
        g = gbar_table3() if args.from_table3 else gbar_derived()
    else:
        g = j_subband(args.n)
    print(render_text(g) if args.format == "text" else to_json(g))
    return 0


def _cmd_check(args) -> int:
    g = _read_groupoid(args.input)
    if args.law:
        spec = VarietySpec(
            "custom", tuple(parse_identity(text) for text in args.law)
        )
    else:
        spec = get_variety(args.variety or "aragb")
    report = check_variety(g, spec)
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
                {**asdict(r), "identity": str(r.identity)}
                for r in report.reports
            ],
        })
    return 0 if report.holds else 1


def _cmd_iso(args) -> int:
    src = _read_groupoid(args.source)
    dst = _read_groupoid(args.target)
    mapping = iso_search(src.opposite() if args.anti else src, dst)
    if mapping is None:
        kind = "anti-isomorphism" if args.anti else "isomorphism"
        print(f"NOT_FOUND: no {kind} exists", file=sys.stderr)
        return 1
    if args.anti:
        mapping = verified(mapping.images, src, dst)
    _print_mapping(mapping, src.labels, dst.labels, args.format)
    return 0


def _cmd_classify_bijections(args) -> int:
    g = _read_groupoid(args.input)
    census = classify_all_bijections(g)
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


def _cmd_canonical_iso(args) -> int:
    g = _read_groupoid(args.input)
    enumeration = None
    if args.enumeration:
        enumeration = tuple(
            int(part) for part in args.enumeration.split(",") if part != ""
        )
    mapping = canonical_iso(g, enumeration)
    _print_mapping(mapping, g.labels, range(g.order), args.format)
    return 0


def _cmd_decompose(args) -> int:
    quotient = None
    if args.mode == "extension":
        dec = extension_block_decomposition(args.n)
        partition, quotient = dec.partition, dec.quotient
    elif args.mode == "gcopies":
        partition = g_copy_partition(_read_groupoid(args.input))
    else:
        g = _read_groupoid(args.input)
        blocks = json.loads(args.partition)
        if type(blocks) is not list or any(type(b) is not list for b in blocks):
            raise ValueError("--partition must be a JSON list of lists")
        outcome = check_band_decomposition(
            g, Partition(tuple(tuple(b) for b in blocks))
        )
        if not isinstance(outcome, BandDecomposition):
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


def _cmd_spectrum(args) -> int:
    v = get_variety(args.variety)
    scan = spectrum_scan(v, args.max_order)
    rows = []
    mismatch = False
    for order, count in scan:
        row = {"order": order, "count": count}
        if args.oracle:
            try:
                row["oracle"] = brute_force_oracle(order, v)
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


def _cmd_models(args) -> int:
    v = get_variety(args.variety)
    out = enumerate_models(args.order, v, args.limit)
    summary = {
        "order": out.order,
        "variety": out.variety,
        "count": out.count,
        "stats": asdict(out.stats),
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
    else:
        summary["models"] = [to_doc(g) for g in out.canonical_models]
    if args.format == "text":
        print(f"{out.variety} order {out.order}: {out.count} classes "
              f"({out.stats.nodes} nodes, {out.stats.seconds:.3f}s)")
        for g in out.canonical_models:
            print(render_text(g))
    else:
        _print_json(summary)
    return 0


def _cmd_diff(args) -> int:
    left = _read_groupoid(args.left)
    right = _read_groupoid(args.right)
    delta = diff_tables(left, right)
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


def _cmd_limit_product(args) -> int:
    product = limit_product(args.i, args.j)
    if args.format == "text":
        print(product)
    else:
        _print_json({"i": args.i, "j": args.j, "product": product})
    return 0


def _cmd_verify_paper(args) -> int:
    only = None
    if args.only:
        only = [
            claim
            for chunk in args.only
            for claim in chunk.split(",")
            if claim != ""
        ]
    report = run_claims(only)
    if args.format == "text":
        for r in report.results:
            print(f"{r.status:<7} {r.claim:<15} [{r.reference}] {r.detail}")
        print(f"overall: {report.overall}")
    else:
        _print_json({
            "overall": report.overall,
            "results": [asdict(r) for r in report.results],
        })
    return 0 if report.overall == "PASS" else 1


# ---------------------------------------------------------------------------
# parser


class _FormatBeforeMode(argparse.Action):
    """``--format`` ahead of a group's mode would be read as the mode; name
    the option and where it goes instead."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the mode, as in "
                     f"'{parser.prog} <mode> ... --format {values}'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agband",
        description=(
            "Build, check and dissect the order-quadrupling family of "
            "anti-rectangular bands."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output rendering (default json)",
    )

    p = sub.add_parser("build", help="emit a built-in table")
    p.add_argument("--format", action=_FormatBeforeMode, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_build)
    bsub = p.add_subparsers(dest="what", required=True)
    bsub.add_parser("g", parents=[fmt], help="the order-4 model")
    b = bsub.add_parser("gn", parents=[fmt], help="tower level n (order 4^n)")
    b.add_argument("--n", type=int, required=True)
    b = bsub.add_parser("gbar", parents=[fmt], help="the order-16 counterexample")
    b.add_argument(
        "--from-table3", action="store_true", dest="from_table3",
        help="use the transcribed fixture instead of the derived table",
    )
    b = bsub.add_parser("j", parents=[fmt], help="the inner self-copy J_n")
    b.add_argument("--n", type=int, required=True)

    p = sub.add_parser("check", parents=[fmt], help="check identities on a table")
    p.add_argument("input", nargs="?", default="-", help="Cayley JSON file or -")
    # no default, so that an explicit --variety always conflicts with --law
    laws = p.add_mutually_exclusive_group()
    laws.add_argument("--variety", help="preset name (default aragb)")
    laws.add_argument(
        "--law", action="append", default=[],
        help="inline identity, e.g. '(xy)z = (zy)x' (repeatable)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("iso", parents=[fmt], help="find an (anti)isomorphism")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--anti", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser(
        "classify-bijections", parents=[fmt],
        help="classify every self-bijection",
    )
    p.add_argument("input")
    p.set_defaults(func=_cmd_classify_bijections)

    p = sub.add_parser(
        "canonical-iso", parents=[fmt],
        help="stagewise isomorphism onto the tower level of equal order",
    )
    p.add_argument("input")
    p.add_argument(
        "--enumeration", default=None,
        help="comma-separated element order, e.g. 3,1,2,0",
    )
    p.set_defaults(func=_cmd_canonical_iso)

    p = sub.add_parser("decompose", help="band decompositions")
    p.add_argument("--format", action=_FormatBeforeMode, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_decompose)
    dsub = p.add_subparsers(dest="mode", required=True)
    d = dsub.add_parser("blocks", parents=[fmt], help="check a partition")
    d.add_argument("input")
    d.add_argument("--partition", required=True, help="JSON list of blocks")
    d = dsub.add_parser("gcopies", parents=[fmt], help="split into order-4 copies")
    d.add_argument("input")
    d = dsub.add_parser("extension", parents=[fmt], help="quarters of level n")
    d.add_argument("--n", type=int, required=True)

    p = sub.add_parser("spectrum", parents=[fmt], help="model counts by order")
    p.add_argument("--variety", default="aragb")
    p.add_argument("--max-order", type=int, required=True, dest="max_order")
    p.add_argument(
        "--oracle", action="store_true",
        help="cross-check counts against the oracle where it applies",
    )
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("models", parents=[fmt], help="enumerate models")
    p.add_argument("--variety", default="aragb")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--emit", default=None, help="directory for model files")
    p.set_defaults(func=_cmd_models)

    p = sub.add_parser("diff", parents=[fmt], help="cell-by-cell table diff")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "limit-product", parents=[fmt],
        help="product of two indices in the union of all levels",
    )
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(func=_cmd_limit_product)

    p = sub.add_parser(
        "verify-paper", parents=[fmt],
        help="replay the numbered claims as a checklist",
    )
    p.add_argument(
        "--only", action="append", default=[],
        help="claim id (repeatable or comma-separated)",
    )
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (VarietyError, ClosureError, SearchInvariantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ResourceLimitError, ValueError, LookupError, OSError) as e:
        # ParseError and JSON decoding errors are ValueErrors; unknown
        # presets and out-of-range indices are LookupErrors
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
