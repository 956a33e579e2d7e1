"""Command-line front end.

Thin adapters over the library: every subcommand reads Cayley JSON
(`{"order", "labels", "table"}`), calls one library entry point, and prints
JSON (default) or a human-readable text view (`--format text`).

Exit codes: 0 success / all checks pass, 1 mathematical failure (an
identity fails, no isomorphism exists, tables differ, a claim fails),
2 usage error (bad arguments, unreadable input, out-of-envelope request).
A closed stdout ends the process quietly by SIGPIPE, as it ends ``cat``.
``main`` ends the process once the output is flushed, unless a tracer or
profiler is installed; ``run`` returns, so its callers shut down normally.

Each call runs only the modules its subcommand uses: `construct`, `laws`,
`morphisms`, `decompose`, `search` and `verify` are in sys.modules once this
module is imported, but each runs on first use, and so does `commands`, which
holds every handler but those of `build` and `limit-product`.  The parser
names a handler there, and `run` looks it up only to call it, so `build g`
runs this module, `groupoid` and `errors` alone.
"""

from __future__ import annotations

import argparse
import atexit
import importlib.util
import json
import os
import signal
import sys

from .errors import (
    ClosureError,
    ResourceLimitError,
    SearchInvariantError,
    VarietyError,
)
from .groupoid import render_text, standard_g, to_json


def _lazy(name: str):
    """``agband.<name>``: the module in sys.modules, or one put there now to
    run on its first attribute access (the importlib.util.LazyLoader recipe),
    bound on the package either way, as an import binds it."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# all of them registered here, though only `construct` and `commands` are
# called from this module: the tracer looks each up in sys.modules once this
# module is imported, and `commands` binds the others without running them
construct = _lazy("construct")
laws = _lazy("laws")
morphisms = _lazy("morphisms")
decompose = _lazy("decompose")
search = _lazy("search")
verify = _lazy("verify")
commands = _lazy("commands")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    if args.what == "g":
        g = standard_g()
    elif args.what == "gn":
        g = construct.tower_level(args.n)
    elif args.what == "gbar":
        g = (construct.gbar_table3() if args.from_table3
             else construct.gbar_derived())
    else:
        g = construct.j_subband(args.n)
    print(render_text(g) if args.format == "text" else to_json(g))
    return 0


def _cmd_limit_product(args) -> int:
    product = construct.limit_product(args.i, args.j)
    if args.format == "text":
        print(product)
    else:
        print(json.dumps({"i": args.i, "j": args.j, "product": product},
                         indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


class _FormatBeforeMode(argparse.Action):
    """``--format`` ahead of a group's mode would be read as the mode; name
    the option and where it goes instead."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the mode, as in "
                     f"'{parser.prog} <mode> ... --format {values}'")


_COMMANDS = (
    "build", "check", "iso", "classify-bijections", "canonical-iso",
    "decompose", "spectrum", "models", "diff", "limit-product", "verify-paper",
)


def _only(argv, depth: int, names: tuple[str, ...]) -> tuple[str, ...]:
    """Of ``names``, the one ``argv[depth]`` is, or all of them."""
    if argv is not None and argv[depth:depth + 1] and argv[depth] in names:
        return (argv[depth],)
    return names


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The full parser; given ``argv``, one that builds only the subcommand
    ``argv`` names and, in the build and decompose groups, only the mode it
    names, so that one call builds one subparser.  Either prints the same
    usage, help and error texts for ``argv``."""
    parser = argparse.ArgumentParser(
        prog="agband",
        description=(
            "Build, check and dissect the order-quadrupling family of "
            "anti-rectangular bands."
        ),
    )
    want = _only(argv, 0, _COMMANDS)
    # the top usage line lists every subcommand, built or not; with all of
    # them built the metavar stays unset, so a missing one is "command"
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if len(want) == 1 else None,
    )

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output rendering (default json)",
    )

    if "build" in want:
        p = sub.add_parser("build", help="emit a built-in table")
        p.add_argument("--format", action=_FormatBeforeMode, help=argparse.SUPPRESS)
        p.set_defaults(func=_cmd_build)
        bsub = p.add_subparsers(dest="what", required=True)
        modes = _only(argv, 1, ("g", "gn", "gbar", "j"))
        if "g" in modes:
            bsub.add_parser("g", parents=[fmt], help="the order-4 model")
        if "gn" in modes:
            b = bsub.add_parser("gn", parents=[fmt], help="tower level n (order 4^n)")
            b.add_argument("--n", type=int, required=True)
        if "gbar" in modes:
            b = bsub.add_parser("gbar", parents=[fmt], help="the order-16 counterexample")
            b.add_argument(
                "--from-table3", action="store_true", dest="from_table3",
                help="use the transcribed fixture instead of the derived table",
            )
        if "j" in modes:
            b = bsub.add_parser("j", parents=[fmt], help="the inner self-copy J_n")
            b.add_argument("--n", type=int, required=True)

    if "check" in want:
        p = sub.add_parser("check", parents=[fmt], help="check identities on a table")
        p.add_argument("input", nargs="?", default="-", help="Cayley JSON file or -")
        # no default, so that an explicit --variety always conflicts with --law
        choice = p.add_mutually_exclusive_group()
        choice.add_argument("--variety", help="preset name (default aragb)")
        choice.add_argument(
            "--law", action="append", default=[],
            help="inline identity, e.g. '(xy)z = (zy)x' (repeatable)",
        )
        p.set_defaults(func="cmd_check")

    if "iso" in want:
        p = sub.add_parser("iso", parents=[fmt], help="find an (anti)isomorphism")
        p.add_argument("source")
        p.add_argument("target")
        p.add_argument("--anti", action="store_true")
        p.set_defaults(func="cmd_iso")

    if "classify-bijections" in want:
        p = sub.add_parser(
            "classify-bijections", parents=[fmt],
            help="classify every self-bijection",
        )
        p.add_argument("input")
        p.set_defaults(func="cmd_classify_bijections")

    if "canonical-iso" in want:
        p = sub.add_parser(
            "canonical-iso", parents=[fmt],
            help="stagewise isomorphism onto the tower level of equal order",
        )
        p.add_argument("input")
        p.add_argument(
            "--enumeration", default=None,
            help="comma-separated element order, e.g. 3,1,2,0",
        )
        p.set_defaults(func="cmd_canonical_iso")

    if "decompose" in want:
        p = sub.add_parser("decompose", help="band decompositions")
        p.add_argument("--format", action=_FormatBeforeMode, help=argparse.SUPPRESS)
        p.set_defaults(func="cmd_decompose")
        dsub = p.add_subparsers(dest="mode", required=True)
        modes = _only(argv, 1, ("blocks", "gcopies", "extension"))
        if "blocks" in modes:
            d = dsub.add_parser("blocks", parents=[fmt], help="check a partition")
            d.add_argument("input")
            d.add_argument("--partition", required=True, help="JSON list of blocks")
        if "gcopies" in modes:
            d = dsub.add_parser("gcopies", parents=[fmt], help="split into order-4 copies")
            d.add_argument("input")
        if "extension" in modes:
            d = dsub.add_parser("extension", parents=[fmt], help="quarters of level n")
            d.add_argument("--n", type=int, required=True)

    if "spectrum" in want:
        p = sub.add_parser("spectrum", parents=[fmt], help="model counts by order")
        p.add_argument("--variety", default="aragb")
        p.add_argument("--max-order", type=int, required=True, dest="max_order")
        p.add_argument(
            "--oracle", action="store_true",
            help="cross-check counts against the oracle where it applies",
        )
        p.set_defaults(func="cmd_spectrum")

    if "models" in want:
        p = sub.add_parser("models", parents=[fmt], help="enumerate models")
        p.add_argument("--variety", default="aragb")
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--limit", type=int, default=None)
        p.add_argument("--emit", default=None, help="directory for model files")
        p.set_defaults(func="cmd_models")

    if "diff" in want:
        p = sub.add_parser("diff", parents=[fmt], help="cell-by-cell table diff")
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(func="cmd_diff")

    if "limit-product" in want:
        p = sub.add_parser(
            "limit-product", parents=[fmt],
            help="product of two indices in the union of all levels",
        )
        p.add_argument("i", type=int)
        p.add_argument("j", type=int)
        p.set_defaults(func=_cmd_limit_product)

    if "verify-paper" in want:
        p = sub.add_parser(
            "verify-paper", parents=[fmt],
            help="replay the numbered claims as a checklist",
        )
        p.add_argument(
            "--only", action="append", default=[],
            help="claim id (repeatable or comma-separated)",
        )
        p.set_defaults(func="cmd_verify_paper")

    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code instead of raising SystemExit."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    func = args.func
    if isinstance(func, str):  # named: commands runs on its first lookup
        func = getattr(commands, func)
    try:
        return func(args)
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
    code = run()
    if sys.gettrace() is None and sys.getprofile() is None:
        # What the interpreter's shutdown does that can change what a user
        # sees, in its order: at-exit callbacks, then flushing the standard
        # streams.  The rest frees memory.  No thread is running, and every
        # file written was closed by its ``with``.
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass  # the interpreter reports it, as it does at exit
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    main()
