"""Run one agband CLI request with a span around every public function.

    python3 tracer.py SPANS_OUT REQUEST_ID SPAWNED -- ARGV...

SPAWNED is the parent's time.perf_counter() just before it started this
process; on Linux that clock is shared by all processes, so the gap to the
end of `import agband.cli` is the request's start-up cost.  The tracer
wraps the public functions of each agband module, and the FiniteGroupoid
methods, then calls agband.cli.run(ARGV).  Spans stay in memory and are
written to SPANS_OUT as JSON when the request ends.

A module that did `from .laws import check_variety` holds its own binding
of the name, so every module's binding of a wrapped function is replaced,
or calls such as the variety guards would escape their spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

MODULES = (
    "cli", "groupoid", "laws", "construct", "morphisms", "decompose",
    "search", "verify",
)
GROUPOID_METHODS = (
    "__init__", "generated_subgroupoid", "opposite", "restrict", "relabel",
    "is_cancellative",
)

# What to record with a span besides its times: the work the call did.
INFO = {
    "groupoid.from_json": lambda args, r: r.order ** 2,
    "groupoid.FiniteGroupoid.__init__": lambda args, r: len(args[0].table) ** 2,
    "laws.check_identity": lambda args, r: r.assignments,
    "construct.extend": lambda args, r: r.order ** 2,
    "morphisms.iso_search": lambda args, r: int(r is not None),
    "morphisms.classify_mapping": (
        lambda args, r: args[1].order ** 2 if r.value in ("ISO", "ANTI_ISO") else 0
    ),
    "decompose.g_copy_partition": lambda args, r: len(r.blocks),
    "search.enumerate_models": (
        lambda args, r: [r.stats.nodes, r.stats.propagation_failures, r.count]
    ),
    "search.canonical_table": lambda args, r: math.factorial(len(args[0])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.info: list = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        info = INFO.get(name)
        clock = time.perf_counter
        stack, spans_name, spans_parent = self.stack, self.name, self.parent
        starts, ends, infos = self.start, self.end, self.info

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_parent.append(stack[-1])
            ends.append(0.0)
            infos.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if info is not None:
                infos[idx] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"agband.{short}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapped[id(value)] = self.wrap(f"{short}.{attr}", value)
        cls = sys.modules["agband.groupoid"].FiniteGroupoid
        for attr in GROUPOID_METHODS:
            setattr(cls, attr, self.wrap(f"groupoid.FiniteGroupoid.{attr}",
                                         vars(cls)[attr]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "agband" and not mod_name.startswith("agband."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(module, attr, wrapped[id(value)])

    def write(self, path: str, request: str, spawned: float, imported: float):
        doc = {
            "request": request,
            "spawned": spawned,
            "imported": imported,
            "names": self.names,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "info": self.info,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main() -> int:
    spans_out, request, spawned, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT REQUEST_ID SPAWNED -- ARGV...")
    import agband.cli

    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        return agband.cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_out, request, float(spawned), imported)


if __name__ == "__main__":
    sys.exit(main())
