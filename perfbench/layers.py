"""Per-layer metrics from the span files the tracer writes, one per request.

A span's self time is its duration minus the durations of its direct
children.  Law checks run inside other layers as guards (extend, canonical
iso, the g-copy partition) and as leaf checks (model search), so several
metrics below subtract the law time spent under a span.
"""

from __future__ import annotations

import statistics

from tracer import MODULES

GUARD_CALLERS = {"construct", "morphisms", "decompose"}


def request_sums(doc) -> dict:
    """Raw sums over the spans of one request."""
    names = doc["names"]
    name = [names[k] for k in doc["name"]]
    module = [n.split(".", 1)[0] for n in name]
    parent, info = doc["parent"], doc["info"]
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    below = [0.0] * len(dur)  # summed durations of direct children
    laws_below = [0.0] * len(dur)  # law time anywhere under the span
    for k, p in enumerate(parent):
        if p >= 0:
            below[p] += dur[k]
    s = dict.fromkeys(
        ("from_json_s", "cells_parsed", "construct_s", "cells_validated",
         "span_calls", "span_s", "laws_s", "check_calls", "assignments",
         "check_identity_s", "guard_s", "extend_s", "cells_built",
         "iso_search_s", "iso_calls", "iso_found", "canonical_iso_s",
         "verified_cells", "gcopies_s", "copies_tried", "blocks",
         "enumerate_s", "nodes", "failures", "classes", "leaves",
         "canonical_s", "relabelings", "leaf_check_s", "claims_s"),
        0,
    )
    for m in MODULES:
        s[f"self.{m}"] = 0.0
    s["startup_s"] = doc["imported"] - doc["spawned"]
    for k, p in enumerate(parent):
        s[f"self.{module[k]}"] += dur[k] - below[k]
        if module[k] == "laws" and (p < 0 or module[p] != "laws"):
            s["laws_s"] += dur[k]
            if p >= 0 and module[p] in GUARD_CALLERS:
                s["guard_s"] += dur[k]
            q = p
            while q >= 0:
                laws_below[q] += dur[k]
                q = parent[q]
    for k, p in enumerate(parent):
        n, d = name[k], dur[k]
        pname = name[p] if p >= 0 else ""
        if n == "groupoid.from_json":
            s["from_json_s"] += d - below[k]
            s["cells_parsed"] += info[k] or 0
        elif n == "groupoid.FiniteGroupoid.__init__":
            s["construct_s"] += d
            s["cells_validated"] += info[k] or 0
        elif n == "groupoid.FiniteGroupoid.generated_subgroupoid":
            s["span_calls"] += 1
            s["span_s"] += d
            if pname == "decompose.g_copy_partition":
                s["copies_tried"] += 1
        elif n == "laws.check_identity":
            s["check_calls"] += 1
            s["assignments"] += info[k] or 0
            s["check_identity_s"] += d
        elif n == "laws.check_variety" and pname == "search.enumerate_models":
            s["leaves"] += 1
        elif n == "construct.extend":
            s["extend_s"] += d - laws_below[k]
            s["cells_built"] += info[k] or 0
        elif n == "morphisms.iso_search":
            s["iso_calls"] += 1
            s["iso_found"] += info[k] or 0
            s["iso_search_s"] += d
        elif n == "morphisms.canonical_iso":
            s["canonical_iso_s"] += d - laws_below[k]
        elif n == "morphisms.classify_mapping":
            s["verified_cells"] += info[k] or 0
        elif n == "decompose.g_copy_partition":
            s["gcopies_s"] += d - laws_below[k]
            s["blocks"] += info[k] or 0
        elif n == "search.enumerate_models":
            s["enumerate_s"] += d - below[k]
            s["leaf_check_s"] += laws_below[k]
            if info[k] is not None:
                s["nodes"] += info[k][0]
                s["failures"] += info[k][1]
                s["classes"] += info[k][2]
        elif n == "search.canonical_table":
            s["canonical_s"] += d
            s["relabelings"] += info[k] or 0
        elif n == "verify.run_claims":
            s["claims_s"] += d
    return s


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(sums: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from its requests' sums."""
    t = {key: sum(s[key] for s in sums) for key in sums[0]}
    busy = sum(t[f"self.{m}"] for m in MODULES)
    out = {
        "cli.startup_ms": statistics.median(s["startup_s"] for s in sums) * 1e3,
        "cli.self_s": t["self.cli"],
        "groupoid.from_json_s": t["from_json_s"],
        "groupoid.cells_parsed": t["cells_parsed"],
        "groupoid.construct_s": t["construct_s"],
        "groupoid.cells_validated": t["cells_validated"],
        "groupoid.span_calls": t["span_calls"],
        "groupoid.span_s": t["span_s"],
        "laws.check_s": t["laws_s"],
        "laws.check_calls": t["check_calls"],
        "laws.assignments": t["assignments"],
        "laws.ns_per_assignment": _ratio(t["check_identity_s"], t["assignments"]) * 1e9,
        "laws.guard_s": t["guard_s"],
        "construct.extend_s": t["extend_s"],
        "construct.cells_built": t["cells_built"],
        "morphisms.iso_search_s": t["iso_search_s"],
        "morphisms.iso_search_calls": t["iso_calls"],
        "morphisms.iso_found_ratio": _ratio(t["iso_found"], t["iso_calls"]),
        "morphisms.canonical_iso_s": t["canonical_iso_s"],
        "morphisms.verified_cells": t["verified_cells"],
        "decompose.gcopies_s": t["gcopies_s"],
        "decompose.copies_tried": t["copies_tried"],
        "decompose.placement_ratio": _ratio(t["blocks"], t["copies_tried"]),
        "search.enumerate_s": t["enumerate_s"],
        "search.nodes": t["nodes"],
        "search.propagation_failures": t["failures"],
        "search.failure_ratio": _ratio(t["failures"], t["nodes"]),
        "search.us_per_node": _ratio(t["enumerate_s"], t["nodes"]) * 1e6,
        "search.canonical_s": t["canonical_s"],
        "search.relabelings": t["relabelings"],
        "search.class_ratio": _ratio(t["classes"], t["leaves"]),
        "search.leaf_check_s": t["leaf_check_s"],
    }
    for m in MODULES:
        out[f"{m}.share"] = _ratio(t[f"self.{m}"], busy)
    return out


# Unit of each per-layer metric; pass_metrics gives all but the claim times
# and the overhead ratio, which the runner adds.
COUNTS = {
    "groupoid.cells_parsed", "groupoid.cells_validated", "groupoid.span_calls",
    "laws.check_calls", "laws.assignments", "construct.cells_built",
    "morphisms.iso_search_calls", "morphisms.verified_cells",
    "decompose.copies_tried", "search.nodes", "search.propagation_failures",
    "search.relabelings",
}
RATES = {"laws.ns_per_assignment": "ns", "search.us_per_node": "us"}


def unit(metric: str) -> str:
    if metric in COUNTS:
        return "count"
    if metric.endswith(("_ratio", ".share")):
        return "ratio"
    return RATES.get(metric) or metric.rsplit("_", 1)[1]  # "s" or "ms"
