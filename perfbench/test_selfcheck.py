"""Self-check of the benchmark: two traced runs with one seed count the same
work.

    python3 -m pytest perfbench/test_selfcheck.py

Each case makes two real traced runs of one workload, about a minute in
all, so the file lives with the benchmark rather than in the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COUNTS = (
    "laws.assignments", "search.nodes", "search.propagation_failures",
    "decompose.copies_tried", "morphisms.verified_cells",
    "groupoid.cells_validated", "search.relabelings",
)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["paper", "tables", "enumerate", "tower"])
def test_traced_counts_repeat(workload):
    first, second = traced_run(workload, 11), traced_run(workload, 11)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
