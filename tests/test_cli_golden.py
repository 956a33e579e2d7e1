"""Whole CLI outputs, byte for byte: every subcommand in both formats on
small inputs, and the refusals, against ``tests/golden/cli.json``.

``tests/golden/cli.json`` and ``tests/golden/verify-paper.json`` (checked
in ``tests/test_cli.py``) are the output spec of the CLI and of
``verify-paper``.  ``tests/test_cli.py`` checks what a case here cannot
pin: the process exit, stdin, malformed input and emitted files.

The golden file maps each command line, as ``shlex.split`` reads it, to
its exit code, stdout and stderr.  Only the wall-clock ``seconds`` of ``models`` is masked.
Rewrite it, on purpose only, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import random
import re
import shlex
from pathlib import Path

import pytest

from agband.cli import run
from agband.construct import gbar_derived, standard_g, tower_level
from agband.groupoid import FiniteGroupoid, to_json

GOLDEN = Path(__file__).with_name("golden") / "cli.json"


def _shuffled(g, seed):
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def _corrupted(g):
    table = [list(row) for row in g.table]
    table[1][5] = (table[1][5] + 1) % g.order
    return FiniteGroupoid(table, g.labels)


INPUTS = {
    "g.json": standard_g,
    "l2.json": lambda: tower_level(2),
    "l2r.json": lambda: _shuffled(tower_level(2), 0),
    "l2op.json": lambda: _shuffled(tower_level(2).opposite(), 1),
    "l2bad.json": lambda: _corrupted(tower_level(2)),
    "gbar.json": gbar_derived,
    "five.json": lambda: FiniteGroupoid([[i] * 5 for i in range(5)]),
}

QUARTERS = json.dumps([list(range(4 * b, 4 * b + 4)) for b in range(4)])

# each runs with --format json and with --format text
BOTH_FORMATS = [
    "build g",
    "build gn --n 2",
    "build gbar",
    "build gbar --from-table3",
    "build j --n 2",
    "check g.json",
    "check l2r.json",
    "check l2bad.json",
    "check gbar.json --variety ag",
    "check g.json --law '(xy)z = (zy)x' --law 'xx = x'",
    "check missing.json",
    "iso l2.json l2r.json",
    "iso l2.json l2op.json --anti",
    "iso l2.json l2op.json",
    "iso g.json l2.json",
    "classify-bijections g.json",
    "classify-bijections l2.json",
    "canonical-iso g.json",
    "canonical-iso g.json --enumeration 3,1,2,0",
    "canonical-iso l2r.json",
    "canonical-iso l2op.json",
    "canonical-iso l2bad.json",
    "canonical-iso five.json",
    f"decompose blocks gbar.json --partition '{QUARTERS}'",
    f"decompose blocks l2.json --partition '{QUARTERS}'",
    "decompose blocks g.json --partition '[[0, 1], [2, 3]]'",
    "decompose gcopies g.json",
    "decompose gcopies l2r.json",
    "decompose gcopies gbar.json",
    "decompose extension --n 1",
    "decompose extension --n 2",
    "spectrum --max-order 4",
    "spectrum --variety band --max-order 2 --oracle",
    "models --order 4",
    "models --variety band --order 3",
    "models --order 4 --emit out",
    "diff l2.json l2bad.json",
    "diff g.json g.json",
    "limit-product 5 6",
    "limit-product 1023 1023",
    "limit-product 1024 0",
    "verify-paper --only table-3",
    "verify-paper --only result-4,example-1",
    "verify-paper --only ,",
    "verify-paper --only nosuch",
]

CASES = [f"{argv} --format {fmt}" for argv in BOTH_FORMATS
         for fmt in ("json", "text")] + [
    "build --format text g",
    "decompose --format json extension --n 2",
]


def _mask(argv: list[str], out: str) -> str:
    if argv[0] != "models":
        return out
    out = re.sub(r'"seconds": [0-9.e+-]+', '"seconds": 0', out)
    return re.sub(r"nodes, [0-9.]+s\)", "nodes, 0s)", out)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout": _mask(argv, out.getvalue()),
            "stderr": err.getvalue()}


def _write_inputs(directory: Path) -> None:
    for name, build in INPUTS.items():
        (directory / name).write_text(to_json(build()), encoding="utf-8")


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-golden")
    _write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_the_golden_file(case, golden, inputs_dir,
                                            monkeypatch):
    monkeypatch.chdir(inputs_dir)
    assert _run(shlex.split(case)) == golden[case]


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write_inputs(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            doc = {case: _run(shlex.split(case)) for case in CASES}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
