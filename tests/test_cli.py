import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import agband
from agband.cli import run
from agband.construct import standard_g, tower_level
from agband.groupoid import to_json


@pytest.fixture
def g_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(to_json(standard_g()))
    return str(path)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_build_g_emits_cayley_json(capsys):
    assert run(["build", "g"]) == 0
    doc = out_json(capsys)
    assert doc["order"] == 4
    assert doc["labels"] == ["a", "b", "ab", "ba"]
    assert doc["table"][0][1] == 2


def test_build_gn_and_j_orders(capsys):
    assert run(["build", "gn", "--n", "2"]) == 0
    assert out_json(capsys)["order"] == 16
    assert run(["build", "j", "--n", "2"]) == 0
    assert out_json(capsys)["order"] == 16


def test_build_gbar_variants_differ_in_one_cell(capsys):
    assert run(["build", "gbar"]) == 0
    derived = out_json(capsys)["table"]
    assert run(["build", "gbar", "--from-table3"]) == 0
    transcribed = out_json(capsys)["table"]
    diffs = [
        (i, j)
        for i in range(16)
        for j in range(16)
        if derived[i][j] != transcribed[i][j]
    ]
    assert diffs == [(3, 10)]


def test_build_text_format_renders_a_table(capsys):
    assert run(["build", "g", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "ab" in out and "*" in out


@pytest.mark.parametrize("argv", [
    ["build", "--format", "text", "g"],
    ["decompose", "--format", "text", "extension", "--n", "2"],
])
def test_format_before_the_mode_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" in captured.err


def test_format_before_the_mode_names_the_option(fresh_python):
    for group, argv in (
        ("build", ["g"]),
        ("decompose", ["extension", "--n", "2"]),
    ):
        proc = fresh_python("-m", "agband.cli", group, "--format", "text", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines()[-1] == (
            f"agband {group}: error: --format goes after the mode, as in "
            f"'agband {group} <mode> ... --format text'"
        )


# (argv, exit code, the start of a line of the text rendering); "{g}" is the
# order-4 model
TEXT_VIEWS = [
    (["build", "g"], 0, "a   a   ab  ba  b"),
    (["build", "gn", "--n", "2"], 0, "x1         x1*a       x1*b       x1*ab"),
    (["build", "gbar"], 0, "a         a         ax        xa        x  "),
    (["build", "j", "--n", "1"], 0, "a*x1  x1    a     a*x1  x1*a"),
    (["check", "{g}"], 0, "ARAGB on order 4: holds"),
    (["iso", "{g}", "{g}"], 0, "kind: ISO"),
    (["classify-bijections", "{g}"], 0, "ANTI_ISO: 12"),
    (["canonical-iso", "{g}"], 0, "ab -> 2"),
    (["decompose", "blocks", "{g}", "--partition", "[[0], [1], [2], [3]]"],
     0, "B3: [3]"),
    (["decompose", "gcopies", "{g}"], 0, "B0: [0, 1, 2, 3]"),
    (["decompose", "extension", "--n", "1"], 0, "B0: [0]"),
    (["spectrum", "--max-order", "4"], 0, "order 4: 1"),
    (["models", "--order", "4"], 0, "e0  e0  e2  e3  e1"),
    (["diff", "{g}", "{g}"], 0, "tables match"),
    (["limit-product", "5", "6"], 0, "4"),
    (["verify-paper", "--only", "table-3"], 0, "overall: PASS"),
]


@pytest.mark.parametrize("argv, code, line", TEXT_VIEWS,
                         ids=[" ".join(v[0][:2]) for v in TEXT_VIEWS])
def test_every_subcommand_renders_text(argv, code, line, g_file, capsys):
    argv = [a.replace("{g}", g_file) for a in argv] + ["--format", "text"]
    assert run(argv) == code
    out = capsys.readouterr().out.splitlines()
    assert any(row.startswith(line) for row in out)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_a_closed_stdout_ends_the_process_quietly():
    env = {**os.environ,
           "PYTHONPATH": str(Path(agband.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "agband.cli", "build", "gn", "--n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def test_check_passes_on_file_input(g_file, capsys):
    assert run(["check", g_file, "--variety", "aragb"]) == 0
    doc = out_json(capsys)
    assert doc["holds"] is True


def test_check_fails_with_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    table = [[j for j in range(3)] for _ in range(3)]
    path.write_text(json.dumps({"order": 3, "labels": ["p", "q", "r"], "table": table}))
    assert run(["check", str(path), "--variety", "aragb"]) == 1
    doc = out_json(capsys)
    assert doc["holds"] is False
    failing = [r for r in doc["identities"] if not r["holds"]]
    assert failing and failing[0]["counterexample"] is not None


def test_check_accepts_inline_laws(g_file, capsys):
    assert run(["check", g_file, "--law", "(xy)x = y", "--law", "x = xx"]) == 0
    assert run(["check", g_file, "--law", "xy = yx"]) == 1


@pytest.mark.parametrize("argv", [
    ["--variety", "medial", "--law", "x = xx"],
    ["--variety", "aragb", "--law", "x = xx"],
    ["--law", "x = xx", "--variety", "aragb"],
])
def test_check_refuses_both_a_variety_and_a_law(argv, g_file, capsys):
    assert run(["check", g_file, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


def test_check_refuses_a_law_with_more_than_twenty_variables(g_file, capsys):
    law = "((((((((((((((((((((ab)c)d)e)f)g)h)i)j)k)l)m)n)o)p)q)r)s)t)u)v = v"
    assert run(["check", g_file, "--law", law]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "22 variables" in err
    assert "Traceback" not in err


def test_check_rejects_unknown_preset(g_file, capsys):
    assert run(["check", g_file, "--variety", "nosuch"]) == 2
    assert "presets" in capsys.readouterr().err


def test_check_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    assert run(["check", str(path)]) == 2


@pytest.mark.parametrize("table", [5, [1, 2], "a"])
def test_check_reports_a_malformed_table_on_stdin_as_a_usage_error(fresh_python, table):
    doc = {"order": 2, "labels": ["a", "b"], "table": table}
    proc = fresh_python("-m", "agband.cli", "check", "-", stdin=json.dumps(doc))
    assert proc.returncode == 2
    assert proc.stderr == 'error: "table" must be a list of lists\n'


def test_iso_between_relabellings(g_file, tmp_path, capsys):
    other = tmp_path / "h.json"
    other.write_text(to_json(standard_g().relabel((2, 0, 3, 1))))
    assert run(["iso", g_file, str(other)]) == 0
    doc = out_json(capsys)
    assert doc["kind"] == "ISO"
    assert sorted(doc["images"]) == [0, 1, 2, 3]


def test_iso_not_found_exits_one(g_file, tmp_path, capsys):
    other = tmp_path / "h.json"
    other.write_text(json.dumps({
        "order": 2, "labels": ["u", "v"], "table": [[0, 1], [1, 0]],
    }))
    assert run(["iso", g_file, str(other)]) == 1
    assert "NOT_FOUND" in capsys.readouterr().err


@pytest.mark.parametrize("fmt, line", [
    ("text", "kind: ISO"), ("json", '  "kind": "ISO"'),
])
def test_iso_anti_on_a_commutative_table_prints_iso(fmt, line, tmp_path, capsys):
    z2 = tmp_path / "z2.json"
    z2.write_text(json.dumps({
        "order": 2, "labels": ["u", "v"], "table": [[0, 1], [1, 0]],
    }))
    assert run(["iso", str(z2), str(z2), "--anti", "--format", fmt]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_iso_anti_not_found_exits_one(g_file, tmp_path, capsys):
    l2 = tmp_path / "l2.json"
    l2.write_text(to_json(tower_level(2)))
    assert run(["iso", g_file, str(l2), "--anti"]) == 1
    assert capsys.readouterr().err == "NOT_FOUND: no anti-isomorphism exists\n"


def test_classify_bijections_matches_the_census(g_file, capsys):
    assert run(["classify-bijections", g_file]) == 0
    doc = out_json(capsys)
    assert doc["counts"]["ISO"] == 12
    assert doc["counts"]["ANTI_ISO"] == 12
    assert doc["counts"]["NEITHER"] == 0


def test_canonical_iso_subcommand(tmp_path, capsys):
    shuffled = standard_g().relabel((3, 0, 1, 2))
    path = tmp_path / "s.json"
    path.write_text(to_json(shuffled))
    assert run(["canonical-iso", str(path)]) == 0
    assert out_json(capsys)["kind"] == "ISO"


def test_decompose_blocks_from_file(tmp_path, capsys):
    from agband.construct import gbar_derived

    path = tmp_path / "gbar.json"
    path.write_text(to_json(gbar_derived()))
    blocks = json.dumps([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]])
    assert run(["decompose", "blocks", str(path), "--partition", blocks]) == 0
    doc = out_json(capsys)
    assert doc["quotient"]["order"] == 4


def test_decompose_blocks_smearing_partition_fails(g_file, capsys):
    blocks = json.dumps([[0, 1], [2, 3]])
    assert run(["decompose", "blocks", g_file, "--partition", blocks]) == 1
    assert "NOT_A_DECOMPOSITION" in capsys.readouterr().err


QUARTERS = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]


@pytest.mark.parametrize(
    "blocks",
    [
        5,
        QUARTERS[:3] + [[12, 13, 14, "x"]],
        QUARTERS[:3] + [[12, 13, 14, 15, 15]],
        [[0, 1.0, 2, 3]] + QUARTERS[1:],
        [[0, True, 2, 3]] + QUARTERS[1:],
        [0, 1, 2, 3],
        {"0": [0]},
    ],
)
def test_decompose_blocks_rejects_malformed_partitions(tmp_path, capsys, blocks):
    from agband.construct import gbar_derived

    path = tmp_path / "gbar.json"
    path.write_text(to_json(gbar_derived()))
    argv = ["decompose", "blocks", str(path), "--partition", json.dumps(blocks)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_decompose_gcopies_and_extension(g_file, capsys):
    assert run(["decompose", "gcopies", g_file]) == 0
    doc = out_json(capsys)
    assert doc["blocks"] == [[0, 1, 2, 3]]
    assert run(["decompose", "extension", "--n", "2"]) == 0
    doc = out_json(capsys)
    assert len(doc["blocks"]) == 4


def test_decompose_gcopies_on_a_relabelled_order_256_table(tmp_path, capsys):
    from agband.search import canonical_table

    perm = list(range(256))
    random.Random(0).shuffle(perm)
    g = tower_level(4).relabel(tuple(perm))
    path = tmp_path / "l4.json"
    path.write_text(to_json(g))
    assert run(["decompose", "gcopies", str(path)]) == 0
    blocks = out_json(capsys)["blocks"]
    assert len(blocks) == 64
    assert sorted(e for block in blocks for e in block) == list(range(256))
    g_canonical = canonical_table(standard_g().table)
    for block in blocks:
        assert canonical_table(g.restrict(block).table) == g_canonical


def test_spectrum_scan_json(capsys):
    assert run(["spectrum", "--variety", "aragb", "--max-order", "5"]) == 0
    doc = out_json(capsys)
    pairs = [(row["order"], row["count"]) for row in doc["spectrum"]]
    assert pairs == [(1, 1), (2, 0), (3, 0), (4, 1), (5, 0)]


def test_spectrum_with_oracle_cross_check(capsys):
    assert run(["spectrum", "--variety", "aragb", "--max-order", "4", "--oracle"]) == 0
    doc = out_json(capsys)
    for row in doc["spectrum"]:
        assert row["oracle"] == row["count"]


def test_models_inline_and_emitted(tmp_path, capsys):
    assert run(["models", "--variety", "aragb", "--order", "4"]) == 0
    doc = out_json(capsys)
    assert doc["count"] == 1
    outdir = tmp_path / "models"
    assert run([
        "models", "--variety", "aragb", "--order", "4", "--emit", str(outdir),
    ]) == 0
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["model-000.json"]


def test_models_emits_the_indented_json_encoding(tmp_path, capsys):
    outdir = tmp_path / "models"
    assert run([
        "models", "--variety", "ag", "--order", "3", "--emit", str(outdir),
    ]) == 0
    assert out_json(capsys)["count"] == len(list(outdir.iterdir())) > 1
    for path in outdir.iterdir():
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("argv", [["build", "gn", "--n", "3"],
                                  ["build", "j", "--n", "2"],
                                  ["build", "gbar", "--from-table3"]])
def test_built_tables_are_printed_as_indented_json(argv, capsys):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_models_witness_mode_requires_limit(capsys):
    assert run(["models", "--variety", "aragb", "--order", "12"]) == 2
    assert "limit" in capsys.readouterr().err


def test_spectrum_past_the_envelope_is_a_usage_error(capsys):
    assert run(["spectrum", "--max-order", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(order 8)" in captured.err and "limit=" not in captured.err


def test_diff_identical_tables_exits_zero(g_file, capsys):
    assert run(["diff", g_file, g_file]) == 0
    assert out_json(capsys) == []


def test_diff_reports_cells_and_exits_one(tmp_path, capsys):
    from agband.construct import gbar_derived, gbar_table3

    left = tmp_path / "l.json"
    right = tmp_path / "r.json"
    left.write_text(to_json(gbar_derived()))
    right.write_text(to_json(gbar_table3()))
    assert run(["diff", str(left), str(right)]) == 1
    doc = out_json(capsys)
    assert len(doc) == 1
    assert doc[0]["row"] == 3 and doc[0]["col"] == 10


def test_limit_product_subcommand(capsys):
    from agband.construct import limit_product

    assert run(["limit-product", "0", "4"]) == 0
    doc = out_json(capsys)
    assert doc["product"] == limit_product(0, 4)


def test_limit_product_rejects_negative_indices(capsys):
    assert run(["limit-product", "--", "-1", "0"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["limit-product", "1024", "0"],
        ["build", "gn", "--n", "6"],
        ["build", "j", "--n", "5"],
        ["decompose", "extension", "--n", "6"],
    ],
)
def test_commands_needing_tower_level_six_are_refused(argv, capsys):
    assert run(argv) == 2
    assert "tower level 6" in capsys.readouterr().err


def test_verify_paper_single_claim(capsys):
    assert run(["verify-paper", "--only", "corollary-2"]) == 0
    doc = out_json(capsys)
    rows = {r["claim"]: r["status"] for r in doc["results"]}
    assert rows == {"corollary-2": "PASS"}


def test_verify_paper_unknown_claim_is_a_usage_error(capsys):
    assert run(["verify-paper", "--only", "nonsense-99"]) == 2


@pytest.mark.parametrize("only", ["", ","])
def test_verify_paper_with_no_claim_selected_is_a_usage_error(only, capsys):
    assert run(["verify-paper", "--only", only]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no claim ids selected\n"


def test_verify_paper_json_matches_the_golden_file(capsys):
    golden = Path(__file__).with_name("golden") / "verify-paper.json"
    assert run(["verify-paper", "--format", "json"]) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_json(standard_g())))
    assert run(["check", "-", "--variety", "aragb"]) == 0


@pytest.mark.parametrize("labels", ["ab", [None, 1]])
def test_check_rejects_labels_that_are_not_strings_as_usage_error(
        capsys, tmp_path, labels):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"order": 2, "labels": labels, "table": [[0, 0], [0, 0]]}))
    assert run(["check", str(path)]) == 2
    assert '"labels" must be a list of strings' in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file_is_a_usage_error(capsys):
    assert run(["check", "/nowhere/missing.json"]) == 2


@pytest.mark.parametrize("doc", [
    {"order": 2.0, "labels": ["a", "b"], "table": [[0, 1], [1, 0]]},
    {"order": 2, "labels": ["a", "b"], "table": [[True, False], [False, True]]},
])
def test_check_rejects_non_integer_json_as_usage_error(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
