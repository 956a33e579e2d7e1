import argparse
import json
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import agband
from agband import cli, verify
from agband.cli import run
from agband.construct import standard_g, tower_level
from agband.groupoid import FiniteGroupoid, to_json


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


# main() ends the process once its output is flushed; these pin what the
# interpreter's shutdown would otherwise have done


def test_build_g_with_stdout_closed_exits_quietly(fresh_python):
    proc = fresh_python("-c", "import os, sys\nos.close(1)\nos.execv(sys.executable, "
                        "[sys.executable, '-m', 'agband.cli', 'build', 'g'])")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_main_runs_the_at_exit_callbacks_registered_before_it(fresh_python):
    proc = fresh_python("-c", "import atexit, sys\natexit.register(print, 'at exit')\n"
                        "sys.argv[1:] = ['build', 'g']\n"
                        "from agband.cli import main\nmain()")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == to_json(standard_g()) + "\nat exit\n"


def test_main_under_cprofile_prints_the_statistics(fresh_python):
    proc = fresh_python("-m", "cProfile", "-m", "agband.cli", "build", "g")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(to_json(standard_g()) + "\n")
    assert " function calls " in proc.stdout


def test_a_process_ends_as_run_returns(fresh_python, tmp_path, capsys):
    doc = json.loads(to_json(tower_level(2)))
    doc["table"][1][5] = (doc["table"][1][5] + 1) % 16
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(doc))
    for argv, code in ((["build", "gn", "--n", "4"], 0), (["check", str(bad)], 1),
                       (["build", "gn", "--n", "9"], 2)):
        assert run(argv) == code
        captured = capsys.readouterr()
        proc = fresh_python("-m", "agband.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out, captured.err)


def test_check_passes_on_file_input(g_file, capsys):
    assert run(["check", g_file, "--variety", "aragb"]) == 0
    doc = out_json(capsys)
    assert doc["holds"] is True


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


@pytest.mark.parametrize("argv", [
    ["--variety", "ag", "--order", "3"],
    ["--variety", "band", "--order", "4", "--limit", "1"],
    ["--variety", "aragb", "--order", "2"],
    ["--variety", "aragb", "--order", "4"],
], ids=" ".join)
def test_models_are_printed_as_indented_json(argv, capsys):
    assert run(["models", *argv]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert list(doc) == ["order", "variety", "count", "stats", "models"]
    assert len(doc["models"]) == doc["count"]


def test_models_witness_mode_requires_limit(capsys):
    assert run(["models", "--variety", "aragb", "--order", "12"]) == 2
    assert "limit" in capsys.readouterr().err


def test_spectrum_past_the_envelope_is_a_usage_error(capsys):
    assert run(["spectrum", "--max-order", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(order 8)" in captured.err and "limit=" not in captured.err


def test_spectrum_exits_one_when_the_oracle_disagrees(capsys, monkeypatch):
    monkeypatch.setattr("agband.search.brute_force_oracle", lambda order, v: 2)
    assert run(["spectrum", "--max-order", "2", "--oracle"]) == 1
    assert capsys.readouterr().err == "oracle count disagrees with the search\n"


def test_limit_product_subcommand(capsys):
    from agband.construct import limit_product

    assert run(["limit-product", "0", "4"]) == 0
    doc = out_json(capsys)
    assert doc["product"] == limit_product(0, 4)


def test_limit_product_rejects_negative_indices(capsys):
    assert run(["limit-product", "--", "-1", "0"]) == 2


def test_limit_product_answers_past_the_built_tower(capsys):
    # 4**40 heads block 1 of its level; times 0 it lands on 2 * 4**40
    assert run(["limit-product", str(4 ** 40), "0"]) == 0
    assert out_json(capsys)["product"] == 2 * 4 ** 40


@pytest.mark.parametrize(
    "argv",
    [
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


# verify-paper's FAIL path, with table-3's check replaced
def _replace_table_3(monkeypatch, check):
    monkeypatch.setattr(verify, "_REGISTRY", tuple(
        (claim, reference, check if claim == "table-3" else func)
        for claim, reference, func in verify._REGISTRY))


def test_a_failing_claim_reports_its_message_and_fails_overall(monkeypatch):
    _replace_table_3(monkeypatch, lambda: verify._need(False, "row 3 moved"))
    report = verify.run_claims(["table-3", "example-1"])
    assert [r.status for r in report.results] == ["PASS", "FAIL"]
    assert (report.results[1].detail, report.overall) == ("row 3 moved", "FAIL")


def test_a_claim_that_raises_reports_fail_with_the_exception(monkeypatch):
    _replace_table_3(monkeypatch, lambda: {}["row 3"])
    (row,) = verify.run_claims(["table-3"]).results
    assert (row.status, row.detail) == ("FAIL", "KeyError: 'row 3'")


def test_theorem_12_fails_if_the_base_points_come_back_closed(monkeypatch):
    restrict = FiniteGroupoid.restrict

    def closed_base(self, subset):
        if tuple(subset) == (0, 4, 8, 12):
            return standard_g()
        return restrict(self, subset)

    monkeypatch.setattr(FiniteGroupoid, "restrict", closed_base)
    (row,) = verify.run_claims(["theorem-12"]).results
    assert (row.status, row.detail) == (
        "FAIL", "the four base points unexpectedly form a subgroupoid")


def test_verify_paper_exits_one_on_a_failing_claim(capsys, monkeypatch):
    _replace_table_3(monkeypatch, lambda: verify._need(False, "row 3 moved"))
    assert run(["verify-paper", "--only", "table-3", "--format", "text"]) == 1
    assert capsys.readouterr().out.endswith("row 3 moved\noverall: FAIL\n")


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


# ---------------------------------------------------------------------------
# the one-subparser parse: each call builds one parser, of its subcommand
# alone, and that parser prints every help and error text the full parser
# would print


def parse_outcome(parse, argv, capsys):
    """(exit code or None, stdout, stderr) of ``parse(argv)``."""
    try:
        parse(argv)
        code = None
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parse(argv):
    return cli._build_parser().parse_args(argv)


def narrow_parse(argv):
    return cli._build_parser(argv).parse_args(argv)


def test_the_commands_are_the_full_parsers_subcommands():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == cli._COMMANDS


HELPS = ([["--help"]] + [[name, "--help"] for name in cli._COMMANDS]
         + [["build", mode, "--help"] for mode in ("g", "gn", "gbar", "j")]
         + [["decompose", mode, "--help"]
            for mode in ("blocks", "gcopies", "extension")])


@pytest.mark.parametrize("argv", HELPS, ids=" ".join)
def test_every_help_text_is_the_full_parsers(argv, capsys):
    want = parse_outcome(full_parse, argv, capsys)
    assert want[0] == 0 and want[1].startswith("usage: agband")
    assert (run(argv), *capsys.readouterr()) == want
    assert parse_outcome(narrow_parse, argv, capsys) == want


ERRORS = [
    [],
    ["frobnicate"],
    ["iso", "a.json"],
    ["check", "--format", "xml"],
    ["iso", "a.json", "b.json", "c.json"],
    ["build"],
    ["build", "gn"],
    ["build", "--format", "text", "g"],
    ["decompose", "nonsense"],
    ["decompose", "blocks", "g.json"],
    ["limit-product", "one", "2"],
    ["check", "--variety", "ag", "--law", "x = xx"],
    ["models", "--order", "4", "--limi", "1", "--limit", "x"],
    ["build", "g", "--n", "3"],
    ["decompose", "gcopies"],
]


@pytest.mark.parametrize("argv", ERRORS, ids=" ".join)
def test_every_usage_error_is_the_full_parsers(argv, capsys):
    want = parse_outcome(full_parse, argv, capsys)
    assert want[0] == 2 and want[1] == "" and "error: " in want[2]
    assert (run(argv), *capsys.readouterr()) == want
    assert parse_outcome(narrow_parse, argv, capsys) == want


def test_no_command_is_reported_as_the_missing_command(capsys):
    # the full parser leaves the subcommand metavar unset
    assert run([]) == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")


def test_a_usage_error_builds_one_parser(capsys, monkeypatch):
    calls = []
    build = cli._build_parser

    def counted(argv=None):
        calls.append(argv)
        return build(argv)

    monkeypatch.setattr(cli, "_build_parser", counted)
    assert run(["build", "g", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert calls == [["build", "g", "--bogus"]]


ACCEPTED = [
    ["build", "g"],
    ["build", "gbar", "--from-table3", "--format", "text"],
    ["build", "j", "--n", "2"],
    ["check", "--law", "x = xx", "--law", "(xy)x = y"],
    ["check", "g.json", "--variety", "ag"],
    ["iso", "--anti", "a.json", "b.json", "--format", "text"],
    ["classify-bijections", "g.json"],
    ["canonical-iso", "g.json", "--enumeration", "1,0,2,3"],
    ["decompose", "blocks", "g.json", "--partition", "[[0,1,2,3]]"],
    ["decompose", "extension", "--n", "2", "--format", "text"],
    ["spectrum", "--max-order", "3", "--oracle"],
    ["models", "--order", "4", "--lim", "2", "--emit", "out"],
    ["diff", "a.json", "b.json"],
    ["limit-product", "--", "3", "5"],
    ["verify-paper", "--only", "table-3", "--only", "lemma-12"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_the_narrow_parser_reads_what_the_full_parser_reads(argv):
    assert vars(narrow_parse(argv)) == vars(full_parse(argv))
