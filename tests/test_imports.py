"""The module import graph: every module imports on its own, so no cycle
hides behind another module's import, the package root loads nothing, and
the CLI runs a module only when a subcommand first uses it."""

import ast
from pathlib import Path

import pytest

import agband
from agband.construct import tower_level
from agband.groupoid import to_json

MODULES = (
    "errors", "groupoid", "laws", "construct", "morphisms", "decompose",
    "search", "verify", "commands", "cli",
)


@pytest.mark.parametrize("module", MODULES + ("affine",))
def test_each_module_imports_in_a_fresh_interpreter(fresh_python, module):
    proc = fresh_python("-c", f"import agband.{module}")
    assert proc.returncode == 0, proc.stderr


def test_the_package_root_loads_no_module(fresh_python):
    proc = fresh_python("-c", "import agband, sys; print(sorted("
                        "m for m in sys.modules if m.startswith('agband.')))")
    assert proc.stdout == "[]\n", proc.stderr


def test_the_cli_loads_every_module(fresh_python):
    # a traced benchmark run looks each of these up in sys.modules right
    # after importing the CLI
    proc = fresh_python("-c", "import agband.cli, sys; print(' '.join(sorted("
                        "m for m in sys.modules if m.startswith('agband.'))))")
    assert proc.stdout.split() == sorted(f"agband.{m}" for m in MODULES)


# The CLI registers these in sys.modules and runs each on first use.
LAZY = {
    "construct": "tower_level", "laws": "get_variety",
    "morphisms": "canonical_iso", "decompose": "g_copy_partition",
    "search": "enumerate_models", "verify": "run_claims",
    "commands": "cmd_check",
}
# `before` leaves out what the interpreter's own start-up imported
BUILD_G = ("import sys, types; before = set(sys.modules); import agband.cli\n"
           "agband.cli.run(['build', 'g'])\n")


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# one command line per subcommand and decompose mode; {g} and {l2} are
# Cayley JSON files of levels 1 and 2
SUBCOMMANDS = (
    "build g", "check {g}", "iso --anti {l2} {l2}", "classify-bijections {g}",
    "canonical-iso {l2}", "decompose blocks {g} --partition [[0,1,2,3]]",
    "decompose gcopies {l2}", "decompose extension --n 2",
    "spectrum --variety band --max-order 3", "models --variety ag --order 3",
    "diff {g} {g}", "limit-product 3 5", "verify-paper --only table-3",
)


@pytest.mark.parametrize("line", SUBCOMMANDS)
def test_no_subcommand_runs_dataclasses_or_inspect(fresh_python, tmp_path, line):
    files = {"g": tower_level(1), "l2": tower_level(2)}
    for name, g in files.items():
        (tmp_path / f"{name}.json").write_text(to_json(g), "utf-8")
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    argv = [part.format(**paths) for part in line.split()]
    proc = fresh_python("-c", "import sys; before = set(sys.modules)\n"
                        "import agband.cli\n"
                        f"agband.cli.run({argv!r})\n"
                        "print(sorted({'dataclasses', 'inspect'}"
                        " & (set(sys.modules) - before)))")
    assert last_line(proc) == "[]"


def test_build_g_leaves_the_lazy_modules_registered_but_not_run(fresh_python):
    proc = fresh_python("-c", BUILD_G + "print(' '.join("
                        "m for m in sorted(sys.modules) if m.startswith('agband.')"
                        " and type(sys.modules[m]) is not types.ModuleType))")
    assert last_line(proc).split() == sorted(f"agband.{m}" for m in LAZY)


@pytest.mark.parametrize("module", LAZY)
def test_vars_runs_a_lazy_module_as_the_tracer_reads_it(fresh_python, module):
    proc = fresh_python("-c", BUILD_G + f"m = sys.modules['agband.{module}']\n"
                        "names = [k for k, v in vars(m).items() if not k.startswith('_')"
                        " and isinstance(v, (type, types.FunctionType))"
                        " and v.__module__ == m.__name__]\n"
                        "print(type(m) is types.ModuleType, *sorted(names))")
    loaded, *names = last_line(proc).split()
    source = (Path(agband.__file__).parent / f"{module}.py").read_text("utf-8")
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert loaded == "True"
    assert LAZY[module] in defined and set(names) == defined


@pytest.mark.parametrize("cli_first", [False, True])
@pytest.mark.parametrize("module", LAZY)
def test_a_lazy_module_is_one_object_whatever_imports_it_first(
        fresh_python, module, cli_first):
    name = f"agband.{module}"
    steps = [f"import {name}; first = sys.modules['{name}']", "import agband.cli"]
    if cli_first:
        steps.reverse()
    proc = fresh_python("-c", "import sys\n" + "\n".join(steps) + "\n"
                        f"import {name}\n"
                        f"from {name} import {LAZY[module]} as fn\n"
                        f"print(first is sys.modules['{name}'] is {name}"
                        f" is agband.cli.{module}, fn is {name}.{LAZY[module]})")
    assert last_line(proc) == "True True"


def test_models_with_more_than_ten_classes_leaves_morphisms_unrun(
        fresh_python):
    # the search runs morphisms only for its dedup self-check, which takes
    # at most 10 classes; band order 5 has 18
    proc = fresh_python("-c", "import sys, types; import agband.cli\n"
                        "agband.cli.run(['models', '--variety', 'band', "
                        "'--order', '5'])\n"
                        "m = sys.modules['agband.morphisms']\n"
                        "print(type(m) is types.ModuleType)")
    assert last_line(proc) == "False"


def test_build_g_runs_only_the_cli_groupoid_and_errors(fresh_python):
    proc = fresh_python("-c", BUILD_G + "print(' '.join("
                        "m for m in sorted(sys.modules) if m.startswith('agband.')"
                        " and type(sys.modules[m]) is types.ModuleType))")
    assert last_line(proc).split() == [
        "agband.cli", "agband.errors", "agband.groupoid"]


def test_build_g_leaves_the_affine_module_unloaded(fresh_python):
    proc = fresh_python("-c", BUILD_G + "print('agband.affine' in sys.modules)")
    assert last_line(proc) == "False"


def module_ran(fresh_python, tmp_path, module, line):
    """Whether the CLI ran agband.<module> for ``line``, in which {l2} is a
    Cayley JSON file of level 2."""
    path = tmp_path / "l2.json"
    path.write_text(to_json(tower_level(2)), "utf-8")
    argv = line.format(l2=path).split()
    proc = fresh_python("-c", "import sys, types; import agband.cli\n"
                        f"agband.cli.run({argv!r})\n"
                        f"m = sys.modules['agband.{module}']\n"
                        "print(type(m) is types.ModuleType)")
    return last_line(proc) == "True"


# morphisms runs laws only to name a refused input's failing law, and the
# tower levels the others build or identify are certified by their F_4
# model, so none of these sweeps a law on success
@pytest.mark.parametrize("line", [
    "iso --anti {l2} {l2}", "build gn --n 3", "build j --n 2",
    "canonical-iso {l2}", "decompose extension --n 3", "decompose gcopies {l2}",
])
def test_commands_leave_laws_unrun(fresh_python, tmp_path, line):
    assert not module_ran(fresh_python, tmp_path, "laws", line)


# only the tower and the tables it builds need construct, and the quarters
# of a level are checked against the order-4 model without an iso search
@pytest.mark.parametrize("module, line", [
    ("construct", "check {l2}"), ("construct", "iso {l2} {l2}"),
    ("construct", "models --variety ag --order 3"),
    ("morphisms", "decompose extension --n 3"),
])
def test_commands_leave_a_module_they_do_not_use_unrun(
        fresh_python, tmp_path, module, line):
    assert not module_ran(fresh_python, tmp_path, module, line)
