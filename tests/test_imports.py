"""The module import graph: every module imports on its own, so no cycle
hides behind another module's import, and the package root loads nothing."""

import pytest

MODULES = (
    "errors", "groupoid", "laws", "construct", "morphisms", "decompose",
    "search", "verify", "cli",
)


@pytest.mark.parametrize("module", MODULES)
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
