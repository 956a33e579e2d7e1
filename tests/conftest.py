import os
import subprocess
import sys
from pathlib import Path

import pytest

import agband


@pytest.fixture
def fresh_python():
    """Run the interpreter on these arguments in a new process that imports
    agband from the same directory as this one, with stdout block-buffered
    as a user's pipe is, whatever PYTHONUNBUFFERED says here."""
    env = {**os.environ, "PYTHONPATH": str(Path(agband.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)

    def run(*args, stdin=None):
        return subprocess.run(
            [sys.executable, *args], input=stdin, capture_output=True,
            text=True, env=env, timeout=60,
        )

    return run
