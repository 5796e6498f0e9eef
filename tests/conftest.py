"""Test-suite settings.

Hypothesis runs derandomized and without an example database, so every
run draws the same examples and writes nothing under ``.hypothesis/``.
The deadline is off because host load, not the code, decides how long
one example takes.  ``run_python`` starts a fresh interpreter on the
same package as this process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import conghom

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def run_python():
    """Runs ``python <args>`` in a child that imports this process's conghom."""
    # the child imports the same package as this process, however it got on sys.path
    src = str(Path(conghom.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args: str, check: bool = False) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              check=check, env=env)

    return run
