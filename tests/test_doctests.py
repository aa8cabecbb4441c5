"""Run the docstring examples shipped with the library modules, and the demos."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagslice import (cli, flags, forms, gaussian, geometry, homology,
                       permutations, slmh, slnr, supq)

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", [
    permutations, gaussian, flags, geometry, slnr, slmh, supq, homology, forms, cli,
])
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-B", str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
