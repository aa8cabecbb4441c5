"""Run the docstring examples shipped with the library modules, and the demos."""

import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import flagslice

ROOT = Path(__file__).resolve().parent.parent
# Every module of the package; running ``__main__`` would run the command line.
MODULES = sorted(info.name for info in pkgutil.iter_modules(flagslice.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(f"flagslice.{name}"), verbose=False)
    assert failures == 0


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-B", str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
