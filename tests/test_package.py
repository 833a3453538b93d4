"""One import path per name: each name is imported from the module that defines it.

The package itself keeps only the two functions the benchmark's tracer test
reads back from it. Each module must also import on its own in a fresh
process: in one test process the modules load in collection order, which can
hide an import cycle that loading them in another order would hit.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qseal

MODULES = ["states", "protocols", "oaep", "adversary", "harness", "cli"]


def run_fresh(*args):
    """Run ``python args`` in a new interpreter that finds this checkout's qseal first."""
    src = str(Path(qseal.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_package_defines_only_the_traced_names():
    public = {name for name, value in vars(qseal).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"apply_unitary_c", "squared_overlap"}
    assert qseal.squared_overlap is qseal.states.squared_overlap
    assert qseal.apply_unitary_c is qseal.states.apply_unitary_c


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = run_fresh("-c", f"import qseal.{module}")
    assert done.returncode == 0, done.stderr


def test_python_m_qseal_runs():
    done = run_fresh("-m", "qseal", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: qseal ")
