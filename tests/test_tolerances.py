"""One tolerance table: small float literals live only in the states.py block.
One error type: every rejected input is a ``ValueError``.
One summation rule: no builtin ``sum`` in src/qseal."""

import ast
import importlib
from pathlib import Path

import qseal
from qseal import adversary, harness, states
from qseal.adversary import CheatReport

SRC = Path(qseal.__file__).parent
# Anything this small is a tolerance, whatever its name.
SMALL = 1e-3


def tolerance_table(tree):
    """The value nodes of the module-level ``*_TOL = ...`` assignments."""
    return {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.endswith("_TOL")
    }


def test_small_float_literals_only_in_the_tolerance_table():
    strays = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = tolerance_table(tree) if path.name == "states.py" else set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < SMALL
                and id(node) not in allowed
            ):
                strays.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert strays == []
    assert len(tolerance_table(ast.parse((SRC / "states.py").read_text()))) == 3


def test_no_builtin_sum():
    """Python-level float sums are ``math.fsum``, correctly rounded in any order;
    builtin ``sum`` compensates from CPython 3.12 on, so its bits depend on
    the interpreter."""
    strays = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "sum"
    ]
    assert strays == []


def test_one_error_type_for_rejected_input():
    """Rejected input raises ``ValueError`` (``ConfigInvalid`` is one); the
    only other exception is ``InvariantViolation``, which the CLI maps to exit 2."""
    defined = {"ConfigInvalid", "InvariantViolation"}
    raised = defined | {"ValueError"}
    strays = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = ast.unparse(node.exc.func)
                if name not in raised:
                    strays.append(f"{path.name}:{node.lineno}: raise {name}")
            elif isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(f"qseal.{path.stem}"), node.name)
                is_error = issubclass(cls, Exception) and not issubclass(cls, Warning)
                if is_error and node.name not in defined:
                    strays.append(f"{path.name}:{node.lineno}: class {node.name}")
    assert strays == []
    assert issubclass(harness.ConfigInvalid, ValueError)


def test_tolerances_are_shared_not_restated():
    assert adversary.EXACT_TOL is states.EXACT_TOL
    assert harness.EXACT_TOL is states.EXACT_TOL
    assert CheatReport.holds.__defaults__ == (states.EXACT_TOL,)
