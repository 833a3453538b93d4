"""The traced benchmark finds qseal functions by module and attribute name.

``perfbench/spans.py`` lists them in ``TARGETS``; a rename under ``src/``
that misses that list would silently drop a layer from the traced metrics.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, _, _ in _targets()]
)
def test_span_target_is_a_function(module_name, attr):
    assert inspect.isfunction(getattr(importlib.import_module(module_name), attr))


def test_oaep_patch_points_exist():
    oaep = importlib.import_module("qseal.oaep")
    assert isinstance(oaep.OaepContext.__dict__["create"], classmethod)
    assert callable(oaep.hashlib.sha256)
