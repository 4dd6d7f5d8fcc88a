"""The benchmark's tracer wraps polycomplete functions by name, and a name
it cannot find reads as a zero metric rather than an error.  This test
loads perfbench/tracer.py as it is and checks that every name it traces
or counts still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
_NAMES = [(module, attr) for _, module, attr, *_ in (*tracer.TARGETS, *tracer.COUNTED)]


@pytest.mark.parametrize("module, attr", _NAMES, ids=[f"{m}:{a}" for m, a in _NAMES])
def test_traced_name_exists(module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        assert hasattr(owner, name), f"{module}.{attr} is gone; the tracer would read it as zero"
        owner = getattr(owner, name)
    assert callable(owner)
