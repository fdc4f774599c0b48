"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets():
    """``TARGETS`` of bench/tracer.py, imported without writing a bytecode cache."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [target[:2] for target in tracer_targets()])
def test_every_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"bench/tracer.py wraps {module}.{attr}, which does not exist")
