"""The benchmark's tracer wraps zstab functions and methods by name; every
name it lists must still exist, or `perfbench/run.py --trace 1` and
`perfbench/selfcheck.py` break."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # Loaded by path: perfbench is no package, and tracing.py imports only
    # the standard library.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module, attr",
    [entry[:2] for entry in tracing.TRACED + tracing.COUNTED],
    ids=[f"{entry[0]}.{entry[1]}" for entry in tracing.TRACED + tracing.COUNTED],
)
def test_function_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize(
    "module, cls, method",
    [entry[:3] for entry in tracing.TRACED_METHODS],
    ids=[f"{entry[0]}.{entry[1]}.{entry[2]}" for entry in tracing.TRACED_METHODS],
)
def test_method_target_resolves(module, cls, method):
    # Tracer.install reads the method from the class's own __dict__.
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])
