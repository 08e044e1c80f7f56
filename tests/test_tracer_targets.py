"""The benchmark's tracer wraps zstab functions and methods by name; every
name it lists must still exist, or `perfbench/run.py --trace 1` and
`perfbench/selfcheck.py` break."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from test_lazy_numpy import _python

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


# As perfbench/run.py does: numpy and the tracer first, then zstab.cli alone,
# whose command modules are lazy; install must find and load every target.
# A traced command must reach the spans, and uninstall must put back the
# very functions that install wrapped.
SCRIPT = """
import contextlib, importlib.util, io, json, sys
import numpy
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import zstab.cli
tracer = tracing.Tracer()
tracer.install()
def owners():
    for mod, attr, *_ in tracing.TRACED + tracing.COUNTED:
        yield sys.modules[mod], attr
    for mod, cls, method, *_ in tracing.TRACED_METHODS:
        yield getattr(sys.modules[mod], cls), method
wrapped = [vars(owner)[attr].__wrapped__ for owner, attr in owners()]
with contextlib.redirect_stdout(io.StringIO()):
    code = zstab.cli.main(["table-verify"])
tracer.uninstall()
print(json.dumps({
    "code": code,
    "spans": sorted({span[2] for span in tracer.spans}),
    "restored": all(vars(owner)[attr] is fn for (owner, attr), fn in zip(owners(), wrapped)),
}))
"""


def test_install_in_a_fresh_interpreter_after_zstab_cli():
    done = _python("-c", SCRIPT, str(_TRACING))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "code": 0,
        "spans": ["polyroots.find_roots", "schemes.root_condition", "table8.verify_reference_table"],
        "restored": True,
    }
