"""numpy loads on first use.  Each check runs in a fresh interpreter that
imports zstab before anything else, since the test process has numpy loaded
already: ``analyze`` and ``table-verify`` must leave numpy unloaded, and the
commands that use it must print the bytes of their goldens."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from zstab import _numpy

from test_golden import CASES, ROOT, _files

NUMPY_FREE = [
    CASES["analyze_text"], CASES["analyze_csv"], CASES["analyze_json"], CASES["table_verify"],
]

# zstab first; then the commands that need no numpy, in-process; then one
# that does, after which every module's np is numpy itself.
SCRIPT = """
import zstab.cli
import contextlib, io, json, sys
zstab.cli.build_parser()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(zstab.cli.main(argv))
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(zstab.cli.main(json.loads(sys.argv[2])))
numpy = sys.modules["numpy"]
modules = (zstab._table, zstab.ivp, zstab.propagation, zstab.schemes, zstab.zerosnet)
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "ivp_np_is_numpy": zstab.ivp.np is numpy,
    "one_np": all(module.np is numpy for module in modules),
    "plain_module": type(numpy) is type(sys),
}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_analyze_and_table_verify_load_no_numpy():
    done = _python("-c", SCRIPT, json.dumps(NUMPY_FREE), json.dumps(CASES["scan_csv"]))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "codes": [0] * (len(NUMPY_FREE) + 1),
        "loaded": [],
        "ivp_np_is_numpy": True,
        "one_np": True,
        "plain_module": True,
    }


@pytest.mark.parametrize("name", ["scan_csv", "decay_csv", "table8_csv"])
def test_commands_that_load_numpy_print_their_goldens(name):
    # lambda-scan, integrate --probe and propagate --table8, as a user runs them.
    done = _python("-m", "zstab.cli", *CASES[name])
    actual = (done.stdout, done.stderr, f"{done.returncode}\n")
    assert actual == tuple(path.read_text() for path in _files(name))


def test_a_loaded_module_is_returned_as_it_is():
    assert _numpy._lazy("json") is json


def test_a_missing_module_fails_at_import():
    with pytest.raises(ModuleNotFoundError) as caught:
        _numpy._lazy("zstab_no_such_module")
    assert caught.value.name == "zstab_no_such_module"
