"""numpy, and the modules that run the commands, load on first use.  Each
check runs in a fresh interpreter that imports zstab before anything else,
since the test process has them loaded already: building the parser and
reporting a usage error must run none of them, ``analyze`` and
``table-verify`` must leave numpy unloaded, and every command must print
the bytes of its golden."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import zstab
from zstab import _lazy

from test_golden import CASES, ROOT, _files

NUMPY_FREE = ["analyze_text", "analyze_csv", "analyze_json", "table_verify"]
# The modules that zstab.cli makes lazy.
COMMAND_MODULES = [
    f"zstab.{name}"
    for name in ("_table", "ivp", "polyroots", "propagation", "schemes", "table8", "zerosnet")
]

# zstab first, and the parser; then a usage error; then the commands that
# need no numpy, in-process; then one that does, after which every module's
# np is numpy itself.  A lazy module that has run its body is a plain module.
SCRIPT = """
import sys, zstab.cli
def ran():
    return sorted(
        name for name in ("dataclasses", *sys.argv[1:-2]) if type(sys.modules.get(name)) is type(sys)
    )
zstab.cli.build_parser()
startup = ran()
import contextlib, io, json
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zstab.cli.main(argv)
    return [out.getvalue(), err.getvalue(), f"{code}\\n"]
usage_error = run(["analyze", "--alphas=--"])
after_usage_error = ran()
outputs = [run(argv) for argv in json.loads(sys.argv[-2])]
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
outputs.append(run(json.loads(sys.argv[-1])))
numpy = sys.modules["numpy"]
modules = (zstab._table, zstab.ivp, zstab.propagation, zstab.schemes, zstab.zerosnet)
print(json.dumps({
    "startup": startup,
    "usage_error": usage_error,
    "after_usage_error": after_usage_error,
    "outputs": outputs,
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
    cases = [*NUMPY_FREE, "scan_csv"]
    done = _python(
        "-c", SCRIPT, *COMMAND_MODULES,
        json.dumps([CASES[name] for name in NUMPY_FREE]), json.dumps(CASES["scan_csv"]),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        # Building the parser loaded no dataclasses and ran no command
        # module, and neither did reporting a usage error.
        "startup": [],
        "usage_error": ["", "usage error: argument --alphas: expected one argument\n", "64\n"],
        "after_usage_error": [],
        "outputs": [[path.read_text() for path in _files(name)] for name in cases],
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
    assert _lazy.lazy("json") is json


def test_a_missing_module_fails_at_import():
    with pytest.raises(ModuleNotFoundError) as caught:
        _lazy.lazy("zstab_no_such_module")
    assert caught.value.name == "zstab_no_such_module"


# Every public name of the package, by the module that defines it, as the
# package bound them when it imported every submodule at once.
EXPORTS = {
    "polyroots": "Polynomial RootFindingError RootSet find_roots",
    "schemes": "ConsistencyReport Scheme StabilityReport characteristic_polynomial "
               "consistency_check first_order lm_second_order root_condition",
    "zerosnet": "OPTIMAL_LAMBDA RegionScan closed_form_roots in_stability_region "
                "max_nonprincipal_modulus scan_region zerosnet_coeffs",
    "ivp": "DivergenceSeries IVPProblem OrderEstimate Trajectory constant_problem "
           "convergence_order decay_problem integrate oscillator_problem zero_stability_probe",
    "propagation": "BlockMap NoiseSpec SweepReport growth_rate make_block propagate "
                   "robustness_sweep",
    "table8": "REFERENCE_ROWS verify_reference_table",
}
NAMES = {module: module for module in EXPORTS} | {
    name: module for module, names in EXPORTS.items() for name in names.split()
}


@pytest.mark.parametrize("name", sorted(NAMES))
def test_each_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"zstab.{NAMES[name]}")
    assert getattr(zstab, name) is (module if name == NAMES[name] else getattr(module, name))


def test_dir_and_star_import_list_the_public_names():
    assert set(NAMES) <= set(dir(zstab))
    namespace = {}
    exec("from zstab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        zstab.no_such_name
