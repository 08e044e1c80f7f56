"""Byte-for-byte pins of the CLI's stdout and stderr, and of the demos.

Each CLI case runs one command in-process and compares both streams and the
exit code with the files under ``tests/golden``; its command function,
called on its own, must return the same three and write nothing.  Each
demo runs as its own Python process, and its stdout and exit code are
compared the same way.
The files are the reference output; a deliberate output change regenerates
them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden`` then shows exactly what changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zstab.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ANALYZE = ("analyze", "--alphas", "3,-3,1")
# (r^2 + 1.5r + 1)^2 takes Yun's decomposition; the degree-6 scheme is
# proven square-free by Yun's first gcd.
DOUBLE_PAIR = ("analyze", "--alphas=-3,-4.25,-3,-1", "--format", "json")
DEGREE_SIX = ("analyze", "--alphas", "0.3,0.2,0.1,0.1,0.05,0.05")
SCAN = ("lambda-scan", "--min", "-2", "--max", "-1.6", "--step", "0.1")
DECAY = ("integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "12")
OSCILLATOR = (
    "integrate", "--lambda", "-1.8", "--preset", "oscillator",
    "--h", "0.2", "--steps", "8",
)
RHS = ("integrate", "--alphas", "1", "--rhs", "sin(t) - y", "--h", "0.05", "--steps", "200")
CONSTANT = (
    "integrate", "--alphas", "1", "--preset", "constant", "--h", "0.05", "--steps", "200",
)
BLOWUP = ("integrate", "--alphas", "10,10,10", "--h", "0.1", "--steps", "1000")
OSCILLATOR_PROBE = (
    "integrate", "--lambda", "-1.8", "--preset", "oscillator", "--h", "0.01",
    "--steps", "500", "--probe", "1e-6", "--seed", "7", "--format", "json",
)
TABLE8 = (
    "propagate", "--table8", "--noise", "gaussian:0.1", "--noise", "constant:0.5",
    "--depth", "12", "--width", "8", "--trials", "2",
)
OVERFLOW = (
    "propagate", "--alphas", "10,10,10", "--depth", "320",
    "--noise", "gaussian:0.1", "--noise", "none", "--width", "8", "--trials", "2",
)

CASES = {
    "analyze_text": ANALYZE,
    "analyze_csv": ANALYZE + ("--format", "csv"),
    "analyze_json": ANALYZE + ("--format", "json"),
    "double_pair_json": DOUBLE_PAIR,
    "degree_six_text": DEGREE_SIX,
    "scan_csv": SCAN,
    "scan_json": SCAN + ("--format", "json"),
    "decay_csv": DECAY + ("--probe", "1e-3", "--orders", "0.1,0.05,0.025"),
    "decay_json": DECAY + ("--format", "json"),
    "oscillator_csv": OSCILLATOR,
    "oscillator_json": OSCILLATOR + ("--format", "json"),
    "table8_csv": TABLE8,
    "table8_json": TABLE8 + ("--format", "json"),
    "overflow_csv": OVERFLOW,
    "overflow_json": OVERFLOW + ("--format", "json"),
    "table_verify": ("table-verify",),
    "rhs_csv": RHS,
    "blowup_csv": BLOWUP,
    "constant_csv": CONSTANT,
    "probe_json": OSCILLATOR_PROBE,
}


def _run(argv) -> tuple[str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), f"{code}\n"


def _run_demo(demo: Path) -> tuple[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    return done.stdout, f"{done.returncode}\n"


def _files(name: str, exts=("out", "err", "rc")) -> tuple[Path, ...]:
    return tuple(GOLDEN / f"{name}.{ext}" for ext in exts)


def _demo_files(demo: Path) -> tuple[Path, ...]:
    return _files(f"demo_{demo.stem}", ("out", "rc"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name):
    actual = _run(CASES[name])
    expected = tuple(path.read_text() for path in _files(name))
    assert actual == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_returns_its_output_and_writes_nothing(name, capsys):
    # main alone writes: a command hands back its stdout text, its stderr
    # lines and its exit code.
    args = build_parser().parse_args(CASES[name])
    text, notes, code = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(text, str) and isinstance(notes, list) and isinstance(code, int)
    actual = (text, "".join(f"{note}\n" for note in notes), f"{code}\n")
    assert actual == tuple(path.read_text() for path in _files(name))


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.endswith("_json")))
def test_json_golden_is_laid_out_as_json_dumps(name):
    text = GOLDEN.joinpath(f"{name}.out").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_bytes(demo):
    actual = _run_demo(demo)
    expected = tuple(path.read_text() for path in _demo_files(demo))
    assert actual == expected


def test_no_orphan_goldens():
    wired = {path for name in CASES for path in _files(name)}
    wired |= {path for demo in DEMOS for path in _demo_files(demo)}
    assert sorted(set(GOLDEN.iterdir()) - wired) == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for path, text in zip(_files(name), _run(argv)):
            path.write_text(text)
    for demo in DEMOS:
        for path, text in zip(_demo_files(demo), _run_demo(demo)):
            path.write_text(text)
    sys.exit(0)
