"""Byte-for-byte pins of the CLI's stdout and stderr.

Each case runs one command in-process and compares both streams and the
exit code with the files under ``tests/golden``.  The files are the
reference output; a deliberate output change regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden`` then shows exactly what changed.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from zstab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

ANALYZE = ("analyze", "--alphas", "3,-3,1")
SCAN = ("lambda-scan", "--min", "-2", "--max", "-1.6", "--step", "0.1")
DECAY = ("integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "12")
OSCILLATOR = (
    "integrate", "--lambda", "-1.8", "--preset", "oscillator",
    "--h", "0.2", "--steps", "8",
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
}


def _run(argv) -> tuple[str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), f"{code}\n"


def _files(name: str) -> tuple[Path, Path, Path]:
    return tuple(GOLDEN / f"{name}.{ext}" for ext in ("out", "err", "rc"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name):
    actual = _run(CASES[name])
    expected = tuple(path.read_text() for path in _files(name))
    assert actual == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for path, text in zip(_files(name), _run(argv)):
            path.write_text(text)
    sys.exit(0)
