"""Fuzz of the two text grammars the CLI reads: ``--noise kind:value...``
and the ``--rhs`` expression.  Each example runs one small command through
``cli.main``; whatever the text, the command succeeds or is a usage error
of one stderr line, never a traceback, and it finishes quickly."""

from __future__ import annotations

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from zstab import cli

# Wall time one tiny command may take (depth, width and steps are at most 5).
TIME_BOUND_S = 1.0

_numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-10**3, 10**3).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e999", "-0", " 1", "1_0", "0x1", "1e-400"]),
)
_junk = st.one_of(st.sampled_from(["", "x", "1,2", "--", "e", ":"]), st.text(max_size=5))
_noise = st.one_of(
    st.builds(
        lambda kind, fields: ":".join([kind, *fields]),
        st.one_of(st.sampled_from(["none", "gaussian", "constant", "uniform"]),
                  st.sampled_from(["", "salt", "Gaussian", "none ", "uniform\n"])),
        st.lists(st.one_of(_numbers, _junk), max_size=3),
    ),
    st.text(max_size=12),
)

# --rhs expressions built from parts in and out of the grammar, each with
# whether it holds a part outside; and raw text, mostly not Python at all.
_OPS = ["+", "-", "*", "/", "**"]
_FUNCTIONS = ["sin", "exp", "log", "sqrt", "gamma", "atan2", "hypot", "pow"]
_atoms = st.one_of(
    st.sampled_from(["t", "y", "pi", "e", "tau", "0", "1", "2.5", "1e308", "1e-320", "9" * 30])
    .map(lambda atom: (atom, False)),
    st.sampled_from(["x", "True", "1j", "'a'", "[y]", "().__class__", "math.pi", "None"])
    .map(lambda atom: (atom, True)),
)


def _combine(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from(_OPS + ["%", "//", "==", "<<", "@"]), parts).map(
            lambda p: (f"({p[0][0]} {p[1]} {p[2][0]})", p[0][1] or p[2][1] or p[1] not in _OPS)
        ),
        st.tuples(st.sampled_from(["-", "+", "not ", "~"]), parts).map(
            lambda p: (p[0] + p[1][0], p[1][1] or p[0] not in "-+")
        ),
        st.tuples(st.sampled_from(_FUNCTIONS + ["factorial", "floor", "abs"]),
                  st.lists(parts, min_size=1, max_size=2)).map(
            lambda p: (f"{p[0]}({', '.join(a for a, _ in p[1])})",
                       p[0] not in _FUNCTIONS or any(r for _, r in p[1]))
        ),
    )


_rhs = st.one_of(
    st.recursive(_atoms, _combine, max_leaves=12),
    st.text(max_size=24).map(lambda text: (text, False)),
)
_sizes = st.integers(1, 4).map(str)
_FIELDS = {"none": 0, "gaussian": 1, "constant": 1, "uniform": 2}


def _run(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _assert_contract(argv: list[str]) -> tuple[int, str]:
    code, out, err, seconds = _run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE), (argv, code, err)
    assert "Traceback" not in err
    if code == cli.EXIT_USAGE:
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1, err
    assert seconds < TIME_BOUND_S, (argv, seconds)
    return code, err


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_noise, min_size=1, max_size=3),
    st.sampled_from([("--alphas", "1"), ("--alphas", "3,-3,1", "--beta", "0.5"),
                     ("--lambda", "-1.8"), ("--table8",)]),
    _sizes, _sizes, st.booleans(),
)
def test_noise_text(specs, scheme, depth, width, clip):
    argv = ["propagate", *scheme, *(f"--noise={spec}" for spec in specs),
            "--depth", depth, "--width", width, "--trials", "2"]
    code, err = _assert_contract(argv + ["--clip"] * clip)
    if code == cli.EXIT_OK:
        # No field is dropped or misread: each spec has its kind's count of
        # fields, and each is a number.
        for spec in specs:
            kind, *fields = spec.split(":")
            assert len(fields) == _FIELDS[kind], spec
            for field in fields:
                float(field)
    else:
        assert "noise" in err or "uniform" in err or "finite" in err, err


@settings(max_examples=300, deadline=None)
@given(_rhs, st.integers(1, 5).map(str), st.sampled_from([(), ("--probe", "1e-3")]))
def test_rhs_text(rhs, steps, probe):
    expr, refused = rhs
    assert len(expr) <= cli.MAX_RHS_CHARS
    code, _ = _assert_contract(
        ["integrate", "--alphas", "1", f"--rhs={expr}", "--h", "0.1", "--steps", steps, *probe]
    )
    if refused:
        assert code == cli.EXIT_USAGE, expr
