"""Fuzz of the CLI's input: the two text grammars it reads, ``--noise
kind:value...`` and the ``--rhs`` expression, and whole command lines.  Each
example runs one small command through ``cli.main``; whatever the input, the
command ends with one of the documented exit codes, a usage error is one
stderr line, no traceback is printed, and it finishes quickly."""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from zstab import cli, ivp

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
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help prints and exits 0, as argparse does
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _assert_contract(argv: list[str], codes=(cli.EXIT_OK, cli.EXIT_USAGE)) -> tuple[int, str]:
    code, out, err, seconds = _run(argv)
    assert code in codes, (argv, code, err)
    assert "Traceback" not in out + err
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


# Whole command lines: a subcommand (or junk), each of its flags placed on
# the command line, in a --config file or nowhere, with a value in range or
# junk, and stray tokens.  Every size stays far below its budget wherever it
# is placed: depth, width and trials at most 4, steps at most 5, and a scan
# of at most ~50 points (a few hundred where junk replaces a bound); the
# order fit's step sizes keep each of its runs under 500 steps.
_JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "-1", "0", "1,2", "--", "=", " "])
_SWITCH = st.sampled_from(["true", "false", "yes", "1", "0", "junk"])
_SCHEME = {
    "alphas": st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 10.0, 1e308, -1e-300])),
        min_size=1, max_size=4,
    ).map(lambda xs: ",".join(map(repr, xs))),
    "beta": st.floats(-3.0, 3.0).map(repr),
    "lambda": st.one_of(
        st.floats(-12.0, 12.0), st.floats(allow_nan=False, allow_infinity=False)
    ).map(repr),
}
_FORMAT = {"format": st.sampled_from(["text", "csv", "json"])}
_OUT = {"out": st.sampled_from(["{tmp}/report", "{tmp}/blocker/report"])}
_SIZE = st.integers(1, 4).map(str)
_COMMANDS = {
    "analyze": {**_SCHEME, "strict": None, **_FORMAT, **_OUT},
    "lambda-scan": {**_FORMAT, **_OUT},  # and the scan's bounds, drawn together
    "table-verify": _OUT,
    "integrate": {
        **_SCHEME,
        "preset": st.sampled_from(sorted(ivp.PRESETS)),
        "rhs": st.sampled_from(["-y", "sin(t) - y", "y**2", "exp(y)", "1/0", "x"]),
        "y0": st.floats(-2.0, 2.0).map(repr),
        "h": st.floats(0.01, 1.0).map(repr),
        "steps": st.integers(1, 5).map(str),
        "probe": st.floats(1e-9, 1.0).map(repr),
        "orders": st.lists(st.floats(0.01, 1.0), min_size=3, max_size=4, unique=True).map(
            lambda hs: ",".join(map(repr, hs))
        ),
        "seed": st.integers(-2, 2**64).map(str),
        **_FORMAT, **_OUT,
    },
    "propagate": {
        **_SCHEME,
        "table8": None,
        "noise": st.one_of(
            st.just("none"),
            st.floats(0.0, 1.0).map(lambda x: f"gaussian:{x!r}"),
            st.floats(-1.0, 1.0).map(lambda x: f"constant:{x!r}"),
            st.tuples(st.floats(-1.0, 0.0), st.floats(0.0, 1.0)).map(
                lambda pair: f"uniform:{pair[0]!r}:{pair[1]!r}"
            ),
        ),
        "clip": None,
        "depth": _SIZE,
        "width": _SIZE,
        "trials": _SIZE,
        "seed": st.integers(-2, 2**64).map(str),
        **_FORMAT, **_OUT,
    },
}
# Flags that go together: each example takes one choice per group (a flag in
# no group is placed anywhere, or nowhere), except that one in eight takes
# every flag freely.
_SCHEME_CHOICES = [("alphas",), ("alphas", "beta"), ("lambda",)]
_GROUPS = {
    "analyze": [_SCHEME_CHOICES],
    "integrate": [_SCHEME_CHOICES, [(), ("preset",), ("rhs",), ("rhs", "y0")],
                  [(), ("probe",), ("probe", "seed")]],
    "propagate": [_SCHEME_CHOICES + [("table8",)]],
}
# Flags placed on the command line or in the config, never left out: the
# sizes, whose defaults are full-size sweeps, the required ones and --noise.
_PLACED = {"depth", "width", "trials", "noise", "h", "steps", "min", "max", "step"}
_STRAY = st.sampled_from(["--bogus", "extra", "-h", "--help", "--strict", "--table8", "--"])


@st.composite
def _scan_bounds(draw):
    """(min, max, step) of a scan of at most ~50 points, near zero or far
    out where the closed forms divide by lambda."""
    if draw(st.booleans()):
        lo, step = draw(st.floats(-12.0, 12.0)), draw(st.floats(0.25, 1.0))
    else:
        lo = draw(st.floats(1e300, 1.7e308)) * draw(st.sampled_from([1.0, -1.0]))
        step = abs(lo) / draw(st.integers(10, 50))
    return {"min": repr(lo), "max": repr(lo + draw(st.integers(0, 50)) * step),
            "step": repr(step)}


def _or_junk(strategy, junk=_JUNK):
    """A value of ``strategy``, or one time in ten a junk one."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 0 else strategy)


@st.composite
def _command_lines(draw):
    """(subcommand, argv, config lines or None); ``{tmp}`` stands for a
    scratch directory."""
    config = [] if draw(st.booleans()) else None
    command = draw(_or_junk(st.sampled_from(sorted(_COMMANDS)), st.sampled_from(["", "analyse"])))
    groups = draw(st.sampled_from([_GROUPS.get(command, [])] * 7 + [[]]))
    grouped = {name for group in groups for choice in group for name in choice}
    chosen = {name for group in groups for name in draw(st.sampled_from(group))}
    # Half the examples take no junk value.
    pick = _or_junk if draw(st.booleans()) else lambda strategy: strategy
    flags = {name: None if strategy is None else pick(strategy)
             for name, strategy in _COMMANDS.get(command, {}).items()
             if name not in grouped or name in chosen}
    if command == "lambda-scan":
        flags.update({name: pick(st.just(v)) for name, v in draw(_scan_bounds()).items()})
    tokens = []
    for name, strategy in flags.items():
        places = ["argv"]
        places += ["config"] if config is not None else []
        places += [] if name in _PLACED or name in chosen else [None]
        for _ in range(draw(st.integers(1, 3)) if name == "noise" else 1):
            place = draw(st.sampled_from(places))
            value = None if strategy is None else draw(strategy)
            if place == "config":
                config.append(f"{name}={draw(_SWITCH) if value is None else value}")
            elif place == "argv":
                if value is None:
                    tokens.append([f"--{name}"])
                elif draw(st.booleans()):
                    tokens.append([f"--{name}={value}"])
                else:
                    tokens.append([f"--{name}", value])
    if draw(st.sampled_from([False] * 3 + [True])):
        tokens += [[token] for token in draw(st.lists(_STRAY, min_size=1, max_size=2))]
        if config is not None:
            config += draw(st.lists(st.sampled_from(["# note", "", "bogus=1", "novalue"]),
                                    min_size=1, max_size=2))
    argv = [command] + [token for group in draw(st.permutations(tokens)) for token in group]
    return command, argv, config and draw(st.permutations(config))


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)
@given(_command_lines())
# fsum overflowed on the partial sum 2e308 and the traceback reached stderr.
@example(("analyze", ["analyze", "--alphas", "0.0,1e+308,1e+308", "--strict"], None))
def test_command_line(line):
    command, argv, config = line
    # A relative --out, junk included, lands in the scratch directory.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, ZSTAB_OUT_DIR=tmp):
        (Path(tmp) / "blocker").write_text("")
        argv = [token.replace("{tmp}", tmp) for token in argv]
        if config is not None:
            path = Path(tmp) / "zstab.cfg"
            path.write_text("".join(entry.replace("{tmp}", tmp) + "\n" for entry in config))
            argv.append(f"--config={path}")
        codes = (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL, cli.EXIT_NOT_STABLE, cli.EXIT_USAGE)
        code, _ = _assert_contract(argv, codes)
    event(f"{command or '(none)'} exits {code}")
    assert code != cli.EXIT_VERIFY_FAIL or command == "table-verify", argv


# Flags that take a number, each with the rest of a small command; --alphas
# takes a comma list of them.
_NUMERIC_FLAGS = [
    (["analyze"], "--alphas"),
    (["analyze", "--alphas=1"], "--beta"),
    (["analyze"], "--lambda"),
    (["integrate", "--alphas=1", "--steps=3"], "--h"),
    (["integrate", "--alphas=1", "--h=0.1", "--steps=3", "--rhs=-y"], "--y0"),
    (["integrate", "--alphas=1", "--h=0.1", "--steps=3"], "--probe"),
    (["lambda-scan", "--max=1", "--step=0.5"], "--min"),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_NUMERIC_FLAGS), st.lists(_numbers, min_size=1, max_size=3))
def test_numeric_value_forms_agree(case, numbers):
    # "--flag value" and "--flag=value" are one command, negative values
    # included.
    command, flag = case
    value = ",".join(numbers) if flag == "--alphas" else numbers[0]
    spaced = _run(command + [flag, value])
    joined = _run(command + [f"{flag}={value}"])
    assert spaced[:3] == joined[:3], (command, flag, value)
