"""Command-line front end.

Subcommands: analyze, lambda-scan, table-verify, integrate, propagate.
Exit codes: 0 success, 1 verification failure, 2 not zero-stable under
--strict, 64 usage error.  Every rejection is a ValueError, raised by the
CLI or the library for input it refuses, an --out path it cannot write or a
scheme whose roots it cannot find, and ``main`` reports each as one
``usage error:`` line and exit 64.  Every report but table-verify's goes
through the writers in ``zstab._table``, so numbers carry 10 significant
digits in CSV, JSON and text alike; table-verify prints its moduli with two
decimals (``:.2f``) and its verdicts as Python's ``True``/``False``.

A command writes only after it has finished: each ``cmd_*`` returns its
stdout text, stderr lines and exit code, and ``main`` alone writes them.

A flat key=value config file (--config) supplies defaults; flags override
it.  Each line is parsed as its flag would be, and a required flag may be
given in either.  The command line and the config's flag lines together
hold at most ``MAX_ARGS`` tokens, the config file at most
``MAX_CONFIG_BYTES`` bytes, and an --rhs expression at most
``MAX_RHS_CHARS`` characters nested at most ``MAX_RHS_DEPTH`` levels.  The
ZSTAB_OUT_DIR environment variable sets the directory that relative --out
paths are resolved against.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from ._lazy import lazy

# The modules that run the commands, loaded at a command's first read of
# one of their names, so that building the parser runs none of them.
# No command here reads ``polyroots``; it is lazy too so that it is in
# ``sys.modules`` from ``import zstab.cli`` on, for perfbench's tracer.
_table = lazy(f"{__package__}._table")
ivp = lazy(f"{__package__}.ivp")
polyroots = lazy(f"{__package__}.polyroots")
propagation = lazy(f"{__package__}.propagation")
schemes = lazy(f"{__package__}.schemes")
table8 = lazy(f"{__package__}.table8")
zerosnet = lazy(f"{__package__}.zerosnet")

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NOT_STABLE = 2
EXIT_USAGE = 64

# Most tokens one parse may take: the command line's plus the config file's
# flag lines.  argparse's time grows with the square of the flag count; at
# this bound a parse takes ~60 ms on a 2-vCPU host, at 8000 flags ~3.6 s.
MAX_ARGS = 2**10
# Most bytes a --config file may hold; it is read no further than one byte
# past this, so a long file or an endless device is refused unread.
MAX_CONFIG_BYTES = 2**20
# Most characters an --rhs expression may hold; it is refused unparsed.
MAX_RHS_CHARS = 2**10
# Most levels its syntax tree may have, counted before it is compiled, so
# that what is refused does not depend on the interpreter's recursion limit:
# CPython 3.11 compiles ~900 levels of unary minus at top level, not 1000.
MAX_RHS_DEPTH = 2**9

# What an --rhs expression may name: t, y, three constants, and the math
# functions that map floats to a float, which it may call.  Its numbers are
# made floats, so that no operator builds an integer: every call and
# operator then takes a bounded time.
_RHS_CONSTANTS = {"pi": math.pi, "e": math.e, "tau": math.tau}
_RHS_VALUES = ("t", "y", *_RHS_CONSTANTS)
_RHS_FUNCTIONS = {name: getattr(math, name) for name in (
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "copysign",
    "cos", "cosh", "degrees", "erf", "erfc", "exp", "expm1", "fabs", "fmod",
    "gamma", "hypot", "lgamma", "log", "log10", "log1p", "log2", "pow",
    "radians", "remainder", "sin", "sinh", "sqrt", "tan", "tanh",
)}
_RHS_GLOBALS = {"__builtins__": {}, **_RHS_CONSTANTS, **_RHS_FUNCTIONS}
# The other syntax it may use: + - * / ** and unary + and -.
_RHS_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub,
)

ANALYZE_KEYS = (
    "alphas", "beta", "moduli", "zero_stable", "violations",
    "sum_alpha", "moment", "consistent",
)


class _Parser(argparse.ArgumentParser):
    """Raises ValueError (exit 64) instead of exiting 2, and indexes its
    flags by long name for --config.

    argparse checks a required flag as it parses, before a --config file
    could supply it; here ``check_required`` checks it after the last parse,
    and the usage line shows it in brackets, as the command line may omit it.
    """

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        self.required_flags: list[argparse.Action] = []
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, required=False, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if required:
            self.required_flags.append(action)
        if action.default != argparse.SUPPRESS:  # not --help
            for name in action.option_strings:
                self.flags[name.removeprefix("--")] = action
        return action

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # argparse before Python 3.13 drops the value of "--flag=--" and
        # stores an empty list, which no type or choice check sees.
        for action in self._actions:
            value = getattr(namespace, action.dest, None)
            if isinstance(value, list) and (not value or [] in value):
                self.error(f"argument {action.option_strings[0]}: expected one argument")
        return namespace, extras

    def _parse_optional(self, arg_string):
        # argparse reads a value only as plain as "-1" or "-.5", and takes
        # "-1e-3", "-inf" and "-0.5,0.2" for flags; a token whose text before
        # its first comma is a float is a value.  No float starts with "--".
        if arg_string[:1] == "-" and arg_string[1:2] != "-":
            try:
                float(arg_string.partition(",")[0])
                return None
            except ValueError:
                pass
        return super()._parse_optional(arg_string)

    def check_required(self, namespace) -> None:
        missing = [
            a.option_strings[0] for a in self.required_flags if getattr(namespace, a.dest) is None
        ]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}")

    def error(self, message):
        raise ValueError(message)


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    # A relative path is resolved against ZSTAB_OUT_DIR; "/" keeps an absolute one.
    path = Path(os.environ.get("ZSTAB_OUT_DIR", "")) / out
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out!r}: {exc}") from exc


def _table_text(report, form: str) -> str:
    """A report as a JSON list for "json", otherwise as its CSV."""
    if form == "json":
        return _table.json_table(report.CSV_COLUMNS, report.columns())
    return report.to_csv()


def _parse_floats(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"malformed number list {raw!r}") from exc


def _scheme_from_args(args) -> schemes.Scheme:
    has_alphas = getattr(args, "alphas", None) is not None
    has_lambda = getattr(args, "lam", None) is not None
    if has_alphas == has_lambda:
        raise ValueError("provide exactly one of --alphas or --lambda")
    if has_lambda:
        # The family fixes its own beta.
        if args.beta is not None:
            raise ValueError("--beta is read only with --alphas")
        return zerosnet.zerosnet_coeffs(args.lam)
    return schemes.Scheme(_parse_floats(args.alphas), 1.0 if args.beta is None else args.beta)


def cmd_analyze(args) -> tuple[str, list[str], int]:
    scheme = _scheme_from_args(args)
    stability = schemes.root_condition(scheme)
    consistency = schemes.consistency_check(scheme)
    values = (
        scheme.alphas, scheme.beta, stability.moduli, stability.zero_stable,
        stability.violations, consistency.sum_alpha, consistency.moment,
        consistency.consistent,
    )
    code = EXIT_NOT_STABLE if args.strict and not stability.zero_stable else EXIT_OK
    return _table.record(ANALYZE_KEYS, values, args.format), [], code


def cmd_lambda_scan(args) -> tuple[str, list[str], int]:
    scan = zerosnet.scan_region(args.min, args.max, args.step)
    if scan.argmin_lambda is None:
        note = "no zero-stable grid points"
    else:
        note = (
            f"argmin lambda={_table.fmt(scan.argmin_lambda)} "
            f"max_modulus={_table.fmt(scan.argmin_modulus)}"
        )
    return _table_text(scan, args.format), [note], EXIT_OK


def cmd_table_verify(args) -> tuple[str, list[str], int]:
    results = table8.verify_reference_table()
    lines = []
    for i, res in enumerate(results):
        status = "PASS" if res.passed else "FAIL"
        expected = ",".join(f"{m:.2f}" for m in res.row.moduli)
        computed = ",".join(f"{m:.2f}" for m in res.computed_moduli)
        lines.append(
            f"row {i + 1}: {status} computed=[{computed}] expected=[{expected}] "
            f"zs_computed={res.computed_zero_stable} zs_expected={res.row.zero_stable}\n"
        )
    failed = sum(not res.passed for res in results)
    lines.append(f"{len(results) - failed}/{len(results)} rows pass\n")
    return "".join(lines), [], EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def _compile_rhs(expr: str):
    """The code of an --rhs expression, its numbers made floats; a usage
    error unless every part of it is in the grammar above."""
    if len(expr) > MAX_RHS_CHARS:
        raise ValueError(f"--rhs is longer than {MAX_RHS_CHARS} characters")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"malformed --rhs expression {expr!r}") from exc
    except RecursionError as exc:
        raise ValueError(_too_deep(expr)) from exc
    callees = set()
    # Level by level, in the order of ast.walk: a call before the name it calls.
    level = [tree]
    for _ in range(MAX_RHS_DEPTH):
        below = []
        for node in level:
            if isinstance(node, ast.Call):
                if getattr(node.func, "id", None) not in _RHS_FUNCTIONS:
                    raise ValueError(f"--rhs {expr!r} may not call {_rhs_label(node.func)}")
                callees.add(node.func)
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                try:
                    node.value = float(node.value)
                except OverflowError:  # an integer past the float range
                    node.value = math.inf
            elif not (isinstance(node, _RHS_NODES) or node in callees
                      or isinstance(node, ast.Name) and node.id in _RHS_VALUES):
                raise ValueError(f"--rhs {expr!r} may not use {_rhs_label(node)}")
            below.extend(ast.iter_child_nodes(node))
        level = below
    if level:
        raise ValueError(_too_deep(expr))
    return compile(tree, "--rhs", "eval")


def _too_deep(expr: str) -> str:
    return f"--rhs {expr!r} is nested more than {MAX_RHS_DEPTH} levels deep"


def _rhs_label(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return repr(node.id)
    if isinstance(node, ast.Constant):
        return repr(node.value)
    return type(node).__name__


def _problem_from_args(args) -> ivp.IVPProblem:
    if args.rhs is not None:
        expr = args.rhs
        code = _compile_rhs(expr)

        def rhs(t, y):
            try:
                return float(eval(code, _RHS_GLOBALS, {"t": t, "y": y}))
            except OverflowError:
                # Where float ** and math functions raise, numpy overflows:
                # the run blows up at this step, as it does through y*y.
                return math.nan
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise ValueError(f"--rhs {expr!r} failed at t={_table.fmt(t)}: {exc}") from exc

        y0 = 1.0 if args.y0 is None else args.y0
        return ivp.IVPProblem(rhs, 0.0, (y0,))
    return ivp.PRESETS[args.preset or "decay"]()


def cmd_integrate(args) -> tuple[str, list[str], int]:
    if not 0.0 < args.h < math.inf:
        raise ValueError("--h must be positive and finite")
    # Checked here, before the order fit runs, and named as the flag.
    if args.probe is not None and not 0.0 < args.probe < math.inf:
        raise ValueError("--probe must be positive and finite")
    if args.y0 is not None:
        # Only the --rhs problem reads it; the presets fix their own.
        if args.rhs is None:
            raise ValueError("--y0 is read only with --rhs")
        if not math.isfinite(args.y0):
            raise ValueError("--y0 must be finite")
    if args.preset is not None and args.rhs is not None:
        raise ValueError("--preset and --rhs each name the problem; give one")
    if args.orders is not None and args.rhs is not None:
        raise ValueError("--orders needs an exact solution, and an --rhs problem has none")
    if args.seed is not None and args.probe is None:
        raise ValueError("--seed is read only with --probe")
    if args.steps < 1:
        raise ValueError("--steps must be positive")
    if args.steps > ivp.MAX_STEPS:
        raise ValueError(f"--steps must be at most {ivp.MAX_STEPS}")
    scheme = _scheme_from_args(args)
    problem = _problem_from_args(args)
    # The order fit runs first, so that its step sizes, and the step budget
    # of each of its runs, are checked before anything is integrated.
    est = None
    if args.orders is not None:
        est = ivp.convergence_order(
            scheme, problem, _parse_floats(args.orders), args.h * args.steps
        )
    # With --probe, the trajectory is the probe's clean run, written after
    # its twin has run too, so numpy.random's first use (~6 MiB, the
    # probe's direction) precedes the writer: in a fresh process (CPython
    # 3.11, numpy 2.4), the probe plus a 10k-step oscillator's JSON peaked
    # at 41.1 MiB RSS in this order, and at 37.9 MiB with the trajectory
    # written before the twin ran.  The whole probed command peaks at
    # 41.7 MiB, and a 1e5-step decay as CSV at 41.1 MiB.
    series = None
    if args.probe is None:
        traj = ivp.integrate(scheme, problem, args.h, args.steps)
    else:
        traj, series = ivp.zero_stability_probe(
            scheme, problem, args.probe, args.h, args.steps,
            seed=1 if args.seed is None else args.seed,
        )
    notes = []
    if traj.blew_up_at is not None:
        notes.append(f"blow-up at step {traj.blew_up_at}")
    if series is not None:
        flagged = " (diverged)" if series.blew_up_at is not None or series.ratio > 1e3 else ""
        notes.append(f"probe amplification ratio={_table.fmt(series.ratio)}{flagged}")
    if est is not None:
        limited = " (rounding-limited)" if est.rounding_limited else ""
        notes.append(f"convergence order={_table.fmt(est.order)}{limited}")
    return _table_text(traj, args.format), notes, EXIT_OK


def cmd_propagate(args) -> tuple[str, list[str], int]:
    if args.table8:
        if (args.alphas, args.beta, args.lam) != (None, None, None):
            raise ValueError("--table8 takes no --alphas, --beta or --lambda")
        swept = [row.scheme for row in table8.REFERENCE_ROWS]
    else:
        swept = [_scheme_from_args(args)]
    if not args.noise:
        raise ValueError("provide at least one --noise spec")
    specs = [propagation.NoiseSpec.parse(raw, args.clip) for raw in args.noise]
    report = propagation.robustness_sweep(
        swept, specs, depth=args.depth, width=args.width,
        trials=args.trials, seed=args.seed,
    )
    means = report.group_means()
    notes = []
    if not math.isnan(means[True]):
        notes.append(f"zero-stable group mean gap={_table.fmt(means[True])}")
    if not math.isnan(means[False]):
        notes.append(f"non-zero-stable group mean gap={_table.fmt(means[False])}")
    return _table_text(report, args.format), notes, EXIT_OK


def _add_scheme_flags(parser) -> None:
    parser.add_argument("--alphas", help="comma-separated alpha coefficients")
    parser.add_argument(
        "--beta", type=float, help="beta coefficient (default 1; only with --alphas)",
    )
    parser.add_argument(
        "--lambda", dest="lam", type=float,
        help="build the three-step family scheme for this lambda",
    )


def _add_common_flags(parser, formats: bool = True) -> None:
    parser.add_argument("--out", help="output file (resolved against ZSTAB_OUT_DIR)")
    if formats:
        parser.add_argument(
            "--format", choices=("text", "csv", "json"), help="output format",
        )
    parser.add_argument("--config", help="flat key=value config file; flags override")


# The names of ivp.PRESETS, sorted, and each kind of propagation.NOISE_KINDS
# with its parameters, written out so that building the parser loads
# neither module; tests/test_cli.py holds them to those two.
PRESET_NAMES = ("constant", "decay", "oscillator")
NOISE_SPECS = "none | gaussian:SIGMA | constant:MU | uniform:LO:HI"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="zstab",
        description=(
            "Zero-stability analysis of explicit multistep schemes. "
            "Exit codes: 0 success, 1 verification failure, "
            "2 not zero-stable under --strict, 64 usage error."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand parsers by name, for --config

    p = sub.add_parser("analyze", help="root condition and consistency of one scheme")
    _add_scheme_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--strict", action="store_true",
        help="exit with code 2 when the scheme is not zero-stable",
    )
    p.set_defaults(func=cmd_analyze, format="text")

    p = sub.add_parser("lambda-scan", help="scan the family's stability region")
    p.add_argument("--min", type=float, required=True, help="lowest lambda (required)")
    p.add_argument("--max", type=float, required=True, help="highest lambda (required)")
    p.add_argument("--step", type=float, required=True, help="grid spacing (required)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_lambda_scan, format="csv")

    p = sub.add_parser("table-verify", help="recompute the reference moduli table")
    _add_common_flags(p, formats=False)
    p.set_defaults(func=cmd_table_verify)

    p = sub.add_parser("integrate", help="integrate an initial-value problem")
    _add_scheme_flags(p)
    p.add_argument(
        "--preset", choices=PRESET_NAMES,
        help="built-in problem (default decay; not with --rhs)",
    )
    p.add_argument("--rhs", help="scalar rhs expression in t and y, e.g. '-y'")
    p.add_argument(
        "--y0", type=float, help="initial value for --rhs (default 1; only with --rhs)",
    )
    p.add_argument("--h", type=float, required=True, help="step size (required)")
    p.add_argument("--steps", type=int, required=True, help="number of steps (required)")
    p.add_argument("--probe", type=float, help="probe divergence with this epsilon")
    p.add_argument("--orders", help="comma-separated h list for an order estimate")
    p.add_argument("--seed", type=int, help="probe direction seed (default 1; only with --probe)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_integrate, format="csv")

    p = sub.add_parser("propagate", help="noise-robustness sweep of feature propagation")
    _add_scheme_flags(p)
    p.add_argument(
        "--table8", action="store_true",
        help="sweep all ten reference-table schemes",
    )
    p.add_argument(
        "--noise", action="append", default=None,
        help=f"noise spec: {NOISE_SPECS} (repeatable)",
    )
    p.add_argument("--clip", action="store_true", help="clamp noisy inputs to [0,1]")
    p.add_argument("--depth", type=int, default=56)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_propagate, format="csv")

    return parser


_shared_parser = functools.cache(build_parser)


def _config_tokens(args, flags: dict[str, argparse.Action], budget: int) -> list[str]:
    """The config file's lines as flag tokens.  A line whose flag the
    command line already set is dropped, so that flag wins even when it
    is repeatable.  More than ``budget`` flag lines, or a file of more than
    ``MAX_CONFIG_BYTES`` bytes, are a usage error."""
    data = bytearray()
    try:
        with open(args.config, "rb") as file:
            # In chunks: read(n) sets aside n bytes, however short the file.
            while chunk := file.read(min(2**16, MAX_CONFIG_BYTES + 1 - len(data))):
                data += chunk
    except OSError as exc:
        raise ValueError(f"cannot read config file {args.config!r}: {exc.strerror}") from exc
    if len(data) > MAX_CONFIG_BYTES:
        raise ValueError(
            f"config file {args.config!r} is longer than {MAX_CONFIG_BYTES} bytes"
        )
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise ValueError(f"config file {args.config!r} is not UTF-8 text") from None
    tokens = []
    flag_lines = 0
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        flag_lines += 1
        if flag_lines > budget:
            raise ValueError(
                f"config has more than {budget} flag lines; with the command "
                f"line's tokens they may number at most {MAX_ARGS}"
            )
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"config line {line_no} is not key=value: {line!r}")
        action = flags.get(key)
        if action is None:
            raise ValueError(f"config key {key!r} matches no flag")
        if getattr(args, action.dest) != action.default:
            continue
        option = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{option}={value}")
        elif value.lower() in ("1", "true", "yes"):  # a switch such as --strict
            tokens.append(option)
    return tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    try:
        if len(argv) > MAX_ARGS:
            raise ValueError(f"at most {MAX_ARGS} arguments are accepted, got {len(argv)}")
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the config's flags ahead of the command
            # line's, so argparse converts every value and later flags win.
            at = argv.index(args.command) + 1
            tokens = _config_tokens(
                args, parser.commands[args.command].flags, MAX_ARGS - len(argv)
            )
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        parser.commands[args.command].check_required(args)
        text, notes, code = args.func(args)
        _emit(text, args.out)
    except ValueError as exc:
        notes, code = [f"usage error: {exc}"], EXIT_USAGE
    for note in notes:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
