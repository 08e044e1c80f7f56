"""Command-line front end.

Subcommands: analyze, lambda-scan, table-verify, integrate, propagate.
Exit codes: 0 success, 1 verification failure, 2 not zero-stable under
--strict, 64 usage error.  Input that the CLI or the library rejects (the
library raises ValueError) and an --out path that cannot be written are
usage errors, and so is a scheme whose roots the solver cannot find
(RootFindingError).  Every report goes through the writers in ``zstab._table``,
so numbers carry 10 significant digits in CSV, JSON and text alike.

A flat key=value config file (--config) supplies defaults; flags override
it.  Each line is parsed as its flag would be.  The ZSTAB_OUT_DIR
environment variable sets the directory that relative --out paths are
resolved against.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ivp
from ._table import fmt, json_table, record
from .polyroots import RootFindingError
from .propagation import NoiseSpec, robustness_sweep
from .schemes import Scheme, consistency_check, make_scheme, root_condition
from .table8 import REFERENCE_ROWS, verify_reference_table
from .zerosnet import scan_region, zerosnet_coeffs

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NOT_STABLE = 2
EXIT_USAGE = 64

ANALYZE_KEYS = (
    "alphas", "beta", "moduli", "zero_stable", "violations",
    "sum_alpha", "moment", "consistent",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError (exit 64) instead of exiting 2, and indexes its
    flags by long name and by dest for --config."""

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest != argparse.SUPPRESS:  # not --help
            for name in (*action.option_strings, action.dest):
                self.flags[name.removeprefix("--")] = action
        return action

    def error(self, message):
        raise UsageError(message)


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get("ZSTAB_OUT_DIR")
        if base:
            p = Path(base) / p
    return p


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    path = _resolve_out(out)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out!r}: {exc}") from exc


def _table_text(report, form: str) -> str:
    """A report as a JSON list for "json", otherwise as its CSV."""
    if form == "json":
        return json_table(report.CSV_COLUMNS, report.rows())
    return report.to_csv()


def _parse_floats(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"malformed number list {raw!r}") from exc


def _scheme_from_args(args) -> Scheme:
    has_alphas = getattr(args, "alphas", None) is not None
    has_lambda = getattr(args, "lam", None) is not None
    if has_alphas == has_lambda:
        raise UsageError("provide exactly one of --alphas or --lambda")
    if has_lambda:
        return zerosnet_coeffs(args.lam)
    return make_scheme(_parse_floats(args.alphas), args.beta)


def _parse_noise(raw: str, clip: bool) -> NoiseSpec:
    parts = raw.split(":")
    kind = parts[0]
    try:
        if kind == "none":
            return NoiseSpec.none()
        if kind == "gaussian":
            return NoiseSpec.gaussian(float(parts[1]), clip=clip)
        if kind == "constant":
            return NoiseSpec.constant(float(parts[1]), clip=clip)
        if kind == "uniform":
            return NoiseSpec.uniform(float(parts[1]), float(parts[2]), clip=clip)
    except (IndexError, ValueError) as exc:
        raise UsageError(f"malformed noise spec {raw!r}") from exc
    raise UsageError(f"unknown noise kind {kind!r}")


def cmd_analyze(args) -> int:
    scheme = _scheme_from_args(args)
    stability = root_condition(scheme)
    consistency = consistency_check(scheme)
    values = (
        scheme.alphas, scheme.beta, stability.moduli, stability.zero_stable,
        stability.violations, consistency.sum_alpha, consistency.moment,
        consistency.consistent,
    )
    _emit(record(ANALYZE_KEYS, values, args.format), args.out)
    if args.strict and not stability.zero_stable:
        return EXIT_NOT_STABLE
    return EXIT_OK


def cmd_lambda_scan(args) -> int:
    scan = scan_region(args.min, args.max, args.step)
    _emit(_table_text(scan, args.format), args.out)
    if scan.argmin_lambda is not None:
        print(
            f"argmin lambda={fmt(scan.argmin_lambda)} "
            f"max_modulus={fmt(scan.argmin_modulus)}",
            file=sys.stderr,
        )
    else:
        print("no zero-stable grid points", file=sys.stderr)
    return EXIT_OK


def cmd_table_verify(args) -> int:
    results = verify_reference_table()
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
    _emit("".join(lines), args.out)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def _problem_from_args(args) -> ivp.IVPProblem:
    if args.rhs is not None:
        expr = args.rhs
        try:
            code = compile(expr, "--rhs", "eval")
        except SyntaxError as exc:
            raise UsageError(f"malformed --rhs expression {expr!r}") from exc
        env = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}

        def rhs(t, y):
            local = dict(env)
            local.update({"t": t, "y": float(np.atleast_1d(y)[0])})
            try:
                return np.array([float(eval(code, {"__builtins__": {}}, local))])
            except (ArithmeticError, NameError, TypeError, ValueError) as exc:
                raise UsageError(f"--rhs {expr!r} failed at t={fmt(t)}: {exc}") from exc

        return ivp.IVPProblem(rhs, 0.0, args.h * args.steps, (np.array([args.y0]),))
    return ivp.PRESETS[args.preset](t_end=args.h * args.steps)


def cmd_integrate(args) -> int:
    if not 0.0 < args.h < math.inf:
        raise UsageError("--h must be positive and finite")
    if args.steps < 1:
        raise UsageError("--steps must be positive")
    scheme = _scheme_from_args(args)
    problem = _problem_from_args(args)
    traj = ivp.integrate(scheme, problem, args.h, args.steps)
    # Written before the probe and the order fit run: the other order raised
    # the peak memory of a probed 10k-step JSON run by about 5 MiB.
    _emit(_table_text(traj, args.format), args.out)
    if traj.blew_up_at is not None:
        print(f"blow-up at step {traj.blew_up_at}", file=sys.stderr)
    if args.probe is not None:
        series = ivp.zero_stability_probe(
            scheme, problem, args.probe, args.h, args.steps, seed=args.seed
        )
        flagged = " (diverged)" if series.blew_up_at is not None or series.ratio > 1e3 else ""
        print(f"probe amplification ratio={fmt(series.ratio)}{flagged}", file=sys.stderr)
    if args.orders is not None:
        est = ivp.convergence_order(scheme, problem, _parse_floats(args.orders))
        note = " (rounding-limited)" if est.rounding_limited else ""
        print(f"convergence order={fmt(est.order)}{note}", file=sys.stderr)
    return EXIT_OK


def cmd_propagate(args) -> int:
    if args.table8:
        schemes = [row.scheme() for row in REFERENCE_ROWS]
    else:
        schemes = [_scheme_from_args(args)]
    if not args.noise:
        raise UsageError("provide at least one --noise spec")
    specs = [_parse_noise(raw, args.clip) for raw in args.noise]
    report = robustness_sweep(
        schemes, specs, depth=args.depth, width=args.width,
        trials=args.trials, seed=args.seed,
    )
    _emit(_table_text(report, args.format), args.out)
    means = report.group_means()
    if not math.isnan(means[True]):
        print(f"zero-stable group mean gap={fmt(means[True])}", file=sys.stderr)
    if not math.isnan(means[False]):
        print(f"non-zero-stable group mean gap={fmt(means[False])}", file=sys.stderr)
    return EXIT_OK


def _add_scheme_flags(parser) -> None:
    parser.add_argument("--alphas", help="comma-separated alpha coefficients")
    parser.add_argument("--beta", type=float, default=1.0, help="beta coefficient (default 1)")
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
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_lambda_scan, format="csv")

    p = sub.add_parser("table-verify", help="recompute the reference moduli table")
    _add_common_flags(p, formats=False)
    p.set_defaults(func=cmd_table_verify)

    p = sub.add_parser("integrate", help="integrate an initial-value problem")
    _add_scheme_flags(p)
    p.add_argument(
        "--preset", default="decay", choices=sorted(ivp.PRESETS),
        help="built-in problem (default decay)",
    )
    p.add_argument("--rhs", help="scalar rhs expression in t and y, e.g. '-y'")
    p.add_argument("--y0", type=float, default=1.0, help="initial value for --rhs")
    p.add_argument("--h", type=float, required=True, help="step size")
    p.add_argument("--steps", type=int, required=True, help="number of steps")
    p.add_argument("--probe", type=float, help="probe divergence with this epsilon")
    p.add_argument("--orders", help="comma-separated h list for an order estimate")
    p.add_argument("--seed", type=int, default=1, help="probe direction seed (default 1)")
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
        help="noise spec: none | gaussian:SIGMA | constant:MU | uniform:LO:HI "
             "(repeatable)",
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


def _config_tokens(args, flags: dict[str, argparse.Action]) -> list[str]:
    """The config file's lines as flag tokens.  A line whose flag the
    command line already set is dropped, so that flag wins even when it
    is repeatable."""
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {args.config!r}: {exc.strerror}") from exc
    tokens = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise UsageError(f"config line {line_no} is not key=value: {line!r}")
        action = flags.get(key)
        if action is None:
            raise UsageError(f"config key {key!r} matches no flag")
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
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the config's flags ahead of the command
            # line's, so argparse converts every value and later flags win.
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args, parser.commands[args.command].flags)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        return args.func(args)
    except (UsageError, ValueError, RootFindingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
