"""Command-line front end.

Subcommands: analyze, lambda-scan, table-verify, integrate, propagate.
Exit codes: 0 success, 1 verification failure, 2 not zero-stable under
--strict, 64 usage error.  Numeric output uses 10 significant digits in
both CSV and JSON so the two formats carry identical content.

A flat key=value config file (--config) supplies defaults; flags override
it.  The ZSTAB_OUT_DIR environment variable sets the directory that
relative --out paths are resolved against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ivp
from .propagation import NoiseSpec, robustness_sweep
from .schemes import Scheme, consistency_check, make_scheme, root_condition
from .table8 import REFERENCE_ROWS, verify_reference_table
from .zerosnet import scan_region, zerosnet_coeffs

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_NOT_STABLE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _jnum(x: float) -> float:
    return float(_fmt(x)) if math.isfinite(x) else x


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get("ZSTAB_OUT_DIR")
        if base:
            p = Path(base) / p
    return p


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        path = _resolve_out(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        sys.stdout.write(text)


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
        try:
            return zerosnet_coeffs(args.lam)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    alphas = _parse_floats(args.alphas)
    if not alphas:
        raise UsageError("--alphas needs at least one coefficient")
    beta = args.beta if args.beta is not None else 1.0
    try:
        return make_scheme(alphas, beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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


def _kv_lines(pairs: list[tuple[str, object]]) -> str:
    return "".join(f"{key}={value}\n" for key, value in pairs)


def _render(pairs: list[tuple[str, object]], fmt: str) -> str:
    if fmt == "json":
        obj = {}
        for key, value in pairs:
            if isinstance(value, float):
                obj[key] = _jnum(value)
            elif isinstance(value, list):
                obj[key] = [_jnum(v) if isinstance(v, float) else v for v in value]
            else:
                obj[key] = value
        return json.dumps(obj, indent=2) + "\n"
    # csv: key,value rows; text: key=value lines
    rows = []
    for key, value in pairs:
        if isinstance(value, float):
            text = _fmt(value)
        elif isinstance(value, list):
            text = ";".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in value
            )
        else:
            text = str(value)
        rows.append((key, text))
    if fmt == "csv":
        return "key,value\n" + "".join(f"{k},{v}\n" for k, v in rows)
    return _kv_lines(rows)


def cmd_analyze(args) -> int:
    scheme = _scheme_from_args(args)
    stability = root_condition(scheme)
    consistency = consistency_check(scheme)
    pairs: list[tuple[str, object]] = [
        ("alphas", [float(a) for a in scheme.alphas]),
        ("beta", float(scheme.beta)),
        ("moduli", [float(m) for m in stability.moduli]),
        ("zero_stable", stability.zero_stable),
        ("violations", list(stability.violations)),
        ("sum_alpha", consistency.sum_alpha),
        ("moment", consistency.moment),
        ("consistent", consistency.consistent),
    ]
    _emit(_render(pairs, args.format), args.out)
    if args.strict and not stability.zero_stable:
        return EXIT_NOT_STABLE
    return EXIT_OK


def cmd_lambda_scan(args) -> int:
    try:
        scan = scan_region(args.min, args.max, args.step)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        rows = [
            {
                "lambda": _jnum(p.lam),
                **{
                    key: _jnum(v)
                    for key, v in zip(
                        ("alpha0", "alpha1", "alpha2"),
                        zerosnet_coeffs(p.lam).alphas,
                    )
                },
                "beta": _jnum(zerosnet_coeffs(p.lam).beta),
                "max_modulus": _jnum(p.max_modulus),
                "zero_stable": p.zero_stable,
            }
            for p in scan.grid
        ]
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        _emit(scan.to_csv(), args.out)
    if scan.argmin_lambda is not None:
        print(
            f"argmin lambda={_fmt(scan.argmin_lambda)} "
            f"max_modulus={_fmt(scan.argmin_modulus)}",
            file=sys.stderr,
        )
    else:
        print("no zero-stable grid points", file=sys.stderr)
    return EXIT_OK


def cmd_table_verify(args) -> int:
    results = verify_reference_table()
    failed = 0
    for i, res in enumerate(results):
        status = "PASS" if res.passed else "FAIL"
        expected = ",".join(f"{m:.2f}" for m in res.row.moduli)
        computed = ",".join(f"{m:.2f}" for m in res.computed_moduli)
        print(
            f"row {i + 1}: {status} computed=[{computed}] expected=[{expected}] "
            f"zs_computed={res.computed_zero_stable} zs_expected={res.row.zero_stable}"
        )
        if not res.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} rows pass")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


def _problem_from_args(args) -> ivp.IVPProblem:
    if args.rhs is not None:
        expr = args.rhs
        env = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}

        def rhs(t, y):
            local = dict(env)
            local.update({"t": t, "y": float(np.atleast_1d(y)[0])})
            return np.array([float(eval(expr, {"__builtins__": {}}, local))])

        return ivp.IVPProblem(
            rhs=rhs,
            t_start=0.0,
            t_end=args.h * args.steps,
            initial_states=(np.array([args.y0]),),
        )
    if args.preset not in ivp.PRESETS:
        raise UsageError(f"unknown preset {args.preset!r}")
    return ivp.PRESETS[args.preset](t_end=max(args.h * args.steps, args.h))


def cmd_integrate(args) -> int:
    scheme = _scheme_from_args(args)
    problem = _problem_from_args(args)
    traj = ivp.integrate(scheme, problem, args.h, args.steps)
    if args.format == "json":
        rows = [
            {
                "n": n,
                "t": _jnum(t),
                "y": [_jnum(v) for v in np.atleast_1d(y)],
            }
            for n, (t, y) in enumerate(zip(traj.times, traj.states))
        ]
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        _emit(traj.to_csv(), args.out)
    if traj.blew_up_at is not None:
        print(f"blow-up at step {traj.blew_up_at}", file=sys.stderr)
    if args.probe is not None:
        series = ivp.zero_stability_probe(
            scheme, problem, args.probe, args.h, args.steps, seed=args.seed
        )
        ratio = "inf" if not math.isfinite(series.ratio) else _fmt(series.ratio)
        flagged = " (diverged)" if series.blew_up_at is not None or series.ratio > 1e3 else ""
        print(f"probe amplification ratio={ratio}{flagged}", file=sys.stderr)
    if args.orders is not None:
        h_list = _parse_floats(args.orders)
        if len(h_list) < 3:
            raise UsageError("--orders needs at least three step sizes")
        if problem.exact_solution is None:
            raise UsageError("--orders requires a preset with an exact solution")
        est = ivp.convergence_order(scheme, problem, h_list)
        note = " (rounding-limited)" if est.rounding_limited else ""
        print(f"convergence order={_fmt(est.order)}{note}", file=sys.stderr)
    return EXIT_OK


def cmd_propagate(args) -> int:
    if args.table8:
        schemes = [row.scheme() for row in REFERENCE_ROWS]
    else:
        schemes = [_scheme_from_args(args)]
    if not args.noise:
        raise UsageError("provide at least one --noise spec")
    specs = [_parse_noise(raw, args.clip) for raw in args.noise]
    if args.depth < 1 or args.width < 1:
        raise UsageError("depth and width must be positive")
    if args.trials < 1:
        raise UsageError("trials must be positive")
    report = robustness_sweep(
        schemes, specs, depth=args.depth, width=args.width,
        trials=args.trials, seed=args.seed,
    )
    if args.format == "json":
        rows = [
            dict(
                zip(
                    report.CSV_COLUMNS,
                    [scheme_id, [_jnum(a) for a in alphas], _jnum(beta),
                     zero_stable, kind, *map(_jnum, numbers)],
                )
            )
            for scheme_id, alphas, beta, zero_stable, kind, *numbers in report.rows()
        ]
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        _emit(report.to_csv(), args.out)
    means = report.group_means()
    if not math.isnan(means[True]):
        print(f"zero-stable group mean gap={_fmt(means[True])}", file=sys.stderr)
    if not math.isnan(means[False]):
        print(f"non-zero-stable group mean gap={_fmt(means[False])}", file=sys.stderr)
    return EXIT_OK


def _add_scheme_flags(parser) -> None:
    parser.add_argument("--alphas", help="comma-separated alpha coefficients")
    parser.add_argument("--beta", type=float, help="beta coefficient (default 1)")
    parser.add_argument(
        "--lambda", dest="lam", type=float,
        help="build the three-step family scheme for this lambda",
    )


def _add_common_flags(parser) -> None:
    parser.add_argument("--out", help="output file (resolved against ZSTAB_OUT_DIR)")
    parser.add_argument(
        "--format", choices=("text", "csv", "json"), default=None,
        help="output format",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")


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

    p = sub.add_parser("analyze", help="root condition and consistency of one scheme")
    _add_scheme_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--strict", action="store_true",
        help="exit with code 2 when the scheme is not zero-stable",
    )
    p.set_defaults(func=cmd_analyze, default_format="text")

    p = sub.add_parser("lambda-scan", help="scan the family's stability region")
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_lambda_scan, default_format="csv")

    p = sub.add_parser("table-verify", help="recompute the reference moduli table")
    _add_common_flags(p)
    p.set_defaults(func=cmd_table_verify, default_format="text")

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
    _add_common_flags(p)
    p.set_defaults(func=cmd_integrate, default_format="csv")

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
    _add_common_flags(p)
    p.set_defaults(func=cmd_propagate, default_format="csv")

    return parser


def _apply_config(args, parser_defaults: dict) -> None:
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file {args.config!r} not found")
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line_no} is not key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest == "lambda":
            dest = "lam"
        if not hasattr(args, dest):
            raise UsageError(f"config key {key!r} matches no flag")
        # A flag left at its parser default is overridden by the config.
        if getattr(args, dest) == parser_defaults.get(dest):
            current = getattr(args, dest)
            if isinstance(current, bool):
                setattr(args, dest, value.lower() in ("1", "true", "yes"))
            elif isinstance(current, int) and not isinstance(current, bool):
                setattr(args, dest, int(value))
            elif isinstance(current, float):
                setattr(args, dest, float(value))
            elif isinstance(current, list):
                setattr(args, dest, value.split(","))
            else:
                setattr(args, dest, value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        defaults = {
            action.dest: action.default
            for action in parser._subparsers._group_actions[0].choices[
                args.command
            ]._actions
        }
        _apply_config(args, defaults)
        if args.format is None:
            args.format = getattr(args, "default_format", "text")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
