"""The four workloads: one round of CLI operations each, built from a seed,
and the checks on their outputs.

A round is a fixed list of operations; a run repeats whole rounds, so the
share of failed operations is the same in every run.  ``check`` takes the
outcomes of one round and returns the problems found for each operation.
Every check compares against ``oracles`` (computed apart from zstab) or
against a property the method must have, never against stored output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import oracles

ON_CIRCLE_TOL = 1e-8  # the root condition's documented on-circle band


@dataclass(frozen=True)
class Outcome:
    """What one CLI call produced: exit code (None if it raised), captured
    stdout and stderr, and the exception it raised, if any."""

    rc: Optional[int]
    out: str
    err: str
    error: Optional[str]


@dataclass(frozen=True)
class Op:
    """One CLI command.  ``kind`` names the rate it counts towards ("a" or
    "b"), ``work`` the units of work it does for that rate, ``label`` what
    reports call it, ``fault`` the known fault its input hits, if any."""

    argv: tuple[str, ...]
    kind: str
    work: float
    label: str
    fault: str = ""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    check: Callable[[list[Outcome]], list[list[str]]]
    # kind -> (metric name, unit of work per second)
    rates: dict[str, tuple[str, str]]
    # polynomial coefficients (highest first) -> stratum, for find_roots timings
    strata: dict[tuple, str] = field(default_factory=dict)


# What parsing malformed output can raise.
_UNREADABLE = (ValueError, KeyError, IndexError, TypeError, AttributeError)


def _base_problems(o: Outcome) -> list[str]:
    if o.error is not None:
        return [f"raised {o.error}"]
    if o.rc != 0:
        return [f"exit code {o.rc}, expected 0"]
    return []


def _guarded(check, *args) -> list[str]:
    """Run one operation's check; output it cannot parse is a problem too."""
    try:
        return check(*args)
    except _UNREADABLE as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]


def _read(parse, o: Outcome):
    """(parsed stdout, []) for an operation that ran, else (None, problems)."""
    problems = _base_problems(o)
    if problems:
        return None, problems
    try:
        return parse(o.out), []
    except _UNREADABLE as exc:
        return None, [f"output could not be read: {type(exc).__name__}: {exc}"]


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _r10(x: float) -> float:
    """A value as the CLI prints it: 10 significant digits."""
    return float(f"{x:.10g}")


# =========================================================================
# root-batch
# =========================================================================

@dataclass
class Case:
    """One analyze input with its roots from the exact oracle."""

    stratum: str                 # ordinary | multiset | family | extreme
    alphas: tuple[float, ...]
    beta: float
    argv_scheme: tuple[str, ...]
    roots: list[tuple[complex, int]]
    multiplicities_known: bool   # exact multiset: check clustering too
    fault: str = ""

    @property
    def trace_class(self) -> str:
        if self.stratum == "extreme":
            return "extreme"
        return "multiple" if max(oracles.effective_multiplicities(self.roots)) > 1 else "simple"


def _poly_from_factors(factors: list[tuple[list[Fraction], int]]) -> list[Fraction]:
    poly = [Fraction(1)]
    for factor, mult in factors:
        for _ in range(mult):
            out = [Fraction(0)] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
    return poly


def _alphas_of(poly: list[Fraction]) -> tuple[float, ...]:
    alphas = tuple(float(-c) for c in poly[1:])
    # The point of this stratum: the float coefficients are the exact ones.
    if any(Fraction(a) != -c for a, c in zip(alphas, poly[1:])):
        raise ValueError("multiset coefficients are not exact in binary")
    return alphas


def _case(stratum: str, alphas, beta=1.0, lam=None, known=False, fault="") -> Case:
    alphas = tuple(float(a) for a in alphas)
    if lam is None:
        argv = ("--alphas=" + ",".join(repr(a) for a in alphas),)
    else:
        argv = (f"--lambda={lam!r}",)
    roots = oracles.exact_roots(oracles.char_coeffs(alphas))
    return Case(stratum, alphas, beta, argv, roots, known, fault)


def _ordinary(rng: random.Random, degree: int) -> Case:
    """Random coefficients in [-1, 1]; redrawn until every root is simple
    (separation >= 1e-3), at least 1e-6 from the unit circle, and below 100
    in modulus."""
    while True:
        alphas = [rng.uniform(-1.0, 1.0) for _ in range(degree)]
        case = _case("ordinary", alphas)
        zs = [z for z, _ in case.roots]
        if any(m > 1 for _, m in case.roots):
            continue
        if any(abs(abs(z) - 1.0) < 1e-6 or abs(z) > 100 for z in zs):
            continue
        if any(abs(a - b) < 1e-3 for i, a in enumerate(zs) for b in zs[i + 1:]):
            continue
        return case


# Factors with binary-exact coefficients, highest degree first.
_F = Fraction
_REAL_ON = [[_F(1), _F(-1)], [_F(1), _F(1)]]
_PAIRS_ON = [[_F(1), -_F(c, 4), _F(1)] for c in (-6, -4, -2, 0, 2, 4, 6)]  # r^2 - c r + 1
_INSIDE = [[_F(1), -_F(k, 8)] for k in range(-6, 7)] + [
    [_F(1), -_F(c, 4), q] for q in (_F(1, 4), _F(9, 16)) for c in (-2, -1, 0, 1, 2)
    if _F(c, 4) ** 2 < 4 * q
]


_INSIDE_LIN = [f for f in _INSIDE if len(f) == 2]
_INSIDE_QUAD = [f for f in _INSIDE if len(f) == 3]
_DOUBLE = {"lin": _INSIDE_LIN + _REAL_ON, "quad": _INSIDE_QUAD}
_SIMPLE = {"": [None], "lin": _INSIDE_LIN + _REAL_ON, "quad": _INSIDE_QUAD + _PAIRS_ON}

# Shapes of the seeded multisets in one round: (double root factor, simple
# root factor), or "two" for a linear and a quadratic double factor, both
# inside the circle.  A fixed plan keeps the round's cost the same from seed
# to seed: a real double root costs ~2 ms per analyze, a complex double pair
# the whole 200-iteration budget (~9 ms).
MULTISET_PLAN = (
    ("lin", ""), ("lin", ""), ("lin", "lin"), ("lin", "lin"), ("lin", "quad"), ("lin", "quad"),
    ("quad", ""), ("quad", ""), ("quad", "lin"), ("quad", "lin"), ("quad", "quad"), ("two", ""),
)


def _multiset(rng: random.Random, double: str, simple: str) -> Case:
    """A scheme from a chosen root multiset of the given shape, every pair of
    distinct roots at least 0.2 apart.

    Only shapes that pass today on every input are drawn (all inputs of
    them were tried): one double root inside the circle or at 1 or -1 with at
    most one simple root, or two double roots inside the circle.  A double
    root on the circle off the real axis, or two simple roots beside a double
    one, fail on some inputs and not others; fixed examples are in FIXED.
    """
    while True:
        if double == "two":
            factors = [(rng.choice(_INSIDE_LIN), 2), (rng.choice(_INSIDE_QUAD), 2)]
        else:
            factors = [(rng.choice(_DOUBLE[double]), 2)]
            extra = rng.choice(_SIMPLE[simple])
            if extra is factors[0][0]:
                continue  # that would be a triple root
            if extra is not None:
                factors.append((extra, 1))
        case = _case("multiset", _alphas_of(_poly_from_factors(factors)), known=True)
        zs = [z for z, _ in case.roots]
        if all(abs(a - b) >= 0.2 for i, a in enumerate(zs) for b in zs[i + 1:]):
            return case


def _extreme(rng: random.Random) -> Case:
    """Large and tiny coefficients that today's solver handles: a degree-1
    scheme with a coefficient of magnitude 2^-60..2^60, or a degree-2 or -3
    scheme whose roots span 2^-9..2^9 (2^-9..2^6 at degree 3)."""
    shape = rng.choice(("linear", "quadratic", "cubic"))
    sign = lambda: rng.choice((-1, 1))  # noqa: E731
    if shape == "linear":
        return _case("extreme", [sign() * rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-60, 60)])
    if shape == "quadratic":
        roots = [sign() * _F(2) ** rng.randint(0, 9), sign() * _F(2) ** -rng.randint(0, 9)]
    else:
        roots = [sign() * _F(2) ** rng.randint(0, 6), sign() * _F(2) ** -rng.randint(0, 9),
                 sign() * _F(3, 4)]
    poly = _poly_from_factors([([_F(1), -r], 1) for r in roots])
    return _case("extreme", _alphas_of(poly), known=True)


def _family_case(lam: float, fault: str) -> Case:
    """The lambda family member, coefficients as the paper's formula gives them.
    Multiplicities are checked only where the float coefficients are the exact
    ones (lambda = 1/3)."""
    alphas = tuple(oracles.family_alphas(np.array([lam]))[0])
    beta = (3.0 * lam - 1.0) / (2.0 * lam)
    return _case("family", alphas, beta=beta, lam=lam, known=alphas == (3.0, -3.0, 1.0),
                 fault=fault)


# Inputs that do not depend on the seed, with the fault each one hits on
# today's code (see README.md, "Known faults"); "" for none.
FIXED = (
    ("multiset", [3.0, -3.0, 1.0], "cluster-radius"),          # (r-1)^3
    ("multiset", [1.5, -0.75, 0.125], "cluster-radius"),       # (r-1/2)^3
    ("multiset", [0.0, -2.0, 0.0, -1.0], ""),                  # (r^2+1)^2
    ("multiset", [-3.0, -4.25, -3.0, -1.0], "cluster-radius"),  # (r^2+1.5r+1)^2
    # (r-1)^2 (r-1/2) (r^2-r/2+1)
    ("multiset", [3.0, -4.25, 4.0, -2.25, 0.5], "cluster-radius"),
    ("extreme", [10000.0, -1.0, 0.5], "unscaled-residual"),
    ("extreme", [1e-20, 1e-20, 1e-20], "absolute-residual"),
)
# lambda = 1/3 gives exactly (3, -3, 1), the triple root of (r-1)^3.
FAMILY = ((-1.0, ""), (-9.0 / 5.0, ""), (1.0 / 3.0, "cluster-radius"))

ORDINARY_PER_DEGREE = 4
EXTREMES = 4
TABLE_VERIFIES = 6


def root_batch_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = [_ordinary(rng, d) for d in range(1, 9) for _ in range(ORDINARY_PER_DEGREE)]
    cases += [_multiset(rng, *shape) for shape in MULTISET_PLAN]
    cases += [_extreme(rng) for _ in range(EXTREMES)]
    cases += [_case(s, a, known=True, fault=f) for s, a, f in FIXED]
    cases += [_family_case(lam, f) for lam, f in FAMILY]
    rng.shuffle(cases)
    return cases


def check_analyze(case: Case, o: Outcome) -> list[str]:
    problems = _base_problems(o)
    if problems:
        return problems
    obj = json.loads(o.out)
    d = len(case.alphas)
    if obj["alphas"] != [_r10(a) for a in case.alphas]:
        problems.append("alphas differ from the input")
    if obj["beta"] != _r10(case.beta):
        problems.append("beta differs from the input")

    # Moduli against the exact oracle, tolerance widened for multiple roots.
    roots = case.roots
    eff = oracles.effective_multiplicities(roots)
    rmax = max(abs(z) for z, _ in roots)
    expected = sorted(
        ((abs(z), oracles.modulus_tolerance(e) * max(abs(z), 1e-3 * rmax))
         for (z, m), e in zip(roots, eff) for _ in range(m)),
        reverse=True,
    )
    # Roots with (nearly) equal moduli may pair up in either order once sorted,
    # so each takes the widest tolerance among its near-equals.
    expected = [
        (want, max(t for w, t in expected if abs(w - want) <= t + tol)) for want, tol in expected
    ]
    moduli = obj["moduli"]
    if len(moduli) != d:
        problems.append(f"{len(moduli)} moduli for degree {d}")
    else:
        for got, (want, tol) in zip(sorted(moduli, reverse=True), expected):
            if not _close(got, want, tol + 1e-10 * want):
                problems.append(f"modulus {got!r}, oracle {want:.12g}")
                break

    # Verdict and violations by the root condition applied to the exact roots.
    outside = [z for z, m in roots if abs(z) > 1.0 + ON_CIRCLE_TOL]
    on_multiple = sorted(m for z, m in roots if abs(abs(z) - 1.0) <= ON_CIRCLE_TOL and m > 1)
    zero_stable = not outside and not on_multiple
    if obj["zero_stable"] != zero_stable:
        problems.append(f"zero_stable={obj['zero_stable']}, oracle {zero_stable}")
    named = sorted(
        int(m.group(1)) for v in obj["violations"]
        for m in [re.search(r"multiplicity (\d+)", v)] if m
    )
    if named != on_multiple:
        problems.append(f"violations name multiplicities {named}, oracle {on_multiple}")
    n_modulus = sum("has modulus" in v for v in obj["violations"])
    if n_modulus != len(outside):
        problems.append(f"{n_modulus} modulus violations, oracle {len(outside)} roots outside")

    # A root of multiplicity m is reported m times with one value.
    if case.multiplicities_known:
        for z, m in roots:
            if m < 2:
                continue
            tol = oracles.modulus_tolerance(m) * max(abs(z), 1e-3 * rmax) + 1e-10
            near = [x for x in moduli if abs(x - abs(z)) <= tol]
            if max((near.count(x) for x in near), default=0) < m:
                problems.append(f"root of modulus {abs(z):.6g} with multiplicity {m} "
                                f"not reported as one root: {near}")

    sum_alpha, moment = oracles.fsum_moment(case.alphas, case.beta)
    if obj["sum_alpha"] != _r10(sum_alpha) or obj["moment"] != _r10(moment):
        problems.append("sum_alpha or moment differs from the exact sums")
    consistent = abs(sum_alpha - 1.0) <= 1e-9 and abs(moment - 1.0) <= 1e-9
    if obj["consistent"] != consistent:
        problems.append(f"consistent={obj['consistent']}, expected {consistent}")
    return problems


_ROW = re.compile(
    r"row (\d+): (PASS|FAIL) computed=\[([^\]]*)\] expected=\[([^\]]*)\] "
    r"zs_computed=(True|False) zs_expected=(True|False)$"
)


def check_table_verify(o: Outcome) -> list[str]:
    problems = _base_problems(o)
    if problems:
        return problems
    lines = o.out.splitlines()
    if not lines or lines[-1] != f"{len(oracles.TABLE8)}/{len(oracles.TABLE8)} rows pass":
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    rows = [_ROW.match(line) for line in lines[:-1]]
    if len(rows) != len(oracles.TABLE8) or not all(rows):
        return problems + ["row lines malformed"]
    for m, (alphas, _, zero_stable) in zip(rows, oracles.TABLE8):
        computed = [float(x) for x in m.group(3).split(",")]
        eig = oracles.companion_moduli(alphas)
        if any(abs(c - e) > 0.005 + 1e-9 for c, e in zip(computed, eig)):
            problems.append(f"row {m.group(1)} moduli {computed}, eigenvalues {eig}")
        for flag in (m.group(5), m.group(6)):
            if (flag == "True") != zero_stable:
                problems.append(f"row {m.group(1)} verdict {flag}, Table 8 says {zero_stable}")
        if m.group(2) != "PASS":
            problems.append(f"row {m.group(1)} reported FAIL")
    return problems


def _table8_strata() -> dict[tuple, str]:
    """find_roots input class of each Table 8 characteristic polynomial."""
    return {tuple(oracles.char_coeffs(a)): _case("table8", a).trace_class
            for a, _, _ in oracles.TABLE8}


def root_batch(seed: int) -> Workload:
    cases = root_batch_cases(seed)
    ops, checks = [], []
    # table-verify interleaved evenly through the round
    every = len(cases) // TABLE_VERIFIES
    for i, case in enumerate(cases):
        ops.append(Op(("analyze", *case.argv_scheme, "--format", "json"), "a", 1.0,
                      f"analyze {case.stratum} {' '.join(case.argv_scheme)}", case.fault))
        checks.append(lambda o, c=case: _guarded(check_analyze, c, o))
        if i % every == every - 1 and i < every * TABLE_VERIFIES:
            ops.append(Op(("table-verify",), "b", 1.0, "table-verify"))
            checks.append(lambda o: _guarded(check_table_verify, o))
    strata = _table8_strata()
    for case in cases:
        strata[tuple(oracles.char_coeffs(case.alphas))] = case.trace_class
    return Workload(
        "root-batch", ops,
        lambda outs: [c(o) for c, o in zip(checks, outs)],
        {"a": ("analyze_per_s", "commands/s"), "b": ("table_verify_per_s", "commands/s")},
        strata,
    )


# =========================================================================
# lambda-scan
# =========================================================================

SCAN_STEP = 1e-3
SCAN_COLUMNS = ["lambda", "alpha0", "alpha1", "alpha2", "beta", "max_modulus", "zero_stable"]


def _scan_grid(k_min: int, k_max: int) -> np.ndarray:
    """Grid lambdas k*step, without the points at 0 and -1 (1/3 is off-grid)."""
    ks = np.arange(k_min, k_max + 1)
    ks = ks[(ks != 0) & (ks != -1000)]
    return ks * SCAN_STEP


def _check_scan_rows(rows: np.ndarray, zs: np.ndarray, grid: np.ndarray) -> list[str]:
    """rows: (n, 6) floats lambda, alpha0..2, beta, max_modulus as printed."""
    if rows.shape[0] != grid.size:
        return [f"{rows.shape[0]} rows, grid has {grid.size} points"]
    problems = []
    lam = rows[:, 0]
    if np.any(np.abs(lam - grid) > 1e-9 * np.maximum(np.abs(grid), 1e-3)):
        problems.append("lambda column is not the requested grid")
    alphas = oracles.family_alphas(grid)
    if np.any(np.abs(rows[:, 1:4] - alphas) > 1e-9 * np.abs(alphas) + 1e-300):
        problems.append("alphas differ from the family formula")
    beta = (3.0 * grid - 1.0) / (2.0 * grid)
    if np.any(np.abs(rows[:, 4] - beta) > 1e-9 * np.abs(beta)):
        problems.append("beta differs from the family formula")
    if np.any(np.abs(rows[:, 1:4].sum(axis=1) - 1.0) > 1e-9 * (1.0 + np.abs(rows[:, 1:4]).sum(axis=1))):
        problems.append("alphas do not sum to 1")
    want, tol = oracles.family_max_nonprincipal(alphas)
    bad = np.abs(rows[:, 5] - want) > tol + 1e-9 * want
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"max_modulus {rows[i, 5]!r} at lambda {grid[i]:.4g}, eigenvalues {want[i]:.12g}")
    if np.any(zs != ((grid < -1.0) | (grid > 1.0 / 3.0))):
        problems.append("zero_stable differs from (lambda < -1 or lambda > 1/3)")
    stable = np.where(zs, rows[:, 5], np.inf)
    i = int(np.argmin(stable))
    if abs(grid[i] + 1.8) > 1e-9 or abs(stable[i] - 1.0 / 3.0) > 1e-6:
        problems.append(f"argmin of the rows is lambda={grid[i]:.6g}, expected -1.8")
    return problems


def _check_argmin_line(err: str) -> list[str]:
    m = re.search(r"argmin lambda=(\S+) max_modulus=(\S+)", err)
    if not m or abs(float(m.group(1)) + 1.8) > 1e-9 or abs(float(m.group(2)) - 1 / 3) > 1e-6:
        return [f"argmin line {err.strip()!r}, expected lambda=-1.8 max_modulus=1/3"]
    return []


def _parse_scan_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    reader = csv.reader(io.StringIO(text))
    if next(reader) != SCAN_COLUMNS:
        raise ValueError("CSV header")
    body = list(reader)
    rows = np.array([[float(x) for x in r[:6]] for r in body])
    zs = np.array([r[6] == "true" for r in body])
    return rows, zs


def _parse_scan_json(text: str) -> tuple[np.ndarray, np.ndarray]:
    objs = json.loads(text)
    if any(list(o) != SCAN_COLUMNS for o in objs):
        raise ValueError("JSON keys")
    rows = np.array([[o[k] for k in SCAN_COLUMNS[:6]] for o in objs], dtype=float)
    zs = np.array([o["zero_stable"] is True for o in objs])
    return rows, zs


def lambda_scan(seed: int) -> Workload:
    rng = random.Random(seed)
    # Interval edges on the step grid, shifted by up to 50 steps per seed.
    k_min, k_max = -10000 - rng.randint(0, 50), 10000 + rng.randint(0, 50)
    grid = _scan_grid(k_min, k_max)
    base = ("lambda-scan", f"--min={k_min * SCAN_STEP!r}", f"--max={k_max * SCAN_STEP!r}",
            f"--step={SCAN_STEP!r}")
    ops = [
        Op(base + ("--format", "csv"), "a", float(grid.size), "lambda-scan csv"),
        Op(base + ("--format", "json"), "b", float(grid.size), "lambda-scan json"),
    ]

    def check(outs: list[Outcome]) -> list[list[str]]:
        parsed, result = [], []
        for o, parse in zip(outs, (_parse_scan_csv, _parse_scan_json)):
            rows, problems = _read(parse, o)
            if rows is not None:
                problems = _check_scan_rows(*rows, grid) + _check_argmin_line(o.err)
            parsed.append(rows)
            result.append(problems)
        if all(p is not None for p in parsed):
            (rc, zc), (rj, zj) = parsed
            if rc.shape != rj.shape or not (np.array_equal(rc, rj) and np.array_equal(zc, zj)):
                result[1].append("JSON rows differ from CSV rows")
        return result

    return Workload("lambda-scan", ops, check,
                    {"a": ("scan_csv_points_per_s", "points/s"),
                     "b": ("scan_json_points_per_s", "points/s")})


# =========================================================================
# robustness-sweep
# =========================================================================

NOISE_SPECS = ("none", "gaussian:0.02", "gaussian:0.1", "uniform:-0.1:0.1", "constant:0.05")
SWEEP_DEPTH, SWEEP_WIDTH, SWEEP_TRIALS = 56, 64, 5
SWEEP_FIELDS = ["scheme_id", "alphas", "beta", "zero_stable", "noise_kind", "noise_param",
                "mean_gap", "std_gap", "blew_up_fraction"]


def _sweep_cells(fmt: str, text: str) -> list[tuple]:
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        if next(reader) != SWEEP_FIELDS:
            raise ValueError("CSV header")
        return [
            (int(r[0]), tuple(float(a) for a in r[1].split(";")), float(r[2]), r[3] == "true",
             r[4], *(float(x) for x in r[5:]))
            for r in reader
        ]
    objs = json.loads(text)
    if any(list(o) != SWEEP_FIELDS for o in objs):
        raise ValueError("JSON keys")
    return [
        (o["scheme_id"], tuple(o["alphas"]), o["beta"], o["zero_stable"] is True,
         o["noise_kind"], *(float(o[k]) for k in SWEEP_FIELDS[5:]))
        for o in objs
    ]


def _check_sweep_cells(cells: list[tuple]) -> list[str]:
    want = len(oracles.TABLE8) * len(NOISE_SPECS)
    if len(cells) != want:
        return [f"{len(cells)} cells, expected {want}"]
    problems = []
    kinds = [s.split(":")[0] for s in NOISE_SPECS]
    for i, cell in enumerate(cells):
        row_id, alphas, beta, zs, kind = cell[:5]
        row_alphas, row_beta, row_zs = oracles.TABLE8[i // len(NOISE_SPECS)]
        if row_id != i // len(NOISE_SPECS) or alphas != tuple(_r10(a) for a in row_alphas) \
                or beta != _r10(row_beta) or kind != kinds[i % len(NOISE_SPECS)]:
            problems.append(f"cell {i} is not Table 8 row {i // len(NOISE_SPECS) + 1} x {kinds[i % len(NOISE_SPECS)]}")
        if zs != row_zs:
            problems.append(f"cell {i} zero_stable={zs}, Table 8 says {row_zs}")
        if cell[8] != 0.0:
            problems.append(f"cell {i} blew up at depth {SWEEP_DEPTH}")
    for j, spec in enumerate(NOISE_SPECS):
        gaps = [(c[3], c[6]) for c in cells[j::len(NOISE_SPECS)]]
        if spec == "none":
            if any(g != 0.0 for _, g in gaps):
                problems.append("noise 'none' gives a non-zero mean_gap")
            continue
        stable = max(g for z, g in gaps if z)
        unstable = min(g for z, g in gaps if not z)
        if not stable < unstable:
            problems.append(f"{spec}: largest zero-stable gap {stable:.4g} is not below "
                            f"smallest non-zero-stable gap {unstable:.4g}")
    return problems


def robustness_sweep(seed: int) -> Workload:
    sweep_seed = random.Random(seed).randint(1, 2**31 - 1)
    base = ["propagate", "--table8"] + [f"--noise={s}" for s in NOISE_SPECS] + [
        "--depth", str(SWEEP_DEPTH), "--width", str(SWEEP_WIDTH),
        "--trials", str(SWEEP_TRIALS), "--seed", str(sweep_seed)]
    cells = float(len(oracles.TABLE8) * len(NOISE_SPECS) * SWEEP_TRIALS)
    ops = [Op(tuple(base + ["--format", "csv"]), "a", cells, "propagate csv"),
           Op(tuple(base + ["--format", "json"]), "b", cells, "propagate json")]

    def check(outs: list[Outcome]) -> list[list[str]]:
        parsed, result = [], []
        for o, fmt in zip(outs, ("csv", "json")):
            cells_, problems = _read(lambda text: _sweep_cells(fmt, text), o)
            if cells_ is not None:
                problems = _check_sweep_cells(cells_)
            parsed.append(cells_)
            result.append(problems)
        if all(p is not None for p in parsed) and parsed[0] != parsed[1]:
            result[1].append("JSON cells differ from CSV cells")
        return result

    return Workload("robustness-sweep", ops, check,
                    {"a": ("sweep_trials_per_s", "cells/s"),
                     "b": ("sweep_json_trials_per_s", "cells/s")},
                    _table8_strata())


# =========================================================================
# ivp
# =========================================================================

DECAY_STEPS = 100_000
PROBE_STEPS = 10_000
PROBE_EPS = 1e-6
IVP_LAMBDA = -1.8


def _final_state_problems(n_rows: int, steps: int, t: float, y: list[float],
                          exact: list[float], h: float) -> list[str]:
    problems = []
    if n_rows != steps + 3:
        problems.append(f"{n_rows} rows for {steps} steps of a 3-step scheme")
    if abs(t - (steps + 2) * h) > 1e-9 * t:
        problems.append(f"final t={t!r}, expected {(steps + 2) * h!r}")
    # Global error of a second-order scheme, plus 10-digit output rounding.
    bound = h * h * max(1.0, t) + 1e-10
    for got, want in zip(y, exact):
        if not abs(got - want) <= bound:
            problems.append(f"final state {got!r}, exact {want!r}, bound {bound:.3g}")
    return problems


def ivp_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    h_decay = rng.uniform(0.8e-5, 1.2e-5)
    h_osc = rng.uniform(0.8e-4, 1.2e-4)
    lam = f"--lambda={IVP_LAMBDA!r}"
    ops = [
        Op(("integrate", lam, "--preset", "decay", f"--h={h_decay!r}", "--steps", str(DECAY_STEPS)),
           "a", float(DECAY_STEPS), "integrate decay csv"),
    ] + [
        # Two short probes rather than one long one: shorter commands are
        # timed against the calibration kernel at a finer grain.
        Op(("integrate", lam, "--preset", "oscillator", f"--h={h_osc!r}", "--steps", str(PROBE_STEPS),
            f"--probe={PROBE_EPS!r}", "--format", "json", "--seed", str(rng.randint(1, 2**31 - 1))),
           "b", float(PROBE_STEPS), "integrate oscillator probe json")
        for _ in range(2)
    ]

    def check_decay(o: Outcome) -> list[str]:
        problems = _base_problems(o)
        if problems:
            return problems
        lines = o.out.splitlines()
        if lines[0] != "n,t,y0":
            return ["CSV header"]
        _, t, y = lines[-1].split(",")
        return _final_state_problems(len(lines) - 1, DECAY_STEPS, float(t), [float(y)],
                                     [math.exp(-float(t))], h_decay)

    def check_probe(o: Outcome) -> list[str]:
        problems = _base_problems(o)
        if problems:
            return problems
        rows = json.loads(o.out)
        last = rows[-1]
        t = last["t"]
        problems = _final_state_problems(len(rows), PROBE_STEPS, t, last["y"],
                                         [math.cos(t), math.sin(t)], h_osc)
        m = re.search(r"probe amplification ratio=(\S+)", o.err)
        ratio = float(m.group(1)) if m else math.inf
        if not (math.isfinite(ratio) and ratio <= 10.0):
            problems.append(f"probe ratio {m.group(1) if m else 'missing'}, expected finite and <= 10")
        return problems

    return Workload("ivp", ops, lambda outs: [check_decay(outs[0])] + [check_probe(o) for o in outs[1:]],
                    {"a": ("integrate_steps_per_s", "steps/s"),
                     "b": ("probe_steps_per_s", "steps/s")})


WORKLOADS = {
    "root-batch": root_batch,
    "lambda-scan": lambda_scan,
    "robustness-sweep": robustness_sweep,
    "ivp": ivp_workload,
}
