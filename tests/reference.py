"""Test-only code: reference implementations and estimators that the
package itself does not need.

- ``csv_table``/``json_table``: the row writers that ``zstab._table``
  replaced.  They take one tuple of raw values per row, format every cell
  on its own and hand the rows to ``csv.writer`` and ``json.dumps``.  The
  columnar writers must produce the same bytes.
- ``compare_propagations``/``PropagationReport``: two 1-D propagations of
  one scheme and their per-depth sup-norm gaps, the oracle that the
  batched ``robustness_sweep`` is checked against.
- ``lipschitz_estimate``: an empirical Lipschitz ratio of one block.
- ``horner``/``monic``: a polynomial's value at a point and its monic
  form, which only the tests and the companion oracle use.
- ``companion_power_modulus``/``companion_spectral_radius``: the dominant
  characteristic root modulus by companion-matrix power iteration,
  independent of the Aberth root finder.
- ``zero_stability_probe``: the probe as it was before it took the clean
  trajectory from its caller: it integrates the clean run itself and takes
  its per-step gaps in a loop over the state pairs, the rule the array
  reduction replaced.
- ``recur``: ``zstab.schemes._recur`` as it was before it converted its
  coefficients to arrays, summed without a generator and tested each step
  for finiteness once: Python-level coefficients, a ``sum`` that starts
  from the int 0, and ``np.isfinite(nxt).all()`` on every step.  The loop
  must produce the same bytes.
- ``exact_roots``: the roots of a polynomial's exact float coefficients
  with their multiplicities, from sympy's square-free factorisation and
  mpmath at raised precision, sharing no code with ``find_roots``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

import mpmath
import numpy as np
import sympy

from zstab.ivp import (
    DivergenceSeries,
    IVPProblem,
    _unit_direction,
    integrate,
    startup_states,
)
from zstab.polyroots import Polynomial
from zstab.propagation import _STD_FLOOR, BlockMap, _log_slope, propagate
from zstab.schemes import Scheme, characteristic_polynomial

_DIGITS = ".10g"
_format = float.__format__


def _fmt(x: float) -> str:
    return _format(float(x), _DIGITS)


def _text(v) -> str:
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ";".join(map(_text, v))
    return str(v)


def _json(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            return v
        # A finite float whose 10 digits overflow is written as the largest.
        rounded = float(_fmt(v))
        return rounded if math.isfinite(rounded) else math.copysign(sys.float_info.max, v)
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (tuple, list)):
        return [_json(x) for x in v]
    return v


def _cells(row) -> list[str]:
    return [_format(v, _DIGITS) if type(v) is float else _text(v) for v in row]


def _spread(row) -> list:
    flat = []
    for v in row:
        if isinstance(v, np.ndarray):
            flat.extend(v.tolist())
        else:
            flat.append(v)
    return flat


def csv_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """A header line plus one CSV line per row."""
    rows = iter(rows)
    first = next(rows, None)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if first is None or not any(isinstance(v, np.ndarray) for v in first):
        writer.writerow(columns)
        writer.writerows(map(_cells, chain([] if first is None else [first], rows)))
        return buf.getvalue()
    header = []
    for name, v in zip(columns, first):
        if isinstance(v, np.ndarray):
            header.extend(f"{name}{i}" for i in range(v.size))
        else:
            header.append(name)
    writer.writerow(header)
    writer.writerows(_cells(_spread(row)) for row in chain([first], rows))
    return buf.getvalue()


def json_table(columns: Sequence[str], rows: Iterable[tuple]) -> str:
    """A JSON list with one object per row, keyed by column name."""
    objects = [dict(zip(columns, map(_json, row))) for row in rows]
    return json.dumps(objects, indent=2) + "\n"


def json_record(keys: Sequence[str], values: Sequence) -> str:
    """One row as a JSON object."""
    return json.dumps(dict(zip(keys, map(_json, values))), indent=2) + "\n"


def rows(columns: Sequence) -> list[tuple]:
    """Columns as the row writers take them: one tuple per row, a 1-D
    array's values as Python scalars and a 2-D array's rows as arrays."""
    return list(zip(*(
        c.tolist() if isinstance(c, np.ndarray) and c.ndim == 1 else list(c)
        for c in columns
    )))


@dataclass(frozen=True)
class PropagationReport:
    """Gap evolution between two propagations of the same scheme."""

    per_depth_gap: tuple[float, ...]
    final_gap: float
    growth_slope: Optional[float]
    blew_up_at: Optional[int] = None


def compare_propagations(
    s: Scheme,
    blocks: Sequence,
    init_a: Sequence[np.ndarray],
    init_b: Sequence[np.ndarray],
    depth: int,
    fit_from: Optional[int] = None,
) -> PropagationReport:
    """Propagate two initializations and report per-depth sup-norm gaps.

    ``growth_slope`` is the least-squares slope of log gap against depth,
    fitted from ``fit_from`` (default: halfway) onward over positive finite
    gaps; None when fewer than 10 such gaps exist.
    """
    _, hist_a, blew_a = propagate(s, blocks, init_a, depth)
    _, hist_b, blew_b = propagate(s, blocks, init_b, depth)
    gaps = tuple(float(np.max(np.abs(a - b))) for a, b in zip(hist_a, hist_b))
    blew_up_at = min((b for b in (blew_a, blew_b) if b is not None), default=None)

    start = fit_from if fit_from is not None else len(gaps) // 2
    final_gap = gaps[-1] if blew_up_at is None else math.inf
    return PropagationReport(
        per_depth_gap=gaps,
        final_gap=final_gap,
        growth_slope=_log_slope(gaps, start),
        blew_up_at=blew_up_at,
    )


def standardize(v: np.ndarray) -> np.ndarray:
    """(v - mean) / std along the last axis as a new array, through
    ``np.mean`` and ``np.std``; rows whose std is below the floor map to
    zeros."""
    mean = np.mean(v, axis=-1, keepdims=True)
    std = np.std(v, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (v - mean) / std
    return np.where(std < _STD_FLOOR, 0.0, out)


def lipschitz_estimate(
    block: BlockMap, n_pairs: int = 1000, seed: int = 0, box: float = 2.0
) -> float:
    """Empirical Lipschitz ratio of the block over sampled point pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        y = rng.uniform(-box, box, block.width)
        yh = rng.uniform(-box, box, block.width)
        denom = float(np.linalg.norm(y - yh))
        if denom == 0.0:
            continue
        ratio = float(np.linalg.norm(block(y) - block(yh))) / denom
        worst = max(worst, ratio)
    return worst


def horner(p: Polynomial, z: complex) -> complex:
    """Horner evaluation of ``p`` at ``z``."""
    acc = 0j
    for c in p.coefficients:
        acc = acc * z + c
    return acc


def monic(p: Polynomial) -> Polynomial:
    lead = p.coefficients[0]
    return Polynomial([c / lead for c in p.coefficients])


class SpectralRadiusEstimate(NamedTuple):
    value: float
    converged: bool


def companion_power_modulus(
    p: Polynomial, iterations: int = 300, seed: int = 12345
) -> SpectralRadiusEstimate:
    """Dominant root modulus of ``p`` via companion-matrix power iteration.

    Independent of the Aberth path.  The estimate is the fitted slope of
    log ||C^k v|| over the tail of the iteration, which also handles
    complex-conjugate dominant pairs (where the plain Rayleigh quotient
    oscillates).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    mon = monic(p)
    n = mon.degree
    if n == 0:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return SpectralRadiusEstimate(abs(mon.coefficients[1]), True)

    companion = np.zeros((n, n))
    companion[0, :] = [-c for c in mon.coefficients[1:]]
    companion[1:, :-1] = np.eye(n - 1)

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    log_norms = [0.0]
    for _ in range(iterations):
        v = companion @ v
        norm = np.linalg.norm(v)
        if norm == 0.0:
            # Nilpotent direction; the dominant modulus of what remains is 0.
            return SpectralRadiusEstimate(0.0, True)
        log_norms.append(log_norms[-1] + np.log(norm))
        v /= norm

    tail = max(4, len(log_norms) // 2)
    ks = np.arange(len(log_norms) - tail, len(log_norms))
    ys = np.asarray(log_norms[-tail:])
    slope, _ = np.polyfit(ks, ys, 1)
    fit = np.polyval([slope, ys[0] - slope * ks[0]], ks)
    converged = bool(np.max(np.abs(fit - ys)) < 1e-6 * (1.0 + np.abs(ys[-1])))
    return SpectralRadiusEstimate(float(np.exp(slope)), converged)


def companion_spectral_radius(
    s: Scheme, iterations: int = 300
) -> SpectralRadiusEstimate:
    """Power-iteration estimate of the dominant characteristic root modulus.

    Agrees with the max modulus from root_condition to 1e-6 for a
    well-separated dominant root.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return companion_power_modulus(characteristic_polynomial(s), iterations=iterations)


def zero_stability_probe(
    s: Scheme, p: IVPProblem, eps: float, h: float, n_steps: int, seed: int = 1
) -> DivergenceSeries:
    """``zstab.ivp.zero_stability_probe`` with its gaps taken one state pair
    at a time, up to the shorter run (as ``zip`` stops)."""
    d = s.order
    seed_states = startup_states(p, h, d)
    direction = _unit_direction(p.dimension, seed)
    shifted = [y + eps * direction for y in seed_states]
    clean = integrate(s, IVPProblem(p.rhs, p.t_start, tuple(seed_states)), h, n_steps)
    noisy = integrate(s, IVPProblem(p.rhs, p.t_start, tuple(shifted)), h, n_steps)

    gaps = tuple(
        float(np.max(np.abs(a - b))) for a, b in zip(clean.states, noisy.states)
    )
    initial_gap = float(np.max(gaps[:d]))  # a nan gap anywhere is the maximum
    blew_up_at = min(
        (t.blew_up_at for t in (clean, noisy) if t.blew_up_at is not None), default=None
    )
    ratio = float(np.max(gaps)) / initial_gap if initial_gap > 0 else math.inf
    if blew_up_at is not None:
        ratio = math.inf
    return DivergenceSeries(
        per_step=gaps, initial_gap=initial_gap, ratio=ratio, blew_up_at=blew_up_at
    )


def recur(alphas: Sequence, coef, history, depth: int, f) -> np.ndarray:
    """``zstab.schemes._recur`` with a generator sum and a per-step
    ``np.isfinite(...).all()``: same arguments, same appends, same return."""
    blew = np.zeros(np.shape(history[-1])[:-1], dtype=int)
    with np.errstate(all="ignore"):
        for n in range(depth):
            nxt = sum(a * history[-1 - i] for i, a in enumerate(alphas))
            nxt = nxt + coef * f(n, history[-1])
            if not np.isfinite(nxt).all():
                bad = ~np.all(np.isfinite(nxt).reshape(blew.shape + (-1,)), axis=-1)
                blew = np.where(bad & (blew == 0), n + 1, blew)
                if np.all(blew):
                    break
            history.append(nxt)
    return blew


def _rational(x: float) -> sympy.Rational:
    return sympy.Rational(*x.as_integer_ratio())


def exact_roots(coefficients: Sequence[complex]) -> list[tuple[complex, int]]:
    """Roots of the polynomial whose coefficients (highest degree first) are
    exactly these floats, each with its multiplicity.

    ``sympy.sqf_list`` factors the dyadic rationals square-free over Q, or
    Q(i) for non-real ones; ``mpmath.polyroots`` then finds the simple roots
    of each factor, accurate far beyond double precision.  It works at 200
    bits plus twice the factor's binary exponent span, so that a root far
    smaller than the rest does not round away.
    """
    x = sympy.Symbol("x")
    exact = [_rational(c.real) + sympy.I * _rational(c.imag) for c in map(complex, coefficients)]
    _, factors = sympy.sqf_list(sympy.Poly(exact, x))
    roots = []
    for factor, mult in factors:
        parts = [c.as_real_imag() for c in factor.all_coeffs()]
        exponents = [abs(r.p).bit_length() - r.q.bit_length() for part in parts for r in part if r]
        prec = 200 + 2 * (max(exponents) - min(exponents))
        with mpmath.workprec(prec):
            coeffs = [
                mpmath.mpc(mpmath.mpf(re.p) / re.q, mpmath.mpf(im.p) / im.q) for re, im in parts
            ]
            if coeffs[-1] == 0:  # a square-free factor holds z at most once
                roots.append((0j, mult))
                coeffs = coeffs[:-1]
            if len(coeffs) == 1:
                found = []
            elif len(coeffs) == 2:
                found = [-coeffs[1] / coeffs[0]]
            else:
                # Solve for w = z / s, s the geometric mean of the root
                # moduli, so that the iteration starts near roots of any size.
                n = len(coeffs) - 1
                s = abs(coeffs[-1] / coeffs[0]) ** (mpmath.mpf(1) / n)
                scaled = [c / s**i for i, c in enumerate(coeffs)]
                found = [s * w for w in mpmath.polyroots(scaled, maxsteps=200, extraprec=prec)]
            roots.extend((complex(z), mult) for z in found)
    return roots
