"""Explicit multistep schemes and their stability / consistency analysis.

A scheme advances the recurrence

    y_{n+1} = sum_i alpha_i * y_{n-i} + h * beta * f(t_n, y_n)

with i = 0 .. d-1; ``_recur`` is the one loop that runs it, for the ODE
solver and the block stack alike.  Zero stability is decided by the root
condition on the characteristic polynomial rho^d - sum_i alpha_i
rho^{d-1-i}; beta plays no part in it.  Consistency requires
sum(alpha) = 1 and beta - sum(i * alpha_i) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ._lazy import np
from ._table import fmt
from .polyroots import Polynomial, RootSet, _scaled, find_roots

__all__ = [
    "Scheme",
    "StabilityReport",
    "ConsistencyReport",
    "characteristic_polynomial",
    "root_condition",
    "consistency_check",
    "first_order",
    "lm_second_order",
    "ROOT_CONDITION_TOL",
    "CONSISTENCY_TOL",
]

# Roots within this of the unit circle count as on it.
ROOT_CONDITION_TOL = 1e-8
# Largest accepted deviation of each consistency condition from 1.
CONSISTENCY_TOL = 1e-9
# The most elements whose finiteness ``_recur`` tests with one dot product.
# OpenBLAS runs a longer dot on all its threads, and their spinning then
# competes with the sweep's draw thread: with default threading on a 2-vCPU
# host, the Table 8 sweep (16,000-element states) took 45 ms at best of 60
# with one dot per state, 31 ms with slices of this size.
_DOT_SLICE = 2**13


@dataclass(frozen=True)
class Scheme:
    """Coefficients of an explicit d-step update.

    ``alphas[i]`` weights y_{n-i}; ``beta`` weights h*f(t_n, y_n).  Stored
    as floats exactly as given, no normalization; empty or non-finite
    coefficients are rejected.
    """

    alphas: tuple[float, ...]
    beta: float

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        beta = float(self.beta)
        if not alphas:
            raise ValueError("a scheme needs at least one alpha coefficient")
        if not all(math.isfinite(a) for a in alphas) or not math.isfinite(beta):
            raise ValueError("scheme coefficients must be finite")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "beta", beta)

    @property
    def order(self) -> int:
        return len(self.alphas)

    def label(self) -> str:
        alphas = ",".join(map(fmt, self.alphas))
        return f"alphas=[{alphas}] beta={fmt(self.beta)}"


def first_order(alpha: float) -> Scheme:
    """One-step scheme y_{n+1} = alpha*y_n + h*f; alpha=1 is Euler."""
    return Scheme((alpha,), 1.0)


def lm_second_order(k: float) -> Scheme:
    """Two-step scheme y_{n+1} = (1-k)y_n + k*y_{n-1} + (2k+1)h*f."""
    return Scheme((1.0 - k, k), 2.0 * k + 1.0)


def _recur(
    alphas: Sequence,
    coef,
    history,
    args: Iterable,
    f: Callable[[Any, Any], Any],
) -> np.ndarray:
    """Advance y_{n+1} = sum_i alphas[i] * y_{n-i} + coef * f(x_n, y_n).

    The one multistep loop of the package: ``integrate``, ``propagate``,
    ``growth_rate`` and ``robustness_sweep`` all run on it.  ``history``
    holds at least ``len(alphas)`` states, oldest first, and every new state
    is appended to it (a bounded deque keeps only the last few).  ``args``
    holds f's first argument for each step, x_0, x_1, ..., and its length is
    the number of steps: ``propagate``, ``growth_rate`` and the sweep pass
    ``range(depth)``, the step index, and ``integrate`` passes the step
    times, so that the rhs itself is f.  ``n`` counts steps from 0.
    Returns, per row, the first step n + 1 at which the row turned
    non-finite (0 if it never did).  Once every row has blown up the loop
    stops without appending the non-finite state.
    Overflow inside a run is reported only through that return value, never
    as a warning.

    The states are of one of two number types, decided by the newest one:

    - arrays of shape (..., width): every axis but the last indexes an
      independent run, a *row* (a single state is one row); the
      coefficients, converted once to float64 arrays, broadcast against the
      state, so one call advances many runs at once;
    - Python floats (or numpy float scalars), one run of one feature: the
      coefficients are converted once to floats, ``f`` returns a float and
      the return value is 0-d.

    Each step computes ((0 + a_0 y_n) + a_1 y_{n-1}) + ... + coef f in that
    order, so both types give the same IEEE sums: the leading 0 is kept
    because it turns a sum of -0.0 terms into +0.0.  A step is tested for
    finiteness once: a float by its product with zero, which is zero only
    if it is finite, however large; an array by its dot product with
    itself, which is finite only if every element is.  That dot product
    also overflows beyond ~1e154, so a step that fails it is tested again
    by a dot product with zeros, and only a non-finite step has its rows
    examined one by one.  A state of more than ``_DOT_SLICE`` = 2^13
    elements is tested the same way slice by slice by ``_finite``, each
    slice at most 2^13 elements long, so that no dot product wakes a second
    BLAS thread; a smaller state keeps the one test, made inline.  Once a
    row has blown up, only the live rows enter these products, so the rows
    that stay finite keep the one test per step.
    """
    if isinstance(history[-1], float):
        with np.errstate(all="ignore"):
            return _recur_floats(alphas, coef, history, args, f)
    blew = np.zeros(np.shape(history[-1])[:-1], dtype=int)
    terms = [(np.asarray(a, dtype=float), -1 - i) for i, a in enumerate(alphas)]
    coef = np.asarray(coef, dtype=float)
    zero = np.zeros(())
    live = None  # the elements of the live rows, once a row has blown up
    with np.errstate(all="ignore"):
        for n, x in enumerate(args):
            nxt = zero
            for a, i in terms:
                term = a * history[i]
                nxt = nxt + term
                # The old sum is freed before the term, as ``sum`` frees
                # them: with the term freed first, a Table 8 sweep's ~150 KB
                # states took 7282 minor page faults per sweep, against 5509.
                del term
            nxt = nxt + coef * f(x, history[-1])
            flat = nxt.ravel() if live is None else nxt.take(live)
            # _finite's test, made inline up to _DOT_SLICE elements: on the
            # probe's 4-element states a call per step is a measurable cost.
            if flat.size <= _DOT_SLICE:
                finite = flat.dot(flat) < math.inf or flat.dot(np.zeros(flat.size)) == 0.0
            else:
                finite = _finite(flat)
            if not finite:
                bad = ~np.all(np.isfinite(nxt).reshape(blew.shape + (-1,)), axis=-1)
                blew = np.where(bad & (blew == 0), n + 1, blew)
                if np.all(blew):
                    break
                live = np.flatnonzero(np.broadcast_to((blew == 0)[..., None], nxt.shape))
            history.append(nxt)
    return blew


def _finite(flat: np.ndarray) -> bool:
    """Whether every element of the 1-D float array ``flat`` is finite: its
    dot product with itself is finite only if every element is, and where
    that overflowed, its dot product with zeros is zero only if every
    element is finite.  An array of more than ``_DOT_SLICE`` elements is
    tested so slice by slice."""
    if flat.size > _DOT_SLICE:
        return all(_finite(flat[i : i + _DOT_SLICE]) for i in range(0, flat.size, _DOT_SLICE))
    # Zeros only where the self-dot fails: a state-sized zero vector kept
    # for every step added ~0.3 MiB to the peak RSS of the Table 8 sweep
    # that perfbench runs.
    return flat.dot(flat) < math.inf or flat.dot(np.zeros(flat.size)) == 0.0


def _recur_floats(alphas: Sequence, coef, history, args: Iterable, f) -> np.ndarray:
    """``_recur`` on a run of Python floats, with the same sums in the same
    order; the caller holds numpy's warnings off."""
    terms = [(float(a), -1 - i) for i, a in enumerate(alphas)]
    coef = float(coef)
    append = history.append
    for n, x in enumerate(args):
        nxt = 0.0
        for a, i in terms:
            nxt = nxt + a * history[i]
        nxt = nxt + coef * f(x, history[-1])
        if nxt * 0.0 != 0.0:  # zero only if nxt is finite, however large
            return np.array(n + 1)
        append(nxt)
    return np.array(0)


def characteristic_polynomial(s: Scheme) -> Polynomial:
    """Monic rho^d - sum_i alpha_i rho^{d-1-i}.  Beta does not appear."""
    return Polynomial([1.0] + [-a for a in s.alphas])


@dataclass(frozen=True)
class StabilityReport:
    """Root-condition verdict for one scheme."""

    roots: RootSet
    moduli: tuple[float, ...]  # descending, with multiplicity; length d
    zero_stable: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class ConsistencyReport:
    """The two scalar consistency conditions and their verdict."""

    sum_alpha: float
    moment: float
    consistent: bool


def root_condition(s: Scheme) -> StabilityReport:
    """Evaluate the root condition for ``s``.

    Zero-stable iff every root modulus is <= 1 + tol and every root whose
    modulus lies within tol of the unit circle is simple, with tol =
    ``ROOT_CONDITION_TOL``.  Roots within tol of the circle are treated as
    on-circle so exact unit roots do not flip verdicts under floating-point
    noise.
    """
    tol = ROOT_CONDITION_TOL
    roots = find_roots(characteristic_polynomial(s))
    violations: list[str] = []
    for value, mult in roots.roots:
        modulus = abs(value)
        if modulus > 1.0 + tol:
            problem = f"has modulus {modulus:.12g} > 1"
        elif modulus >= 1.0 - tol and mult > 1:
            problem = f"on the unit circle has multiplicity {mult}"
        else:
            continue
        violations.append(f"root {value.real:.12g}{value.imag:+.12g}j {problem}")
    moduli = tuple(roots.moduli())
    return StabilityReport(
        roots=roots,
        moduli=moduli,
        zero_stable=not violations,
        violations=tuple(violations),
    )


def _ratio(num: int, den: int) -> float:
    """num / den rounded once; +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def consistency_check(s: Scheme) -> ConsistencyReport:
    """Check sum(alpha) = 1 and beta - sum(i*alpha_i) = 1 within
    ``CONSISTENCY_TOL``.  Each sum is exact on the integers that ``_scaled``
    makes of the coefficients, then divided by their scale (the largest
    denominator) and so rounded once: +-inf past the float range."""
    tol = CONSISTENCY_TOL
    coeffs = (s.beta, *s.alphas)
    scale = max(c.as_integer_ratio()[1] for c in coeffs)
    beta, *alphas = _scaled(coeffs)
    sum_alpha = _ratio(sum(alphas), scale)
    moment = _ratio(beta - sum(i * a for i, a in enumerate(alphas)), scale)
    consistent = abs(sum_alpha - 1.0) <= tol and abs(moment - 1.0) <= tol
    return ConsistencyReport(sum_alpha=sum_alpha, moment=moment, consistent=consistent)
