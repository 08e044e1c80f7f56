"""Explicit multistep schemes and their stability / consistency analysis.

A scheme advances the recurrence

    y_{n+1} = sum_i alpha_i * y_{n-i} + h * beta * f(t_n, y_n)

with i = 0 .. d-1; ``_recur`` is the one entry that runs it, for the ODE
solver and the block stack alike: on Python floats for a run of one feature
and, element by element, for an array state of a few elements, and on numpy
arrays for every other state, with the same sums in the same order.  Zero
stability is decided by the root condition on the characteristic
polynomial rho^d - sum_i alpha_i rho^{d-1-i}; beta plays no part in it.
Consistency requires sum(alpha) = 1 and beta - sum(i * alpha_i) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
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
# The most elements of an array state that ``_recur`` advances on Python
# floats, element by element; past it numpy's per-call cost is the cheaper
# (the crossover is measured in ``_recur``'s docstring).
_FLOAT_ELEMENTS = 8


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

    The states are of one of two kinds, decided by the newest one:

    - arrays of shape (..., width): every axis but the last indexes an
      independent run, a *row* (a single state is one row); the
      coefficients broadcast against the state, so one call advances many
      runs at once;
    - Python floats (or numpy float scalars), one run of one feature: ``f``
      returns a float and the return value is 0-d.

    Each step computes ((0 + a_0 y_n) + a_1 y_{n-1}) + ... + coef f in that
    order on every path, so all give the same IEEE sums: the leading 0 is
    kept because it turns a sum of -0.0 terms into +0.0.  The arithmetic
    runs on one of three number types, chosen from the arguments alone:

    - Python floats, for a run of floats (``_recur_floats``): each step is
      tested by its product with zero, which is zero only if it is finite,
      however large;
    - Python floats element by element, for a small array state
      (``_recur_small``): a plain float64 ndarray of 1 to
      ``_FLOAT_ELEMENTS`` = 8 elements, an order of at most 3 and float
      coefficients; each element is tested by ``math.isfinite``.  f still
      gets the newest state as an array, whose elements are read again
      after f returns, so that an f that writes into it gives the states of
      the array loop, and each step appends one.  A
      3-step run of (rows, 2) states with the oscillator's rhs took 2.4-4.2
      us per step on floats against 4.6-5.6 us on arrays from 1 to 8
      elements, 4.6-5.0 against 4.9-5.2 us at 10, 5.2-5.7 against 5.0-5.2
      us at 12 (best of 21 in three runs, shared 2-vCPU host);
    - float64 arrays for every other array state (``_recur_arrays``),
      among them an ndarray subclass, which may define its own arithmetic,
      and a small state from the first step whose f value is neither a
      float nor a float64 array of the state's shape: each step is tested
      by ``_finite``.

    Only a step that fails its test has its rows examined one by one, and
    once a row has blown up, only the live rows enter the test, so the rows
    that stay finite keep the one test per step.
    """
    if isinstance(history[-1], float):
        with np.errstate(all="ignore"):
            return _recur_floats(alphas, coef, history, args, f)
    blew = np.zeros(np.shape(history[-1])[:-1], dtype=int)
    steps = enumerate(args)
    with np.errstate(all="ignore"):
        if _small(alphas, coef, history):
            blew, stopped = _recur_small(alphas, coef, history, steps, f, blew)
            if stopped is None:
                return blew
            # f's value does not fit the small state: this step and the
            # rest run on arrays, with the value f already returned.  The
            # array loop reads y_n as f found it, and y_n as f left it
            # takes its place once the loop has made that f call.
            n, x, value, before = stopped
            steps, f = chain([(n, x)], steps), _first_then(value, f, history, before)
        return _recur_arrays(alphas, coef, history, steps, f, blew)


def _recur_arrays(alphas: Sequence, coef, history, steps: Iterable, f, blew) -> np.ndarray:
    """``_recur`` on float64 arrays from the ``(n, x)`` pairs of ``steps``,
    with the blow-up steps ``blew`` of the steps before; the caller holds
    numpy's warnings off."""
    terms = [(np.asarray(a, dtype=float), -1 - i) for i, a in enumerate(alphas)]
    coef = np.asarray(coef, dtype=float)
    zero = np.zeros(())
    live = None  # the elements of the live rows, once a row has blown up
    for n, x in steps:
        nxt = zero
        for a, i in terms:
            term = a * history[i]
            nxt = nxt + term
            # The old sum is freed before the term, as ``sum`` frees
            # them: with the term freed first, a Table 8 sweep's ~150 KB
            # states took 7282 minor page faults per sweep, against 5509.
            del term
        nxt = nxt + coef * f(x, history[-1])
        if not _finite(nxt.ravel() if live is None else nxt.take(live)):
            blew = _blown(nxt, blew, n)
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


def _blown(nxt: np.ndarray, blew: np.ndarray, n: int) -> np.ndarray:
    """``blew`` with n + 1 for every row of the state ``nxt`` that holds a
    non-finite element and had not blown up before."""
    bad = ~np.all(np.isfinite(nxt).reshape(blew.shape + (-1,)), axis=-1)
    return np.where(bad & (blew == 0), n + 1, blew)


def _first_then(value, f, history, before):
    """f, except that its first call returns ``value``: ``before`` stands in
    for the newest state of ``history`` until then, and that call puts the
    state back."""
    state, history[-1] = history[-1], before
    pending = [value]

    def call(x, y):
        if not pending:
            return f(x, y)
        history[-1] = state
        return pending.pop()

    return call


def _fused(alphas: Sequence, coef) -> Callable[[float, float, float, float], float]:
    """The step of a scheme of order 1 to 3 on Python floats, as one
    expression of the newest states u = y_n, v = y_{n-1}, w = y_{n-2} and
    q = f(x_n, y_n); an order below 3 ignores w, or v and w."""
    a0, a1, a2 = (*map(float, alphas), 0.0, 0.0)[:3]
    c = float(coef)
    if len(alphas) == 1:
        return lambda u, v, w, q: (0.0 + a0 * u) + c * q
    if len(alphas) == 2:
        return lambda u, v, w, q: ((0.0 + a0 * u) + a1 * v) + c * q
    return lambda u, v, w, q: ((0.0 + a0 * u) + a1 * v) + a2 * w + c * q


def _newest3(history, d: int) -> list:
    """y_n, y_{n-1}, y_{n-2} of ``history`` for ``_fused``, with y_n in the
    place of those an order-d scheme does not read."""
    return [history[-1 - i] if i < d else history[-1] for i in range(3)]


def _small(alphas: Sequence, coef, history) -> bool:
    """Whether ``_recur_small`` takes this run: an order of at most 3, float
    coefficients, and newest states that are plain float64 ndarrays of one
    shape, of at least one axis and 1 to ``_FLOAT_ELEMENTS`` elements."""
    d = len(alphas)
    if d > 3 or len(history) < d or not all(isinstance(a, float) for a in (*alphas, coef)):
        return False
    newest = history[-1]
    f64 = np.dtype(float)
    return all(
        type(y) is np.ndarray and y.dtype is f64 and y.shape == newest.shape
        for y in _newest3(history, d)
    ) and newest.ndim > 0 and 0 < newest.size <= _FLOAT_ELEMENTS


def _recur_small(alphas: Sequence, coef, history, steps: Iterable, f, blew):
    """``_recur`` on a small array state (see ``_small``), one ``_fused``
    expression per element on Python floats, from the ``(n, x)`` pairs of
    ``steps``; the caller holds numpy's warnings off.

    f's value is read as the list of the state's elements: a float, or a
    float64 ndarray of the state's shape.  Returns the blow-up steps and
    None, or, at the first step whose f value is neither, the blow-up steps
    before it and that step's (n, x, value, y_n as f found it), without
    appending its state."""
    step = _fused(alphas, coef)
    state = history[-1]
    shape, size, f64 = state.shape, state.size, state.dtype
    y0, y1, y2 = (y.ravel().tolist() for y in _newest3(history, len(alphas)))
    live = None  # a mask of the live rows' elements, once a row has blown up
    append = history.append
    for n, x in steps:
        value = f(x, state)
        if type(value) is np.ndarray and value.dtype is f64 and value.shape == shape:
            g = value.ravel().tolist()
        elif isinstance(value, float):
            g = [float(value)] * size
        else:
            return blew, (n, x, value, np.reshape(y0, shape))
        nxt = list(map(step, y0, y1, y2, g))
        # y_n as f left it, which the array loop reads from the next step on.
        y1, y2 = state.ravel().tolist(), y1
        # A 1-D state is made by np.array, 456 ns for 4 elements against
        # 744 ns for the in-place fill (shared 2-vCPU host); in any other
        # shape, np.array(nxt).reshape(shape) would be a view that keeps a
        # second array object alive with every state.
        if len(shape) == 1:
            state = np.array(nxt)
        else:
            state = np.empty(shape)
            state.ravel()[:] = nxt
        if not all(map(math.isfinite, nxt if live is None else compress(nxt, live))):
            blew = _blown(state, blew, n)
            if np.all(blew):
                break
            live = np.broadcast_to((blew == 0)[..., None], shape).ravel().tolist()
        append(state)
        y0 = nxt
    return blew, None


def _recur_floats(alphas: Sequence, coef, history, args: Iterable, f) -> np.ndarray:
    """``_recur`` on a run of Python floats, with the same sums in the same
    order: the newest states in local variables for a scheme of order 1 to
    3, a loop over the coefficients for a higher order.  The caller holds
    numpy's warnings off."""
    append = history.append
    d = len(alphas)
    if d <= 3:
        step = _fused(alphas, coef)
        y0, y1, y2 = _newest3(history, d)
        for n, x in enumerate(args):
            nxt = step(y0, y1, y2, f(x, y0))
            if nxt * 0.0 != 0.0:  # zero only if nxt is finite, however large
                return np.array(n + 1)
            append(nxt)
            y0, y1, y2 = nxt, y0, y1
        return np.array(0)
    terms = [(float(a), -1 - i) for i, a in enumerate(alphas)]
    coef = float(coef)
    for n, x in enumerate(args):
        nxt = 0.0
        for a, i in terms:
            nxt = nxt + a * history[i]
        nxt = nxt + coef * f(x, history[-1])
        if nxt * 0.0 != 0.0:
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
