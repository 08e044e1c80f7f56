"""Real polynomials and their complex roots, with multiplicities from algebra.

The coefficients are real floats, as those of every characteristic
polynomial rho^d - sum_i alpha_i rho^(d-1-i) are; a complex one is rejected.
They are exact dyadic rationals, so the multiplicities are decided exactly
over Q: Yun's square-free decomposition (Yun, SYMSAC 1976) splits the
polynomial into factors whose roots are simple, and every root of the i-th
factor has multiplicity i.  A gcd test modulo a prime proves most
polynomials square-free first, so the rational arithmetic runs only for
the ones that are not.  An Aberth-Ehrlich iteration in scalar complex
arithmetic, started on the radii of the Newton polygon (Bini, Numer.
Algorithms 1996), finds the simple roots of each factor; at the small
degrees of multistep schemes a numpy call costs more than the arithmetic
it does.  The tolerances are the module constants below, read at each call.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Polynomial",
    "RootSet",
    "RootFindingError",
    "find_roots",
    "RESIDUAL_TOL",
    "MAX_ITERATIONS",
]

# Largest accepted residual |p(z)|, relative to sum_i |a_i| |z|^(n-i), the
# size of the terms that p(z) sums.
RESIDUAL_TOL = 1e-10
# Aberth iteration budget per square-free factor.
MAX_ITERATIONS = 200

# A 61-bit prime, above the 2^53 bound on the odd part of a float.
_Q = 2305843009213693921
_EPS = sys.float_info.epsilon
# Offset of the starting angles from the real axis (Bini's sigma).
_START_ANGLE = 0.7


class RootFindingError(RuntimeError):
    """Raised when the iteration budget is exhausted or a value overflows.

    Carries the iterates of the factor that failed, so callers can inspect
    how close the solver got.
    """

    def __init__(self, message: str, best_iterates: Sequence[complex]):
        super().__init__(message)
        self.best_iterates = tuple(best_iterates)


@dataclass(frozen=True)
class Polynomial:
    """A polynomial with real float coefficients, highest degree first.

    A coefficient that is not a real number (``numbers.Real``) raises
    ``ValueError``; so does a complex one, even with a zero imaginary part:
    the square-free machinery works over Q alone.  Leading zero
    coefficients are stripped on construction, so the leading coefficient
    is always nonzero.
    """

    coefficients: tuple[float, ...]

    def __init__(self, coefficients: Sequence[float]):
        coeffs = []
        for c in coefficients:
            # float() of a numpy complex would drop the imaginary part with
            # only a warning.  float and int come first: the ABC check is slow.
            if not isinstance(c, (float, int, numbers.Real)):
                raise ValueError(f"polynomial coefficients must be real, not {c!r}")
            coeffs.append(float(c))
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs.pop(0)
        if coeffs[0] == 0:
            raise ValueError("zero polynomial has no defined degree")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def eval(self, z: complex) -> complex:
        """Horner evaluation at ``z``."""
        acc = 0j
        for c in self.coefficients:
            acc = acc * z + c
        return acc

    def monic(self) -> "Polynomial":
        lead = self.coefficients[0]
        return Polynomial([c / lead for c in self.coefficients])


@dataclass(frozen=True)
class RootSet:
    """Roots of a polynomial with their multiplicities.

    ``roots`` is ordered by (modulus descending, argument ascending) so
    repeated runs are bit-identical.  The sum of multiplicities equals the
    polynomial degree.
    """

    roots: tuple[tuple[complex, int], ...]

    def values(self) -> list[complex]:
        """Roots expanded with multiplicity."""
        out: list[complex] = []
        for value, mult in self.roots:
            out.extend([value] * mult)
        return out

    def moduli(self) -> list[float]:
        """Moduli expanded with multiplicity, descending."""
        return sorted((abs(v) for v in self.values()), reverse=True)


def _root_sort_key(value: complex) -> tuple[float, float]:
    return (-abs(value), cmath.phase(value))


# -- is f square-free? -------------------------------------------------------

def _rem_mod_q(a: list[int], b: list[int]) -> list[int]:
    """a mod b over GF(Q), b[0] != 0; the remainder without leading zeros."""
    a = list(a)
    inv = pow(b[0], -1, _Q)
    for k in range(len(a) - len(b) + 1):
        f = a[k] * inv % _Q
        if f:
            for i in range(1, len(b)):
                a[k + i] = (a[k + i] - f * b[i]) % _Q
    r = a[len(a) - len(b) + 1:]
    while r and not r[0]:
        r.pop(0)
    return r


def _squarefree(coeffs: Sequence[float]) -> bool:
    """True if gcd(f, f') = 1 modulo Q, which proves f square-free.

    Scaled by one power of two, the coefficients are integers.  The leading
    one is a power of two times an odd part below 2^53 < Q, so it is nonzero
    in GF(Q), and so is n times it, the derivative's.  A repeated factor g
    of f over Q can be taken primitive over Z (Gauss's lemma); its leading
    coefficient divides f's, so g keeps its degree modulo Q and divides
    gcd(f, f') there too.  False means only "not proven".
    """
    ratios = [c.as_integer_ratio() for c in coeffs]
    shift = max(d for _, d in ratios).bit_length()
    f = [(num << (shift - d.bit_length())) % _Q for num, d in ratios]
    n = len(f) - 1
    a, b = f, [c * (n - i) % _Q for i, c in enumerate(f[:-1])]
    while b:
        a, b = b, _rem_mod_q(a, b)
    return len(a) == 1


# -- Yun's square-free decomposition in rational arithmetic ------------------

def _trim(a: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(a) - 1 and not a[i]:
        i += 1
    return a[i:]


def _deriv(a: list[Fraction]) -> list[Fraction]:
    n = len(a) - 1
    return [c * (n - i) for i, c in enumerate(a[:-1])] or [Fraction(0)]


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    steps = len(a) - len(b) + 1
    q = []
    for k in range(steps):
        f = a[k] / b[0]
        q.append(f)
        for i in range(1, len(b)):
            a[k + i] = a[k + i] - f * b[i]
    return q or [Fraction(0)], _trim(a[max(steps, 0):])


def _monic_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while any(b):
        a, b = b, _divmod(a, b)[1]
    return [c / a[0] for c in a]


def _sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + a
    b = [Fraction(0)] * (n - len(b)) + b
    return _trim([x - y for x, y in zip(a, b)])


def _yun(f: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """The factors a_i of f = lc(f) * prod_i a_i^i, monic, coprime and
    square-free, as (a_i, i) for every a_i that is not 1."""
    df = _deriv(f)
    a = _monic_gcd(f, df)
    b = _divmod(f, a)[0]
    d = _sub(_divmod(df, a)[0], _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _monic_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _divmod(b, a)[0]
        d = _sub(_divmod(d, a)[0], _deriv(b))
        i += 1
    return out


def _squarefree_factors(coeffs: list[float]) -> list[tuple[list[float], int]]:
    """(factor, multiplicity) pairs whose product is the polynomial; every
    factor has simple roots."""
    if len(coeffs) < 3 or _squarefree(coeffs):
        return [(coeffs, 1)]
    return [([float(c) for c in a], i) for a, i in _yun([Fraction(c) for c in coeffs])]


# -- Aberth-Ehrlich iteration on one square-free factor ----------------------

def _start(coeffs: list[float]) -> list[complex]:
    """Starting points on the Newton polygon of log|a_k| (a_k the coefficient
    of z^k, a_0 != 0): each edge of its upper convex hull, from k = i to
    k = j, puts j - i points on the circle of radius (|a_i|/|a_j|)^(1/(j-i))."""
    n = len(coeffs) - 1
    hull: list[tuple[int, float]] = []
    for k, c in enumerate(reversed(coeffs)):
        if not c:
            continue
        pt = (k, math.log(abs(c)))
        # Drop the last vertex while it lies on or below the chord to pt.
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(pt)
    z = []
    for (i, log_i), (j, log_j) in zip(hull, hull[1:]):
        radius = math.exp((log_i - log_j) / (j - i))
        for m in range(j - i):
            z.append(cmath.rect(radius, 2.0 * math.pi * (m / (j - i) + i / n) + _START_ANGLE))
    return z


def _aberth(coeffs: list[float]) -> list[complex]:
    """The roots of a square-free polynomial with a nonzero constant term.

    Roots are updated one at a time with the newest values of the others
    (Gauss-Seidel order).  A root stops moving once |p(z)| is down to
    eps * sum_i |a_i| |z|^(n-i), the rounding level of evaluating it, or
    its step is below eps |z|.  The roots are accepted when every |p(z)| is
    within ``RESIDUAL_TOL`` of that sum, and the sum is finite.
    """
    n = len(coeffs) - 1
    mags = [abs(c) for c in coeffs]
    # 0j - b keeps the zero imaginary part of a real root positive.
    z = [(0j - coeffs[1]) / coeffs[0]] if n == 1 else _start(coeffs)
    live = list(range(n)) if n > 1 else []
    for _ in range(MAX_ITERATIONS):
        if not live:
            break
        moving = []
        for i in live:
            zi = z[i]
            p, dp = coeffs[0], 0j
            for c in coeffs[1:]:
                dp = dp * zi + p
                p = p * zi + c
            r, scale = abs(zi), 0.0
            for m in mags:
                scale = scale * r + m
            if abs(p) <= _EPS * scale:
                continue
            pull = 0j
            for zj in z:
                if zj != zi:
                    pull += 1.0 / (zi - zj)
            # The Aberth step 1 / (p'/p - pull), written so that a tiny p
            # does not overflow p'/p.
            denom = dp - p * pull
            step = p / denom if denom else _EPS * (1.0 + r)
            z[i] = zi - step
            if abs(step) > _EPS * abs(z[i]):
                moving.append(i)
        live = moving

    for zi in z:
        p, r, scale = 0j, abs(zi), 0.0
        for c, m in zip(coeffs, mags):
            p = p * zi + c
            scale = scale * r + m
        if not (abs(p) <= RESIDUAL_TOL * scale and scale < math.inf):
            raise RootFindingError(
                f"root finding did not converge within {MAX_ITERATIONS} iterations "
                f"(residual {abs(p):.3e} at |z| = {r:.3e})",
                z,
            )
    return z


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of ``p`` (degree >= 1) with exact multiplicities.

    Each root's multiplicity is that of its square-free factor in the exact
    coefficients, so roots that are distinct in those coefficients are
    reported apart however close they lie.  Each factor's roots are accepted
    when every residual is within ``RESIDUAL_TOL`` of sum_i |a_i| |z|^(n-i).

    Raises
    ------
    RootFindingError
        If ``MAX_ITERATIONS`` runs out on a factor, carrying its iterates,
        or if a value overflows.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    coeffs = list(p.coefficients)
    zeros = 0
    while not coeffs[-1]:
        coeffs.pop()
        zeros += 1
    roots = [(0j, zeros)] if zeros else []
    try:
        for factor, mult in _squarefree_factors(coeffs):
            if len(factor) > 1:
                roots += [(z, mult) for z in _aberth(factor)]
    except OverflowError as exc:
        raise RootFindingError(
            f"root finding did not converge: a value overflowed ({exc})", ()
        ) from exc
    roots.sort(key=lambda pair: _root_sort_key(pair[0]))
    return RootSet(roots=tuple(roots))
