"""Real polynomials and their complex roots, with multiplicities from algebra.

The coefficients are real floats, as those of every characteristic
polynomial rho^d - sum_i alpha_i rho^(d-1-i) are; a complex one is rejected.
They are exact dyadic rationals, so the multiplicities are decided exactly:
scaled by one power of two the coefficients are integers, and Yun's
square-free decomposition (Yun, SYMSAC 1976) splits the polynomial over Z
into factors whose roots are simple; every root of the i-th factor has
multiplicity i.  Its gcds are taken by primitive pseudo-remainders (Brown,
JACM 1971) and its quotients by exact integer division, so no float is
formed until each factor goes to the root finder, monic or scaled by a
power of two: a function of the primitive factor, so k p has the roots of
p, bit for bit, wherever k p's coefficients are exact.  An Aberth-Ehrlich
iteration in scalar complex arithmetic, started on the radii of the Newton
polygon (Bini, Numer. Algorithms 1996), finds the simple roots of each
factor; at the small degrees of multistep schemes a numpy call costs more
than the arithmetic it does.  The tolerances are the module constants
below, read at each call.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
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

_EPS = sys.float_info.epsilon
# Below the smallest normal float, 2^-1022, floats are spaced 2^-1074 apart.
_MIN_NORMAL = sys.float_info.min
_SUBNORMAL_SPACING = math.ulp(0.0)
# Offset of the starting angles from the real axis (Bini's sigma).
_START_ANGLE = 0.7


class RootFindingError(ValueError):
    """Raised when the iteration budget is exhausted or a value overflows:
    the polynomial is one whose roots this solver cannot give.  The message
    names the residual and |z| of the first root that failed, or the value
    that overflowed."""


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
        return [value for value, mult in self.roots for _ in range(mult)]

    def moduli(self) -> list[float]:
        """Moduli expanded with multiplicity, descending."""
        return sorted((abs(v) for v in self.values()), reverse=True)


# -- Yun's square-free decomposition over the integers -----------------------

def _scaled(coeffs: Sequence[float]) -> list[int]:
    """The coefficients times the one power of two that makes them all
    integers: the largest of their denominators."""
    ratios = [c.as_integer_ratio() for c in coeffs]
    shift = max(d for _, d in ratios).bit_length()
    return [num << (shift - d.bit_length()) for num, d in ratios]


def _primitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its coefficients, with the sign that makes the
    leading one positive; a nonzero."""
    g = math.gcd(*a) if a[0] > 0 else -math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _trim(a: list[int]) -> list[int]:
    """a without leading zeros; [] is the zero polynomial."""
    i = 0
    while i < len(a) and not a[i]:
        i += 1
    return a[i:]


def _deriv(a: list[int]) -> list[int]:
    n = len(a) - 1
    return [c * (n - i) for i, c in enumerate(a[:-1])]


def _sub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return _trim([x - y for x, y in zip([0] * (n - len(a)) + a, [0] * (n - len(b)) + b)])


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder of a by b, lc(b)^(deg a - deg b + 1) a mod b,
    without leading zeros; len(a) >= len(b) >= 2."""
    a = list(a)
    lead = b[0]
    for k in range(len(a) - len(b) + 1):
        f = a[k]
        for i in range(k + 1, len(a)):
            a[i] *= lead
        for i in range(1, len(b)):
            a[k + i] -= f * b[i]
    return _trim(a[len(a) - len(b) + 1:])


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of a and b, a nonzero and no shorter than b, by
    primitive remainders (Brown, JACM 1971): each pseudo-remainder is divided
    by its content, a rational factor that leaves the gcd over Q as it is and
    keeps the coefficients from growing from step to step."""
    a = _primitive(a)
    if not b:
        return a
    b = _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _quo(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a over Q.  By Gauss's lemma the
    quotient has integer coefficients, so every division is exact."""
    a = list(a)
    lead = b[0]
    q = []
    for k in range(len(a) - len(b) + 1):
        f = a[k] // lead
        q.append(f)
        for i in range(1, len(b)):
            a[k + i] -= f * b[i]
    return q


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """The factors a_i of f = c * prod_i a_i^i, f nonzero, primitive, coprime
    and square-free, as (a_i, i) for every a_i that is not constant.  A
    constant gcd(f, f') proves f square-free: its one factor is f, made
    primitive ([1], with no roots, for a constant f)."""
    df = _deriv(f)
    a = _gcd(f, df)
    if len(a) == 1:
        return [(_primitive(f), 1)]
    b = _quo(f, a)
    d = _sub(_quo(df, a), _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _quo(b, a)
        d = _sub(_quo(d, a), _deriv(b))
        i += 1
    return out


def _factor_roots(a: list[int]) -> list[complex]:
    """The roots of the primitive factor a by ``_aberth``, on a over lc(a),
    monic as every characteristic polynomial is, or over the power of two
    that centres the terms of p(z) at its extreme roots with normal
    coefficients: monic first unless it is subnormal, the other on overflow."""
    normal = a[0].bit_length() <= 1022 or min(map(abs, filter(None, a))) >= a[0] >> 1022
    for d in (a[0], None) if normal else (None, a[0]):
        if d is None:
            bits = [abs(c).bit_length() for c in a]
            lo, hi, n = min(filter(None, bits)), max(bits), len(a) - 1
            grow = max((b - bits[0]) * n // i for i, b in enumerate(bits) if i and b)
            d = 1 << max(min((bits[0] + grow + bits[-1]) // 2, lo + 1021), hi - 1024)
        try:
            return _real_where_alone(_aberth([c / d for c in a]))
        except OverflowError as exc:
            error = exc
    raise error


def _real_where_alone(z: list[complex]) -> list[complex]:
    """The roots z of a real factor, each made real (imaginary part +0.0)
    where it lies nearer its own conjugate than any other root does: a
    non-real root's conjugate is another root, and a real one's is itself.
    Only roots within 1e-8 |z| of the real axis are examined."""
    for i, zi in enumerate(z):
        gap = 2.0 * abs(zi.imag)  # |zi - conj(zi)|, exactly
        if gap <= 2e-8 * abs(zi):
            mirror = zi.conjugate()
            for zj in z:
                if abs(zj - mirror) <= gap and zj is not zi:
                    break
            else:
                z[i] = complex(zi.real, 0.0)
    return z


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
    """The roots of a square-free polynomial; none for a constant.

    Roots are updated one at a time with the newest values of the others
    (Gauss-Seidel order).  A root stops moving once |p(z)| is down to
    eps * sum_i |a_i| |z|^(n-i), the rounding level of evaluating it, or
    its step is below eps |z|.  The roots are accepted when every |p(z)| is
    within ``RESIDUAL_TOL`` of that sum, or, for a root of modulus below
    2^-1022, within |p'(z)| 2^-1074, what rounding it to the subnormal grid
    allows; a |p(z)| or sum that is not finite raises ``OverflowError``.
    """
    n = len(coeffs) - 1
    if not (coeffs[0] and coeffs[-1]):
        raise OverflowError("the leading or constant coefficient rounds to 0")
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
        if not math.isfinite(abs(p) + scale):
            raise OverflowError(f"residual {abs(p):.3e} at |z| = {r:.3e}")
        if abs(p) > RESIDUAL_TOL * scale and not (
            r < _MIN_NORMAL and _on_subnormal_grid(coeffs, zi, abs(p))
        ):
            raise RootFindingError(
                f"root finding did not converge within {MAX_ITERATIONS} iterations "
                f"(residual {abs(p):.3e} at |z| = {r:.3e})"
            )
    return z


def _on_subnormal_grid(coeffs: list[float], z: complex, residual: float) -> bool:
    """Whether ``residual`` = |p(z)| is within what rounding a root to the
    subnormal grid allows: |p'(z)| times its spacing, 2^-1074.  Below
    2^-1022 a root is rarely a float, and the float nearest it may leave a
    residual far above ``RESIDUAL_TOL`` of the terms that p(z) sums."""
    p, dp = coeffs[0], 0j
    for c in coeffs[1:]:
        dp = dp * z + p
        p = p * z + c
    return residual <= abs(dp) * _SUBNORMAL_SPACING


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of ``p`` (degree >= 1) with exact multiplicities.

    Each root's multiplicity is that of its square-free factor in the exact
    coefficients, so roots that are distinct in those coefficients are
    reported apart however close they lie.  Each factor's roots are accepted
    when every residual is within ``RESIDUAL_TOL`` of sum_i |a_i| |z|^(n-i).
    A root that lies nearer its own conjugate than any other root of its
    factor does is real: its imaginary part is +0.0.

    Raises
    ------
    RootFindingError
        If ``MAX_ITERATIONS`` runs out on a factor or a value overflows.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    coeffs = list(p.coefficients)
    while not coeffs[-1]:
        coeffs.pop()
    zeros = p.degree + 1 - len(coeffs)
    roots = [(0j, zeros)] if zeros else []
    try:
        for a, mult in _yun(_scaled(coeffs)):
            roots += [(z, mult) for z in _factor_roots(a)]
    except OverflowError as exc:
        message = f"root finding did not converge: a value overflowed ({exc})"
        raise RootFindingError(message) from exc
    roots.sort(key=lambda pair: (-abs(pair[0]), cmath.phase(pair[0])))
    return RootSet(roots=tuple(roots))
