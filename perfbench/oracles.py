"""Reference computations made apart from zstab.

Nothing here imports zstab.  Roots come from exact rational arithmetic
(square-free factorisation) followed by mpmath at raised precision; the
lambda family is checked with batched numpy companion eigenvalues; the
Table 8 rows are the paper's published coefficients and verdicts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

EPS = float(np.finfo(float).eps)

# Ten third-order rows of the paper's Table 8: (alphas, beta, zero_stable).
# The last row is printed as decimals; its coefficients are the fractions.
TABLE8 = (
    ((1.0, 1.0, 1.0), 1.0, False),
    ((3.75, -4.0, 1.25), -0.5, False),
    ((-3.0, 5.0, -1.0), 4.0, False),
    ((-0.75, 2.0, -0.25), 2.5, False),
    ((2.25, -2.0, 0.75), 0.5, True),
    ((0.1, 0.2, 0.3), 0.4, True),
    ((0.5, 0.3, 0.1), 0.1, True),
    ((0.825, -0.1, 0.275), 1.45, True),
    ((1.0, 0.3, -0.4), 1.0, True),
    ((1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0), 16.0 / 9.0, True),
)


# -- exact polynomial arithmetic (coefficients highest degree first) --------

def _trim(p: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _deriv(p: list[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])] or [Fraction(0)]


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    steps = len(a) - len(b) + 1
    if steps <= 0:
        return [Fraction(0)], _trim(a)
    q = []
    for k in range(steps):
        f = a[k] / b[0]
        q.append(f)
        for i, c in enumerate(b):
            a[k + i] -= f * c
    return q, _trim(a[steps:] or [Fraction(0)])


def _monic_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while any(b):
        a, b = b, _divmod(a, b)[1]
    return [c / a[0] for c in a]


def _sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = [Fraction(0)] * (n - len(a)) + a
    b = [Fraction(0)] * (n - len(b)) + b
    return _trim([x - y for x, y in zip(a, b)])


def squarefree_factors(coeffs: Sequence[float]) -> list[tuple[list[Fraction], int]]:
    """Yun's square-free factorisation over the rationals: [(factor, multiplicity)]."""
    f = _trim([Fraction(c) for c in coeffs])
    df = _deriv(f)
    a = _monic_gcd(f, df)
    b = _divmod(f, a)[0]
    c = _divmod(df, a)[0]
    d = _sub(c, _deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _monic_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _divmod(b, a)[0]
        c = _divmod(d, a)[0]
        d = _sub(c, _deriv(b))
        i += 1
    return out


def exact_roots(coeffs: Sequence[float]) -> list[tuple[complex, int]]:
    """Roots of the polynomial with these exact float coefficients, with multiplicity.

    Each square-free factor has simple roots, which mpmath's polyroots
    finds reliably at raised precision.
    """
    roots = []
    for factor, mult in squarefree_factors(coeffs):
        if len(factor) == 2:
            found = [-factor[1] / factor[0]]
        else:
            with mpmath.workprec(160):
                mp = [mpmath.mpf(c.numerator) / c.denominator for c in factor]
                found = mpmath.polyroots(mp, maxsteps=200, extraprec=160)
        roots.extend((complex(z), mult) for z in found)
    return roots


def char_coeffs(alphas: Sequence[float]) -> list[float]:
    """rho^d - sum_i alpha_i rho^(d-1-i), highest degree first."""
    return [1.0] + [-a for a in alphas]


def modulus_tolerance(mult: int) -> float:
    """Relative modulus tolerance for a root of this multiplicity.

    A root of multiplicity m moves by ~eps^(1/m) under coefficient rounding;
    a simple root is held to 1e-9, a tenth of the CLI's 10-digit output.
    """
    return 1e-9 if mult == 1 else 50.0 * EPS ** (1.0 / mult)


def effective_multiplicities(roots: list[tuple[complex, int]]) -> list[int]:
    """Multiplicity each root shows to a float solver: its exact multiplicity,
    or the size of the cluster it sits in when distinct roots lie within a
    relative 1e-5 of each other."""
    rmax = max(abs(z) for z, _ in roots)
    out = []
    for z, m in roots:
        scale = max(abs(z), 1e-3 * rmax)
        out.append(sum(m2 for z2, m2 in roots if abs(z2 - z) <= 1e-5 * scale))
    return out


# -- the lambda family ------------------------------------------------------

def family_alphas(lam: np.ndarray) -> np.ndarray:
    """(n, 3) alphas of the family, written out from the paper's formula."""
    lam = np.asarray(lam, dtype=float)
    return np.stack(
        [3.0 * (1.0 + lam) / (4.0 * lam), -1.0 / lam, (1.0 + lam) / (4.0 * lam)], axis=1
    )


def family_max_nonprincipal(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max modulus over the two roots other than the principal root 1, and a
    per-point tolerance that widens where two eigenvalues nearly coincide."""
    n = alphas.shape[0]
    comp = np.zeros((n, 3, 3))
    comp[:, 0, :] = alphas
    comp[:, 1, 0] = 1.0
    comp[:, 2, 1] = 1.0
    eig = np.linalg.eigvals(comp)
    principal = np.argmin(np.abs(eig - 1.0), axis=1)
    keep = np.ones_like(eig, dtype=bool)
    keep[np.arange(n), principal] = False
    others = eig[keep].reshape(n, 2)
    sep = np.min(
        np.abs(np.stack([eig[:, 0] - eig[:, 1], eig[:, 0] - eig[:, 2], eig[:, 1] - eig[:, 2]], 1)),
        axis=1,
    )
    tol = 1e-9 + 1e-14 / np.maximum(sep, 1e-8)
    return np.max(np.abs(others), axis=1), tol


def companion_moduli(alphas: Sequence[float]) -> list[float]:
    """Root moduli of one characteristic polynomial by companion eigenvalues."""
    d = len(alphas)
    comp = np.zeros((d, d))
    comp[0, :] = alphas
    comp[1:, :-1] = np.eye(d - 1)
    return sorted((float(abs(z)) for z in np.linalg.eigvals(comp)), reverse=True)


def fsum_moment(alphas: Sequence[float], beta: float) -> tuple[float, float]:
    return math.fsum(alphas), beta - math.fsum(i * a for i, a in enumerate(alphas))
