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
from typing import Callable, Sequence

import numpy as np

from ._table import fmt
from .polyroots import (
    DEFAULT_CLUSTER_RADIUS,
    DEFAULT_RESIDUAL_TOL,
    Polynomial,
    RootSet,
    SpectralRadiusEstimate,
    companion_power_modulus,
    find_roots,
)

__all__ = [
    "Scheme",
    "StabilityReport",
    "ConsistencyReport",
    "make_scheme",
    "characteristic_polynomial",
    "root_condition",
    "consistency_check",
    "first_order",
    "lm_second_order",
    "companion_spectral_radius",
    "DEFAULT_ROOT_CONDITION_TOL",
]

DEFAULT_ROOT_CONDITION_TOL = 1e-8
DEFAULT_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class Scheme:
    """Coefficients of an explicit d-step update.

    ``alphas[i]`` weights y_{n-i}; ``beta`` weights h*f(t_n, y_n).  Stored
    exactly as given, no normalization.
    """

    alphas: tuple[float, ...]
    beta: float

    @property
    def order(self) -> int:
        return len(self.alphas)

    def to_dict(self) -> dict:
        return {"alphas": list(self.alphas), "beta": self.beta, "order": self.order}

    def label(self) -> str:
        alphas = ",".join(map(fmt, self.alphas))
        return f"alphas=[{alphas}] beta={fmt(self.beta)}"


def make_scheme(alphas: Sequence[float], beta: float) -> Scheme:
    """Validate and build a Scheme; empty or non-finite input is rejected."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("a scheme needs at least one alpha coefficient")
    if not all(math.isfinite(a) for a in alphas) or not math.isfinite(beta):
        raise ValueError("scheme coefficients must be finite")
    return Scheme(alphas=alphas, beta=float(beta))


def first_order(alpha: float) -> Scheme:
    """One-step scheme y_{n+1} = alpha*y_n + h*f; alpha=1 is Euler."""
    return make_scheme([alpha], 1.0)


def lm_second_order(k: float) -> Scheme:
    """Two-step scheme y_{n+1} = (1-k)y_n + k*y_{n-1} + (2k+1)h*f."""
    return make_scheme([1.0 - k, k], 2.0 * k + 1.0)


def _recur(
    alphas: Sequence,
    coef,
    history,
    depth: int,
    f: Callable[[int, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Advance y_{n+1} = sum_i alphas[i] * y_{n-i} + coef * f(n, y_n).

    The one multistep loop of the package: ``integrate``, ``propagate``,
    ``growth_rate`` and ``robustness_sweep`` all run on it.  ``history``
    holds at least ``len(alphas)`` states of shape (..., width), oldest
    first, and every new state is appended to it (a bounded deque keeps only
    the last few); ``n`` counts steps from 0.  Every axis but the last
    indexes an independent run, a *row* (a single state is one row); the
    coefficients broadcast against the state, so one call advances many runs
    at once.  Returns, per row, the first step n + 1 at which the row turned
    non-finite (0 if it never did).  Once every row has blown up the loop
    stops without appending the non-finite state.  Overflow inside a run is
    reported only through that return value, never as a warning.
    """
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
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.moduli),
            "roots": [
                {"re": v.real, "im": v.imag, "multiplicity": m}
                for v, m in self.roots.roots
            ],
            "zero_stable": self.zero_stable,
            "violations": list(self.violations),
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class ConsistencyReport:
    """The two scalar consistency conditions and their verdict."""

    sum_alpha: float
    moment: float
    consistent: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "sum_alpha": self.sum_alpha,
            "moment": self.moment,
            "consistent": self.consistent,
            "tolerance": self.tolerance,
        }


def root_condition(
    s: Scheme,
    tol: float = DEFAULT_ROOT_CONDITION_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
) -> StabilityReport:
    """Evaluate the root condition for ``s``.

    Zero-stable iff every root modulus is <= 1 + tol and every root whose
    modulus lies within tol of the unit circle is simple.  Roots within
    ``tol`` of the circle are treated as on-circle so exact unit roots do
    not flip verdicts under floating-point noise.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    roots = find_roots(
        characteristic_polynomial(s), tol=residual_tol, cluster_radius=cluster_radius
    )
    violations: list[str] = []
    for value, mult in roots.roots:
        modulus = abs(value)
        text = f"{value.real:.12g}{value.imag:+.12g}j"
        if modulus > 1.0 + tol:
            violations.append(f"root {text} has modulus {modulus:.12g} > 1")
        elif modulus >= 1.0 - tol and mult > 1:
            violations.append(
                f"root {text} on the unit circle has multiplicity {mult}"
            )
    moduli = tuple(roots.moduli())
    return StabilityReport(
        roots=roots,
        moduli=moduli,
        zero_stable=not violations,
        violations=tuple(violations),
        tolerance=tol,
    )


def consistency_check(
    s: Scheme, tol: float = DEFAULT_CONSISTENCY_TOL
) -> ConsistencyReport:
    """Check sum(alpha) = 1 and beta - sum(i*alpha_i) = 1 within ``tol``."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sum_alpha = math.fsum(s.alphas)
    moment = s.beta - math.fsum(i * a for i, a in enumerate(s.alphas))
    consistent = abs(sum_alpha - 1.0) <= tol and abs(moment - 1.0) <= tol
    return ConsistencyReport(
        sum_alpha=sum_alpha, moment=moment, consistent=consistent, tolerance=tol
    )


def companion_spectral_radius(
    s: Scheme, iterations: int = 300
) -> SpectralRadiusEstimate:
    """Power-iteration estimate of the dominant characteristic root modulus.

    Independent of the Aberth root finder; agrees with the max modulus from
    root_condition to 1e-6 for a well-separated dominant root.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    return companion_power_modulus(characteristic_polynomial(s), iterations=iterations)
