"""Complex polynomials and a simultaneous-iteration root finder.

Degrees here are small (the characteristic polynomials of multistep
schemes), so an Aberth-Ehrlich iteration started on a Cauchy-bound circle
is used instead of an eigenvalue solver.  Its tolerances are the module
constants below, read at each call.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "RootSet",
    "RootFindingError",
    "find_roots",
    "RESIDUAL_TOL",
    "CLUSTER_RADIUS",
    "MAX_ITERATIONS",
]

# Largest accepted residual |p(z)|, relative to the largest coefficient.
RESIDUAL_TOL = 1e-10
# Roots closer than this are merged into one multiple root.
CLUSTER_RADIUS = 1e-6
# Aberth iteration budget per polynomial.
MAX_ITERATIONS = 200


class RootFindingError(RuntimeError):
    """Raised when the iteration budget is exhausted.

    Carries the best iterate set so callers can inspect how close the
    solver got.
    """

    def __init__(self, message: str, best_iterates: Sequence[complex]):
        super().__init__(message)
        self.best_iterates = tuple(best_iterates)


@dataclass(frozen=True)
class Polynomial:
    """A polynomial with complex coefficients, highest degree first.

    Leading zero coefficients are stripped on construction, so the leading
    coefficient is always nonzero.
    """

    coefficients: tuple[complex, ...]

    def __init__(self, coefficients: Sequence[complex]):
        coeffs = [complex(c) for c in coefficients]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if any(not (np.isfinite(c.real) and np.isfinite(c.imag)) for c in coeffs):
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

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        n = self.degree
        return Polynomial([c * (n - i) for i, c in enumerate(self.coefficients[:-1])])

    def monic(self) -> "Polynomial":
        lead = self.coefficients[0]
        return Polynomial([c / lead for c in self.coefficients])

    def coefficient_scale(self) -> float:
        return max(abs(c) for c in self.coefficients)


@dataclass(frozen=True)
class RootSet:
    """Roots of a polynomial with multiplicities and evaluation residuals.

    ``roots`` is ordered by (modulus descending, argument ascending) so
    repeated runs are bit-identical.  The sum of multiplicities equals the
    polynomial degree.
    """

    roots: tuple[tuple[complex, int], ...]
    residuals: tuple[float, ...]

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


def cluster_multiplicities(raw_roots: Sequence[complex]) -> list[tuple[complex, int]]:
    """Merge roots within ``CLUSTER_RADIUS`` of each other into centroids.

    Returns (centroid, multiplicity) pairs sorted by modulus descending,
    then argument ascending.
    """
    clusters: list[list[complex]] = []
    for z in sorted(raw_roots, key=_root_sort_key):
        for members in clusters:
            centroid = sum(members) / len(members)
            if abs(z - centroid) <= CLUSTER_RADIUS:
                members.append(z)
                break
        else:
            clusters.append([z])
    merged = [(sum(m) / len(m), len(m)) for m in clusters]
    merged.sort(key=lambda pair: _root_sort_key(pair[0]))
    return merged


def _aberth_iterates(p: Polynomial) -> np.ndarray:
    mon = p.monic()
    n = mon.degree
    coeffs = np.asarray(mon.coefficients, dtype=complex)
    deriv = np.asarray(mon.derivative().coefficients, dtype=complex)
    scale = p.coefficient_scale()

    # Cauchy bound: every root lies inside |z| <= 1 + max |a_i|.
    radius = 1.0 + float(np.max(np.abs(coeffs[1:]))) if n >= 1 else 1.0
    angles = 2.0 * np.pi * (np.arange(n) + 0.25) / n + 0.42
    z = radius * np.exp(1j * angles)

    # Iterate to step stagnation rather than stopping at the first residual
    # pass: near a multiple root the residual tolerance is met long before
    # the iterates are as close to the root as floating point allows.
    # Overflowing iterates fail the residual test: a RootFindingError, no warning.
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITERATIONS):
            pv = np.polyval(coeffs, z)
            dv = np.polyval(deriv, z)
            dv = np.where(dv == 0, np.finfo(float).eps, dv)
            w = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            sums = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * sums
            denom = np.where(denom == 0, np.finfo(float).eps, denom)
            step = w / denom
            z = z - step
            if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
                break
        pv = np.polyval(coeffs, z)
        if np.all(np.abs(pv) <= RESIDUAL_TOL * scale):
            return z
    raise RootFindingError(
        f"root finding did not converge within {MAX_ITERATIONS} iterations "
        f"(worst residual {float(np.max(np.abs(pv))):.3e})",
        z.tolist(),
    )


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of ``p`` (degree >= 1) with multiplicities.

    Roots are accepted when every residual is within ``RESIDUAL_TOL`` of
    the largest coefficient magnitude, and roots within ``CLUSTER_RADIUS``
    of each other are merged into one root whose multiplicity is the
    cluster size.

    Raises
    ------
    RootFindingError
        If ``MAX_ITERATIONS`` runs out; carries the best iterate set.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")

    if p.degree == 1:
        a, b = p.coefficients
        raw = np.asarray([-b / a])
    else:
        raw = _aberth_iterates(p)

    clustered = cluster_multiplicities(list(raw))
    residuals = tuple(abs(p.eval(value)) for value, _ in clustered)
    return RootSet(roots=tuple(clustered), residuals=residuals)
