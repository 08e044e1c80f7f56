"""Complex polynomials and a simultaneous-iteration root finder.

Degrees here are small (the characteristic polynomials of multistep
schemes), so an Aberth-Ehrlich iteration started on a Cauchy-bound circle
is used instead of an eigenvalue solver.  A companion-matrix power
iteration is kept as an independent oracle for the dominant modulus.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Polynomial",
    "RootSet",
    "RootFindingError",
    "find_roots",
    "cluster_multiplicities",
    "companion_power_modulus",
    "SpectralRadiusEstimate",
]

DEFAULT_RESIDUAL_TOL = 1e-10
DEFAULT_CLUSTER_RADIUS = 1e-6
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

    def __call__(self, z: complex) -> complex:
        return self.eval(z)

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

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

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


def cluster_multiplicities(
    raw_roots: Sequence[complex], radius: float
) -> list[tuple[complex, int]]:
    """Merge roots within ``radius`` of each other into centroids.

    Returns (centroid, multiplicity) pairs sorted by modulus descending,
    then argument ascending.
    """
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    clusters: list[list[complex]] = []
    for z in sorted(raw_roots, key=_root_sort_key):
        for members in clusters:
            centroid = sum(members) / len(members)
            if abs(z - centroid) <= radius:
                members.append(z)
                break
        else:
            clusters.append([z])
    merged = [(sum(m) / len(m), len(m)) for m in clusters]
    merged.sort(key=lambda pair: _root_sort_key(pair[0]))
    return merged


def _aberth_iterates(
    p: Polynomial, tol: float, max_iterations: int
) -> np.ndarray:
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
        for _ in range(max_iterations):
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
        if np.all(np.abs(pv) <= tol * scale):
            return z
    raise RootFindingError(
        f"root finding did not converge within {max_iterations} iterations "
        f"(worst residual {float(np.max(np.abs(pv))):.3e})",
        z.tolist(),
    )


def find_roots(
    p: Polynomial,
    tol: float = DEFAULT_RESIDUAL_TOL,
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS,
    max_iterations: int = MAX_ITERATIONS,
) -> RootSet:
    """All complex roots of ``p`` with multiplicities by cluster detection.

    Parameters
    ----------
    p : Polynomial
        Polynomial of degree >= 1.
    tol : float
        Residual tolerance, relative to the largest coefficient magnitude.
    cluster_radius : float
        Roots closer than this are merged into one root whose multiplicity
        is the cluster size.

    Raises
    ------
    RootFindingError
        If the iteration budget runs out; carries the best iterate set.
    """
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    if p.degree == 1:
        a, b = p.coefficients
        raw = np.asarray([-b / a])
    else:
        raw = _aberth_iterates(p, tol, max_iterations)

    clustered = cluster_multiplicities(list(raw), cluster_radius)
    residuals = tuple(abs(p.eval(value)) for value, _ in clustered)
    return RootSet(roots=tuple(clustered), residuals=residuals)


class SpectralRadiusEstimate(NamedTuple):
    value: float
    converged: bool


def companion_power_modulus(
    p: Polynomial, iterations: int = 300, seed: int = 12345
) -> SpectralRadiusEstimate:
    """Dominant root modulus of ``p`` via companion-matrix power iteration.

    Independent of the Aberth path; used as a test oracle.  The estimate is
    the fitted slope of log ||C^k v|| over the tail of the iteration, which
    also handles complex-conjugate dominant pairs (where the plain Rayleigh
    quotient oscillates).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    mon = p.monic()
    n = mon.degree
    if n == 0:
        raise ValueError("degree must be >= 1")
    if n == 1:
        return SpectralRadiusEstimate(abs(mon.coefficients[1]), True)

    companion = np.zeros((n, n))
    companion[0, :] = [-c.real for c in mon.coefficients[1:]]
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
