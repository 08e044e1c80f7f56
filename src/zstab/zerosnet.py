"""The lambda-parameterized three-step coefficient family.

For a nonzero scalar lambda the update is

    y_{n+1} = 3(1+L)/(4L) y_n - 1/L y_{n-1} + (1+L)/(4L) y_{n-2}
              + (3L-1)/(2L) h f(t_n, y_n)

It is consistent for every nonzero lambda, zero-stable exactly for
lambda in (-inf, -1) union (1/3, +inf), and the maximum nonprincipal root
modulus is minimized (value 1/3) at lambda = -9/5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from ._table import csv_table
from .schemes import Scheme, make_scheme

__all__ = [
    "OPTIMAL_LAMBDA",
    "RegionScan",
    "RegionPoint",
    "zerosnet_coeffs",
    "derive_from_pair",
    "closed_form_roots",
    "in_stability_region",
    "max_nonprincipal_modulus",
    "scan_region",
]

OPTIMAL_LAMBDA = -9.0 / 5.0

# Grid points this close to a singular/boundary lambda (0, -1, 1/3) are
# excluded from scans and reported separately.
EXCLUSION_RADIUS = 1e-9
_SPECIAL_LAMBDAS = (0.0, -1.0, 1.0 / 3.0)


def _require_nonzero(lam: float, name: str = "lambda") -> float:
    lam = float(lam)
    if lam == 0.0:
        raise ValueError(f"{name} must be nonzero")
    if not math.isfinite(lam):
        raise ValueError(f"{name} must be finite")
    return lam


def zerosnet_coeffs(lam: float) -> Scheme:
    """Scheme([3(1+L)/(4L), -1/L, (1+L)/(4L)], (3L-1)/(2L)) for L != 0."""
    lam = _require_nonzero(lam)
    return make_scheme(
        [3.0 * (1.0 + lam) / (4.0 * lam), -1.0 / lam, (1.0 + lam) / (4.0 * lam)],
        (3.0 * lam - 1.0) / (2.0 * lam),
    )


def derive_from_pair(lam1: float, lam2: float) -> Scheme:
    """Scheme from the two-parameter derivation; equals zerosnet_coeffs(lam2/lam1).

    The pair form reduces to the single-parameter family by lambda =
    lam2/lam1, so the reduction is used directly and the two constructors
    agree exactly.
    """
    lam1 = _require_nonzero(lam1, "lambda1")
    lam2 = _require_nonzero(lam2, "lambda2")
    if 3.0 * lam2 == lam1:
        raise ValueError("3*lambda2 must differ from lambda1")
    return zerosnet_coeffs(lam2 / lam1)


def closed_form_roots(lam: float) -> tuple[complex, complex, complex]:
    """Roots (1, rho1, rho2) of the family's characteristic polynomial.

    rho_{1,2} = (3 - L +/- sqrt((9+5L)(1-3L))) / (8L).  For a negative
    discriminant the pair is built explicitly as conjugates.
    """
    lam = _require_nonzero(lam)
    disc = (9.0 + 5.0 * lam) * (1.0 - 3.0 * lam)
    if disc >= 0.0:
        sq = math.sqrt(disc)
        rho1 = complex((3.0 - lam + sq) / (8.0 * lam))
        rho2 = complex((3.0 - lam - sq) / (8.0 * lam))
    else:
        re = (3.0 - lam) / (8.0 * lam)
        im = math.sqrt(-disc) / (8.0 * lam)
        rho1 = complex(re, im)
        rho2 = rho1.conjugate()
    return (1.0 + 0.0j, rho1, rho2)


def in_stability_region(lam: float) -> bool:
    """True iff lam < -1 or lam > 1/3 (strict; boundaries excluded)."""
    lam = _require_nonzero(lam)
    return lam < -1.0 or lam > 1.0 / 3.0


def max_nonprincipal_modulus(lam: float) -> float:
    """max(|rho1|, |rho2|) from the closed-form roots."""
    _, rho1, rho2 = closed_form_roots(lam)
    return max(abs(rho1), abs(rho2))


@dataclass(frozen=True)
class RegionPoint:
    lam: float
    max_modulus: float
    zero_stable: bool


@dataclass(frozen=True)
class RegionScan:
    """Grid scan of the family over a lambda interval.

    ``argmin_lambda`` is the zero-stable grid point with the smallest
    maximum nonprincipal modulus (ties broken toward the smaller lambda);
    None when no grid point is zero-stable.  Excluded points (too close to
    0, -1, or 1/3) are reported separately.
    """

    grid: tuple[RegionPoint, ...]
    excluded: tuple[float, ...]
    argmin_lambda: Optional[float]
    argmin_modulus: Optional[float]

    CSV_COLUMNS = (
        "lambda",
        "alpha0",
        "alpha1",
        "alpha2",
        "beta",
        "max_modulus",
        "zero_stable",
    )

    def rows(self) -> Iterator[tuple]:
        """One tuple of ``CSV_COLUMNS`` values per grid point, unformatted."""
        for point in self.grid:
            s = zerosnet_coeffs(point.lam)
            yield (point.lam, *s.alphas, s.beta, point.max_modulus, point.zero_stable)

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.rows())


def scan_region(lam_min: float, lam_max: float, step: float) -> RegionScan:
    """Evaluate stability and nonprincipal modulus on a uniform lambda grid."""
    if not (lam_min < lam_max):
        raise ValueError("lam_min must be below lam_max")
    if step <= 0:
        raise ValueError("step must be positive")

    count = int(round((lam_max - lam_min) / step))
    # When the interval bounds sit on the step grid, build points as
    # (integer index) * step; accumulating lam_min + i*step drifts by a few
    # ulps, which matters right at the double-root lambda.
    ratio = lam_min / step
    k0 = round(ratio)
    if abs(ratio - k0) < 1e-9:
        values = [(k0 + i) * step for i in range(count + 1)]
    else:
        values = [lam_min + i * step for i in range(count + 1)]
    values = [v for v in values if v <= lam_max + step * 1e-9]

    points: list[RegionPoint] = []
    excluded: list[float] = []
    for lam in values:
        if any(abs(lam - special) <= EXCLUSION_RADIUS for special in _SPECIAL_LAMBDAS):
            excluded.append(lam)
            continue
        modulus = max_nonprincipal_modulus(lam)
        points.append(RegionPoint(lam, modulus, in_stability_region(lam)))

    if not points:
        raise ValueError("scan grid contains no usable lambda values")

    argmin_lambda: Optional[float] = None
    argmin_modulus: Optional[float] = None
    for point in points:
        if not point.zero_stable:
            continue
        if argmin_modulus is None or point.max_modulus < argmin_modulus:
            argmin_modulus = point.max_modulus
            argmin_lambda = point.lam
    return RegionScan(
        grid=tuple(points),
        excluded=tuple(excluded),
        argmin_lambda=argmin_lambda,
        argmin_modulus=argmin_modulus,
    )
