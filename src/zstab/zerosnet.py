"""The lambda-parameterized three-step coefficient family.

For a nonzero scalar lambda the update is

    y_{n+1} = 3(1+L)/(4L) y_n - 1/L y_{n-1} + (1+L)/(4L) y_{n-2}
              + (3L-1)/(2L) h f(t_n, y_n)

It is consistent for every nonzero lambda, and the maximum nonprincipal
root modulus is minimized (value 1/3) at lambda = -9/5.

The closed-form region, lambda in (-inf, -1) union (1/3, +inf), is that of
*strict* stability: both nonprincipal roots lie strictly inside the unit
circle.  It is stricter than zero stability (the root condition, which
``schemes.root_condition`` decides) at one point: at lambda = -1 the roots
are 1, -1 and 0, all simple, so the scheme is zero-stable but not strictly
stable.  At lambda = 1/3, the triple root 1, it is neither.  Both
boundaries are excluded from scans, so a scan never prints -1, and on its
grid the two notions agree.

Each closed form is written once for a float or a numpy array of lambdas:
the scalar functions validate their lambda and call it, and ``scan_region``
calls it once on the whole grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from ._lazy import np
from ._table import csv_table
from .schemes import Scheme

__all__ = [
    "OPTIMAL_LAMBDA",
    "RegionScan",
    "zerosnet_coeffs",
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

# The most grid points one scan may plan, round((max - min) / step) + 1; a
# step asking for more is rejected before anything is allocated.
MAX_SCAN_POINTS = 10**6


def _family(lam):
    """(alpha0, alpha1, alpha2, beta) = (3(1+L)/(4L), -1/L, (1+L)/(4L), (3L-1)/(2L)).

    Past |L| ~ 4.5e307 4L overflows, and past ~6e307 so do 3L and 3(1+L).
    There, and only there, every term is divided by L: the coefficients are
    (3(1/L + 1)/4, -1/L, (1/L + 1)/4, (3 - 1/L)/2), which tend to
    (3/4, 0, 1/4, 3/2).
    """
    with np.errstate(all="ignore"):
        four = 4.0 * lam
        terms = (
            3.0 * (1.0 + lam) / four,
            -1.0 / lam,
            (1.0 + lam) / four,
            (3.0 * lam - 1.0) / (2.0 * lam),
        )
        big = np.isinf(four)
        if big.any():
            inv = 1.0 / lam
            scaled = (3.0 * (inv + 1.0) / 4.0, -inv, (inv + 1.0) / 4.0, (3.0 - inv) / 2.0)
            terms = tuple(np.where(big, b, t) for b, t in zip(scaled, terms))
        return terms


def _rho(lam):
    """rho1 and rho2 as (re1, re2, im), with max(|rho1|, |rho2|).

    rho_{1,2} = (3 - L +/- sqrt((9+5L)(1-3L))) / (8L).  A nonnegative
    discriminant gives two real roots with imaginary part +0.0; a negative
    one gives the conjugates (3-L)/(8L) +/- i sqrt(-disc)/(8L), and ``im``
    is rho1's imaginary part.

    Past |L| ~ 3.5e153 the discriminant overflows, and past ~2.2e307 so
    does 8L.  There, and only there, every term is divided by L: the roots
    are (3/L - 1 +/- sign(L) sqrt((9/L + 5)(1/L - 3))) / 8, which tend to
    the pair of modulus 1/2.
    """
    with np.errstate(all="ignore"):
        disc = (9.0 + 5.0 * lam) * (1.0 - 3.0 * lam)
        sq = np.sqrt(np.abs(disc))
        num, den = 3.0 - lam, 8.0 * lam
        big = np.isinf(disc)
        if big.any():
            inv = 1.0 / lam
            disc = np.where(big, (9.0 * inv + 5.0) * (inv - 3.0), disc)
            sq = np.where(big, np.copysign(np.sqrt(np.abs(disc)), lam), sq)
            num = np.where(big, 3.0 * inv - 1.0, num)
            den = np.where(big, 8.0, den)
        real = disc >= 0.0
        re1 = np.where(real, (num + sq) / den, num / den)
        re2 = np.where(real, (num - sq) / den, num / den)
        im = np.where(real, 0.0, sq / den)
        # hypot, not np.abs of a complex array, which can differ in the last
        # bit from abs(complex).
        return re1, re2, im, np.maximum(np.hypot(re1, im), np.hypot(re2, im))


def _in_region(lam):
    return (lam < -1.0) | (lam > 1.0 / 3.0)


def _require_nonzero(lam: float) -> float:
    lam = float(lam)
    if lam == 0.0:
        raise ValueError("lambda must be nonzero")
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    return lam


def zerosnet_coeffs(lam: float) -> Scheme:
    """Scheme([3(1+L)/(4L), -1/L, (1+L)/(4L)], (3L-1)/(2L)) for L != 0.

    Raises ``ValueError`` for an L so close to 0 that -1/L overflows.
    """
    lam = _require_nonzero(lam)
    *alphas, beta = terms = _family(lam)
    if not all(map(math.isfinite, terms)):
        raise ValueError(f"lambda={lam!r} is too close to 0: the family's coefficients overflow")
    return Scheme(alphas, beta)


def closed_form_roots(lam: float) -> tuple[complex, complex, complex]:
    """Roots (1, rho1, rho2) of the family's characteristic polynomial."""
    re1, re2, im, _ = _rho(_require_nonzero(lam))
    # 0.0 - im rather than -im, so a real rho2 keeps the imaginary part +0.0.
    return (1.0 + 0.0j, complex(re1, im), complex(re2, 0.0 - im))


def in_stability_region(lam: float) -> bool:
    """True iff lam < -1 or lam > 1/3: strict stability, with both
    nonprincipal roots strictly inside the unit circle.

    False at lam = -1, where the scheme is zero-stable: its roots 1, -1 and
    0 are simple, and only the strict notion excludes -1 on the circle.
    """
    return _in_region(_require_nonzero(lam))


def max_nonprincipal_modulus(lam: float) -> float:
    """max(|rho1|, |rho2|) from the closed-form roots."""
    return float(_rho(_require_nonzero(lam))[3])


@dataclass(frozen=True, eq=False)
class RegionScan:
    """Grid scan of the family over a lambda interval, as read-only columns.

    ``grid`` holds the scanned lambdas, ascending; ``max_moduli`` and
    ``zero_stable`` hold max(|rho1|, |rho2|) and the region verdict at each
    (strict stability, which agrees with the root condition on the grid).
    ``argmin_lambda`` is the zero-stable grid point with the smallest
    maximum nonprincipal modulus (ties broken toward the smaller lambda);
    None when no grid point is zero-stable.  Excluded points (too close to
    0, -1, or 1/3) are in no column and reported separately.
    """

    grid: np.ndarray
    max_moduli: np.ndarray
    zero_stable: np.ndarray
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

    def columns(self) -> tuple[np.ndarray, ...]:
        """The ``CSV_COLUMNS`` as arrays, one value per grid point."""
        return (self.grid, *_family(self.grid), self.max_moduli, self.zero_stable)

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.columns())


def scan_region(lam_min: float, lam_max: float, step: float) -> RegionScan:
    """Evaluate stability and nonprincipal modulus on a uniform lambda grid."""
    if not (lam_min < lam_max):
        raise ValueError("lam_min must be below lam_max")
    if step <= 0:
        raise ValueError("step must be positive")
    span = (lam_max - lam_min) / step
    if not all(map(math.isfinite, (lam_min, lam_max, step, span))):
        raise ValueError("scan bounds, step and point count must be finite")
    # round(span) + 1 points; round breaks ties toward even, and the limit is even.
    if span >= MAX_SCAN_POINTS - 0.5:
        raise ValueError(f"scan needs more than {MAX_SCAN_POINTS} grid points")

    index = np.arange(int(round(span)) + 1, dtype=float)
    # When the interval bounds sit on the step grid, build points as
    # (integer index) * step; accumulating lam_min + i*step drifts by a few
    # ulps, which matters right at the double-root lambda.  Next to the
    # largest float k0 * step can overflow; the grid then starts at lam_min.
    ratio = lam_min / step
    k0 = round(ratio)
    on_grid = abs(ratio - k0) < 1e-9 and math.isfinite(k0 * step)
    with np.errstate(over="ignore"):
        values = (float(k0) + index) * step if on_grid else lam_min + index * step
    # The bound saturates at the largest float, so that a point past the
    # end that overflowed to inf is dropped: every value left is finite.
    values = values[values <= min(lam_max + step * 1e-9, sys.float_info.max)]

    near = np.any(np.abs(values[:, None] - _SPECIAL_LAMBDAS) <= EXCLUSION_RADIUS, axis=1)
    grid = values[~near]
    if grid.size == 0:
        raise ValueError("scan grid contains no usable lambda values")
    moduli = _rho(grid)[3]
    stable = _in_region(grid)
    for column in (grid, moduli, stable):
        column.flags.writeable = False

    argmin_lambda = argmin_modulus = None
    candidates = np.flatnonzero(stable)
    if candidates.size:
        # The first smallest modulus, so a tie goes to the smaller lambda.
        best = candidates[np.argmin(moduli[candidates])]
        argmin_lambda, argmin_modulus = float(grid[best]), float(moduli[best])
    excluded = tuple(values[near].tolist())
    return RegionScan(grid, moduli, stable, excluded, argmin_lambda, argmin_modulus)
