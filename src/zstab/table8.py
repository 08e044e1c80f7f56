"""Reference coefficient-to-root-moduli table and its verification.

Ten third-order coefficient sets with known root moduli (two-decimal
precision) and zero-stability verdicts.  Recomputing the table end to end
exercises the root finder, the characteristic polynomial, and the root
condition at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schemes import Scheme, root_condition

__all__ = ["ReferenceRow", "RowResult", "REFERENCE_ROWS", "verify_reference_table"]


@dataclass(frozen=True)
class ReferenceRow:
    scheme: Scheme  # three-step
    moduli: tuple[float, float, float]  # two-decimal, descending
    zero_stable: bool


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(Scheme((1.0, 1.0, 1.0), 1.0), (1.84, 0.74, 0.74), False),
    ReferenceRow(Scheme((3.75, -4.0, 1.25), -0.5), (2.18, 1.00, 0.57), False),
    ReferenceRow(Scheme((-3.0, 5.0, -1.0), 4.0), (4.24, 1.00, 0.24), False),
    ReferenceRow(Scheme((-0.75, 2.0, -0.25), 2.5), (1.88, 1.00, 0.13), False),
    ReferenceRow(Scheme((2.25, -2.0, 0.75), 0.5), (1.00, 0.87, 0.87), True),
    ReferenceRow(Scheme((0.1, 0.2, 0.3), 0.4), (0.81, 0.61, 0.61), True),
    ReferenceRow(Scheme((0.5, 0.3, 0.1), 0.1), (0.94, 0.33, 0.33), True),
    ReferenceRow(Scheme((0.825, -0.1, 0.275), 1.45), (1.00, 0.52, 0.52), True),
    ReferenceRow(Scheme((1.0, 0.3, -0.4), 1.0), (0.82, 0.82, 0.60), True),
    # Printed as (0.3333, 0.5556, 0.1111, 1.7778); the actual coefficients
    # are the exact fractions (1/3, 5/9, 1/9, 16/9).
    ReferenceRow(Scheme((1.0 / 3.0, 5.0 / 9.0, 1.0 / 9.0), 16.0 / 9.0), (1.00, 0.33, 0.33), True),
)


@dataclass(frozen=True)
class RowResult:
    row: ReferenceRow
    computed_moduli: tuple[float, float, float]
    computed_zero_stable: bool

    @property
    def moduli_match(self) -> bool:
        return self.computed_moduli == self.row.moduli

    @property
    def verdict_match(self) -> bool:
        return self.computed_zero_stable == self.row.zero_stable

    @property
    def passed(self) -> bool:
        return self.moduli_match and self.verdict_match


def verify_reference_table() -> list[RowResult]:
    """Recompute every row of ``REFERENCE_ROWS``, as it reads at the call;
    moduli are compared after two-decimal rounding, which keeps their
    descending order."""
    results = []
    for row in REFERENCE_ROWS:
        report = root_condition(row.scheme)
        rounded = tuple(round(m, 2) for m in report.moduli)
        results.append(
            RowResult(
                row=row,
                computed_moduli=rounded,
                computed_zero_stable=report.zero_stable,
            )
        )
    return results
