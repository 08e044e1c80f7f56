"""A tour of the root condition for explicit multistep schemes.

We build a handful of one-, two-, and three-step schemes, compute their
characteristic polynomials, and let the root condition decide which ones
are zero-stable.  The reference table at the end recomputes all ten known
coefficient rows from scratch.
"""

from zstab import (
    Scheme,
    characteristic_polynomial,
    consistency_check,
    first_order,
    lm_second_order,
    root_condition,
    verify_reference_table,
)

# One-step schemes y_{n+1} = alpha*y_n + h*f.  The characteristic root is
# simply alpha, so |alpha| <= 1 is the whole story.
print("one-step schemes")
for alpha in (0.5, 0.7, 1.0, 1.5, 2.0):
    rep = root_condition(first_order(alpha))
    print(f"  alpha={alpha:<4} moduli={rep.moduli} zero_stable={rep.zero_stable}")

# Two-step schemes factor as (rho - 1)(rho + k): the principal root is
# pinned at 1 and the free root is -k.
print("\ntwo-step schemes")
for k in (-1.5, -0.5, 0.5, 1.5):
    s = lm_second_order(k)
    p = characteristic_polynomial(s)
    rep = root_condition(s)
    print(f"  k={k:<5} r(rho) coefficients={p.coefficients} "
          f"zero_stable={rep.zero_stable}")

# A three-step scheme can be zero-stable without being consistent and the
# other way around; the two checks are independent.
print("\nstability vs consistency")
s = Scheme([0.1, 0.2, 0.3], 0.4)
print(f"  scheme {s.label()}")
print(f"  zero_stable={root_condition(s).zero_stable}")
print(f"  consistent={consistency_check(s).consistent} "
      f"(sum_alpha={consistency_check(s).sum_alpha})")

# Recompute the full reference table: ten coefficient rows with known
# two-decimal moduli and verdicts.
print("\nreference table")
for i, res in enumerate(verify_reference_table()):
    mark = "ok " if res.passed else "BAD"
    moduli = ", ".join(f"{m:.2f}" for m in res.computed_moduli)
    print(f"  row {i + 1:>2} [{mark}] moduli=({moduli}) "
          f"zero_stable={res.computed_zero_stable}")
