"""Mapping the stability region of the lambda-parameterized family.

The three-step family has closed-form characteristic roots, so we can scan
lambda densely, compare the closed forms against the numeric root finder,
and locate the coefficient set whose nonprincipal roots are smallest.
"""

from zstab import (
    OPTIMAL_LAMBDA,
    closed_form_roots,
    in_stability_region,
    max_nonprincipal_modulus,
    scan_region,
    zerosnet_coeffs,
)

# The family is zero-stable exactly on (-inf, -1) union (1/3, inf).
print("membership spot checks")
for lam in (-2.0, -1.5, -0.5, 0.2, 0.4, 1.0):
    print(f"  lambda={lam:<5} in_region={in_stability_region(lam)} "
          f"max_nonprincipal={max_nonprincipal_modulus(lam):.4f}")

# Scan a wide interval.  Points too close to the singular value 0 and the
# boundary values -1 and 1/3 are excluded and reported separately.
scan = scan_region(-10.0, 10.0, 0.01)
stable = int(scan.zero_stable.sum())
print(f"\nscan of [-10, 10], step 0.01: {len(scan.grid)} points, "
      f"{stable} zero-stable, {len(scan.excluded)} excluded")
print(f"argmin lambda={scan.argmin_lambda:.4g} "
      f"modulus={scan.argmin_modulus:.6f} (closed-form optimum 1/3 at -9/5)")

# At the optimum the two nonprincipal roots collide at -1/3.
roots = closed_form_roots(OPTIMAL_LAMBDA)
print(f"\nroots at lambda={OPTIMAL_LAMBDA}: "
      + ", ".join(f"{r.real:+.4f}{r.imag:+.4f}j" for r in roots))
s = zerosnet_coeffs(OPTIMAL_LAMBDA)
print(f"optimal coefficients: alphas={tuple(round(a, 4) for a in s.alphas)} "
      f"beta={s.beta:.4f}")

# The first few CSV rows of the scan, as the CLI would write them.
print("\nCSV head")
for line in scan.to_csv().splitlines()[:5]:
    print("  " + line)
