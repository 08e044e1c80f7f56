"""Noise robustness of depth-wise feature propagation.

Every scheme propagates the same random input through the same stack of
Lipschitz blocks, once clean and once with noise injected on the input.
Zero-stable schemes keep the final gap on the order of the injected noise;
non-zero-stable schemes amplify it geometrically with depth.
"""

import math

from zstab import (
    NoiseSpec,
    REFERENCE_ROWS,
    growth_rate,
    robustness_sweep,
    root_condition,
)

# The dominant characteristic root modulus predicts the log-gap slope when
# the activation path is disabled.
print("growth rate vs dominant root modulus")
for i, row in enumerate(REFERENCE_ROWS[:5]):
    s = row.scheme
    dominant = root_condition(s).moduli[0]
    slope = growth_rate(s, depth=50)
    print(f"  row {i + 1}: slope {slope:+.4f} log(dominant) "
          f"{math.log(dominant):+.4f}")

# Sweep all ten reference schemes against gaussian input noise.
schemes = [row.scheme for row in REFERENCE_ROWS]
specs = [NoiseSpec("gaussian", (sigma,)) for sigma in (0.01, 0.02, 0.04)]
report = robustness_sweep(schemes, specs, depth=56, width=64, trials=3, seed=1)

print("\nfinal clean-vs-noisy gaps, depth 56, width 64, 3 trials")
header = f"  {'scheme':<28} {'zs':<6} " + " ".join(
    f"sigma={s:<6}" for s in (0.01, 0.02, 0.04)
)
print(header)
for i, (zero_stable, row_gaps) in enumerate(
    zip(report.zero_stable.tolist(), report.mean_gap.tolist())
):
    gaps = " ".join(
        f"{g:<12.3g}" if math.isfinite(g) else f"{'inf':<12}" for g in row_gaps
    )
    print(f"  row {i + 1:<24} {str(zero_stable):<6} {gaps}")

means = report.group_means()
print(f"\ngroup means at all sigmas: zero-stable {means[True]:.3g}, "
      f"non-zero-stable {means[False]:.3g}")
