"""Integrating test problems and estimating convergence order.

We run the decay problem dy/dt = -y with a first-order scheme and with the
optimal three-step family member, then fit the global-error slope against
the step size.  A divergence probe on a non-zero-stable scheme shows what
instability looks like in practice.
"""

import math

from zstab import (
    convergence_order,
    decay_problem,
    constant_problem,
    first_order,
    integrate,
    zero_stability_probe,
    zerosnet_coeffs,
)

euler = first_order(1)
family = zerosnet_coeffs(-9 / 5)

# Integrate to t = 1 and compare against exp(-1).
problem = decay_problem()
for name, s in (("euler", euler), ("three-step family", family)):
    traj = integrate(s, problem, h=0.01, n_steps=101 - s.order)
    err = abs(traj.final_state()[0] - math.exp(-traj.times[-1]))
    print(f"{name}: y({traj.times[-1]:.2f}) = {traj.final_state()[0]:.8f} "
          f"error {err:.2e}")

# Convergence order from a Richardson-style step-size study.
h_list = [0.02, 0.01, 0.005, 0.0025]
print("\nconvergence orders on dy/dt = -y")
for name, s in (("euler", euler), ("three-step family", family)):
    est = convergence_order(s, problem, h_list, t_end=1.0)
    errs = ", ".join(f"{e:.2e}" for e in est.errors)
    print(f"  {name}: order {est.order:.3f} (errors {errs})")

# Zero-stability probe: perturb the seed states by 1e-3 and watch the gap.
print("\ndivergence probes, eps = 1e-3")
_, stable = zero_stability_probe(family, problem, eps=1e-3, h=0.01, n_steps=100)
print(f"  three-step family: amplification ratio {stable.ratio:.3f}")

_, unstable = zero_stability_probe(
    first_order(2), constant_problem(), eps=1e-3, h=0.01, n_steps=20
)
print(f"  first_order(2): amplification ratio {unstable.ratio:.3g} "
      f"(gap doubles every step)")
print("  last five gaps:",
      ", ".join(f"{g:.3g}" for g in unstable.per_step[-5:]))
