"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line on stdout (visible with pytest -s or in
captured output on failure) and enforces its stated tolerance and, where
applicable, runtime budget.
"""

import math
import time

import numpy as np

from zstab.ivp import convergence_order, decay_problem, zero_stability_probe
from zstab.propagation import NoiseSpec, robustness_sweep
from zstab.schemes import (
    consistency_check,
    first_order,
    lm_second_order,
    root_condition,
)
from zstab.table8 import REFERENCE_ROWS, verify_reference_table
from zstab.zerosnet import (
    closed_form_roots,
    in_stability_region,
    max_nonprincipal_modulus,
    scan_region,
    zerosnet_coeffs,
)

from reference import compare_propagations

from conftest import match_roots


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


class _ZeroBlock:
    def __call__(self, y):
        return np.zeros_like(y)


def test_criterion_1_reference_table():
    start = time.perf_counter()
    results = verify_reference_table()
    elapsed = time.perf_counter() - start
    failed = [i + 1 for i, r in enumerate(results) if not r.passed]
    ok = not failed and elapsed < 1.0
    report(
        1,
        ok,
        f"table rows {len(results) - len(failed)}/{len(results)} pass "
        f"in {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_2_low_order_classification():
    first = {2: False, 1.5: False, 0.5: True, 0.7: True, 1: True}
    second = {-1.5: False, 1.5: False, -0.5: True, 0.5: True}
    bad = []
    for alpha, expected in first.items():
        if root_condition(first_order(alpha)).zero_stable is not expected:
            bad.append(f"alpha={alpha}")
    for k, expected in second.items():
        if root_condition(lm_second_order(k)).zero_stable is not expected:
            bad.append(f"k={k}")
    report(2, not bad, f"one/two-step classification mismatches: {bad or 'none'}")


def test_criterion_3_stability_region_grid():
    start = time.perf_counter()
    verdict_mismatches = 0
    worst_root_gap = 0.0
    checked = 0
    for k in range(-1000, 1001):
        lam = k * 0.01
        if min(abs(lam), abs(lam + 1.0), abs(lam - 1.0 / 3.0)) <= 1e-6:
            continue
        checked += 1
        rep = root_condition(zerosnet_coeffs(lam))
        if rep.zero_stable is not in_stability_region(lam):
            verdict_mismatches += 1
        gap = match_roots(list(closed_form_roots(lam)), rep.roots.values())
        worst_root_gap = max(worst_root_gap, gap)
    elapsed = time.perf_counter() - start
    ok = verdict_mismatches == 0 and worst_root_gap < 1e-8 and elapsed < 5.0
    report(
        3,
        ok,
        f"{checked} grid points, {verdict_mismatches} verdict mismatches, "
        f"worst root gap {worst_root_gap:.2e} (tol 1e-8), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_4_optimal_lambda():
    s = zerosnet_coeffs(-9 / 5)
    coeff_err = max(
        abs(s.alphas[0] - 1 / 3),
        abs(s.alphas[1] - 5 / 9),
        abs(s.alphas[2] - 1 / 9),
        abs(s.beta - 16 / 9),
    )
    modulus_err = abs(max_nonprincipal_modulus(-9 / 5) - 1 / 3)
    scan = scan_region(-10.0, 10.0, 0.01)
    argmin_ok = (
        scan.argmin_lambda is not None
        and abs(scan.argmin_lambda + 1.8) <= 0.01
        and all(
            scan.argmin_modulus <= modulus
            for modulus in scan.max_moduli[scan.zero_stable]
        )
    )
    ok = coeff_err <= 1e-12 and modulus_err <= 1e-10 and argmin_ok
    report(
        4,
        ok,
        f"coeff err {coeff_err:.2e} (tol 1e-12), modulus err {modulus_err:.2e} "
        f"(tol 1e-10), scan argmin {scan.argmin_lambda}",
    )


def test_criterion_5_convergence_orders():
    h_list = [0.02, 0.01, 0.005, 0.0025]
    problem = decay_problem()
    family = convergence_order(zerosnet_coeffs(-9 / 5), problem, h_list, 1.0).order
    euler = convergence_order(first_order(1), problem, h_list, 1.0).order
    ok = 1.7 <= family <= 2.3 and 0.8 <= euler <= 1.2
    report(
        5,
        ok,
        f"three-step family order {family:.3f} (want [1.7, 2.3]), "
        f"one-step order {euler:.3f} (want [0.8, 1.2])",
    )


def test_criterion_6_growth_rate_oracle():
    from zstab.propagation import growth_rate

    bad = []
    for i, row in enumerate(REFERENCE_ROWS):
        s = row.scheme
        rep = root_condition(s)
        dominant = rep.moduli[0]
        if dominant > 1.05:
            slope = growth_rate(s, depth=50)
            target = math.log(dominant)
            if abs(slope - target) > 0.02 * abs(target):
                bad.append(f"row {i + 1} slope {slope:.4f} vs {target:.4f}")
        if row.zero_stable:
            rng = np.random.default_rng(i)
            width = 8
            clean = [np.zeros(width) for _ in range(3)]
            noisy = [rng.standard_normal(width) * 1e-3 for _ in range(3)]
            result = compare_propagations(
                s, [_ZeroBlock()], clean, noisy, depth=1000
            )
            initial = max(result.per_depth_gap[:3])
            if result.blew_up_at is not None or max(result.per_depth_gap) > 10 * initial:
                bad.append(f"row {i + 1} gap exceeds 10x initial")
    report(6, not bad, f"growth-rate mismatches: {bad or 'none'}")


def test_criterion_7_robustness_ordering():
    start = time.perf_counter()
    schemes = [row.scheme for row in REFERENCE_ROWS]
    sigmas = (0.01, 0.02, 0.04)
    specs = [NoiseSpec("gaussian", (s,)) for s in sigmas]
    sweep = robustness_sweep(
        schemes, specs, depth=56, width=64, trials=3, seed=1
    )
    elapsed = time.perf_counter() - start

    # mean_gap has one row per scheme and one column per sigma.
    at_002 = sweep.mean_gap[:, sigmas.index(0.02)]
    stable = at_002[sweep.zero_stable].tolist()
    unstable = at_002[~sweep.zero_stable].tolist()
    ordering_ok = max(stable) < min(unstable)
    finite_unstable = [g for g in unstable if math.isfinite(g)]
    group_ratio = (
        math.inf
        if not finite_unstable
        else float(np.mean(finite_unstable)) / float(np.mean(stable))
    )
    monotone_ok = True
    for gaps in sweep.mean_gap.tolist():
        finite = [g for g in gaps if math.isfinite(g)]
        if any(a > b for a, b in zip(finite, finite[1:])):
            monotone_ok = False
    ok = ordering_ok and group_ratio >= 5.0 and monotone_ok and elapsed < 60.0
    report(
        7,
        ok,
        f"stable max {max(stable):.3g} < unstable min {min(unstable):.3g}: "
        f"{ordering_ok}; group ratio {group_ratio:.3g} (want >= 5); "
        f"monotone in sigma: {monotone_ok}; {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_8_consistency_identity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        lam = 0.0
        while abs(lam) < 1e-6:
            lam = rng.uniform(-10, 10)
        rep = consistency_check(zerosnet_coeffs(lam))
        worst = max(worst, abs(rep.sum_alpha - 1.0), abs(rep.moment - 1.0))
    ok = worst <= 1e-12
    report(8, ok, f"worst consistency deviation {worst:.2e} (tol 1e-12)")


def test_criterion_9_probe_bound():
    family, decay = zerosnet_coeffs(-9 / 5), decay_problem()
    _, bounded = zero_stability_probe(family, decay, eps=1e-3, h=0.01, n_steps=100)
    from zstab.ivp import constant_problem

    constant = constant_problem()
    _, diverging = zero_stability_probe(first_order(2), constant, eps=1e-3, h=0.01, n_steps=20)
    ratio20 = diverging.per_step[20] / diverging.initial_gap
    ok = bounded.ratio <= 10.0 and ratio20 > 1e5
    report(
        9,
        ok,
        f"stable amplification {bounded.ratio:.3f} (want <= 10), "
        f"unstable ratio at step 20 {ratio20:.3g} (want > 1e5)",
    )
