import csv
import io
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zstab import zerosnet
from zstab._table import json_table
from zstab.schemes import (
    Scheme,
    characteristic_polynomial,
    consistency_check,
    root_condition,
)
from zstab.polyroots import find_roots
from zstab.zerosnet import (
    MAX_SCAN_POINTS,
    OPTIMAL_LAMBDA,
    RegionScan,
    closed_form_roots,
    in_stability_region,
    max_nonprincipal_modulus,
    scan_region,
    zerosnet_coeffs,
)

import reference
from conftest import match_roots

nonzero_lambda = st.floats(min_value=-10, max_value=10).filter(
    lambda v: abs(v) > 1e-3
)
any_nonzero_lambda = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: v != 0.0
)


# The closed forms and the per-point scan as they were written before the
# family was evaluated over numpy arrays: plain float arithmetic, one lambda
# at a time.  The array code must reproduce them bit for bit.


def _reference_coeffs(lam):
    if math.isinf(4.0 * lam):
        # Where 4 lam overflows, every term is divided by lam.
        inv = 1.0 / lam
        alphas = [3.0 * (inv + 1.0) / 4.0, -1.0 / lam, (inv + 1.0) / 4.0]
        beta = (3.0 - inv) / 2.0
    else:
        alphas = [3.0 * (1.0 + lam) / (4.0 * lam), -1.0 / lam, (1.0 + lam) / (4.0 * lam)]
        beta = (3.0 * lam - 1.0) / (2.0 * lam)
    if not all(math.isfinite(c) for c in (*alphas, beta)):
        raise ValueError(f"lambda={lam!r} is too close to 0: the family's coefficients overflow")
    return Scheme(alphas, beta)


def _reference_roots(lam):
    disc = (9.0 + 5.0 * lam) * (1.0 - 3.0 * lam)
    num, den, sign = 3.0 - lam, 8.0 * lam, 1.0
    if math.isinf(disc):
        # Where the discriminant overflows, every term is divided by lam.
        inv = 1.0 / lam
        disc = (9.0 * inv + 5.0) * (inv - 3.0)
        num, den, sign = 3.0 * inv - 1.0, 8.0, math.copysign(1.0, lam)
    if disc >= 0.0:
        sq = sign * math.sqrt(disc)
        rho1 = complex((num + sq) / den)
        rho2 = complex((num - sq) / den)
    else:
        re = num / den
        im = sign * math.sqrt(-disc) / den
        rho1 = complex(re, im)
        rho2 = rho1.conjugate()
    return (1.0 + 0.0j, rho1, rho2)


def _reference_modulus(lam):
    _, rho1, rho2 = _reference_roots(lam)
    return max(abs(rho1), abs(rho2))


def _reference_scan(lam_min, lam_max, step):
    """(CSV, JSON, excluded, argmin_lambda, argmin_modulus) of the old scan.

    CSV and JSON are the ValueError's repr when building a row's scheme
    fails.
    """
    count = int(round((lam_max - lam_min) / step))
    ratio = lam_min / step
    k0 = round(ratio)
    if abs(ratio - k0) < 1e-9:
        values = [(k0 + i) * step for i in range(count + 1)]
    else:
        values = [lam_min + i * step for i in range(count + 1)]
    values = [v for v in values if v <= lam_max + step * 1e-9]
    points, excluded = [], []
    for lam in values:
        if any(abs(lam - special) <= 1e-9 for special in (0.0, -1.0, 1.0 / 3.0)):
            excluded.append(lam)
            continue
        if not math.isfinite(lam):
            raise ValueError("lambda must be finite")
        points.append((lam, _reference_modulus(lam), lam < -1.0 or lam > 1.0 / 3.0))
    if not points:
        raise ValueError("scan grid contains no usable lambda values")
    argmin_lambda = argmin_modulus = None
    for lam, modulus, stable in points:
        if stable and (argmin_modulus is None or modulus < argmin_modulus):
            argmin_lambda, argmin_modulus = lam, modulus
    try:
        rows = []
        for lam, modulus, stable in points:
            s = _reference_coeffs(lam)
            rows.append((lam, *s.alphas, s.beta, modulus, stable))
        tables = (
            reference.csv_table(RegionScan.CSV_COLUMNS, rows),
            reference.json_table(RegionScan.CSV_COLUMNS, rows),
        )
    except ValueError as exc:
        tables = (repr(exc), repr(exc))
    return (*tables, tuple(excluded), argmin_lambda, argmin_modulus)


def _scan_outputs(lam_min, lam_max, step):
    scan = scan_region(lam_min, lam_max, step)
    try:
        tables = (scan.to_csv(), json_table(RegionScan.CSV_COLUMNS, scan.columns()))
    except ValueError as exc:
        tables = (repr(exc), repr(exc))
    return (*tables, scan.excluded, scan.argmin_lambda, scan.argmin_modulus)


@st.composite
def scan_bounds(draw):
    """(lam_min, lam_max, step) with at most a few hundred grid points.

    Grids on the step through one of -9/5, -1, 0 and 1/3, bounds off the
    step grid around them, anywhere in [-12, 12], and far out where the
    closed forms divide every term by lambda.
    """
    kind = draw(st.sampled_from(["through", "off-grid", "anywhere", "huge"]))
    below, above = draw(st.integers(0, 300)), draw(st.integers(1, 300))
    if kind == "huge":
        # The seams: the discriminant overflows past ~3.5e153, 8*lambda past
        # ~2.2e307 and 4*lambda past ~4.5e307.
        lam_min = draw(st.floats(1e306, 1e307)) * draw(st.sampled_from([1.0, -1.0]))
        step = draw(st.floats(1e-3, 1.0)) * abs(lam_min) / 20
        return lam_min, lam_min + above * step, step
    target = draw(st.sampled_from([OPTIMAL_LAMBDA, -1.0, 0.0, 1.0 / 3.0]))
    if target == 1.0 / 3.0:
        step = draw(st.sampled_from([1.0 / 3.0, 1.0 / 30.0, 1.0 / 300.0]))
    else:
        step = draw(st.sampled_from([0.2, 0.1, 0.05, 0.01, 0.002, 1e-3, 1e-4]))
    if kind == "through":
        k = round(target / step)
        return (k - below) * step, (k + above) * step, step
    if kind == "off-grid":
        lo = draw(st.floats(0.0, 1.0, exclude_min=True)) * step
        hi = draw(st.floats(0.0, 1.0, exclude_min=True)) * step
        return target - below * step - lo, target + above * step + hi, step
    lam_min = draw(st.floats(-12.0, 12.0))
    step = draw(st.floats(1e-4, 0.5))
    return lam_min, lam_min + (above + draw(st.floats(0.0, 1.0))) * step, step


class TestCoefficients:
    def test_optimal_lambda(self):
        s = zerosnet_coeffs(-9 / 5)
        assert np.allclose(s.alphas, (1 / 3, 5 / 9, 1 / 9), atol=1e-15)
        assert abs(s.beta - 16 / 9) < 1e-15

    def test_lambda_one(self):
        s = zerosnet_coeffs(1.0)
        assert s.alphas == (1.5, -1.0, 0.5)
        assert s.beta == 1.0

    def test_lambda_minus_one(self):
        # 1 + lambda = 0 kills the y_n and y_{n-2} weights
        s = zerosnet_coeffs(-1.0)
        assert s.alphas == (0.0, 1.0, 0.0)
        assert s.beta == 2.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            zerosnet_coeffs(0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            zerosnet_coeffs(float("inf"))

    @pytest.mark.parametrize("lam", [1e-320, -1e-310, 5e-324, -5.5e-309])
    def test_lambda_too_close_to_zero_is_named(self, lam):
        # -1/lambda overflows: the message names lambda, not the scheme's
        # coefficients, which the caller never gave.
        message = f"lambda={lam!r} is too close to 0: the family's coefficients overflow"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            zerosnet_coeffs(lam)


class TestClosedFormRoots:
    def test_optimal_double_root(self):
        r0, r1, r2 = closed_form_roots(-9 / 5)
        assert r0 == 1.0 + 0j
        assert abs(r1 + 1 / 3) < 1e-12
        assert abs(r2 + 1 / 3) < 1e-12

    def test_conjugate_pair_modulus(self):
        # lambda = 1: discriminant is negative; |rho|^2 = 1/4 + 1/(4 lambda)
        r0, r1, r2 = closed_form_roots(1.0)
        assert r1.conjugate() == r2
        assert abs(abs(r1) - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_boundary_factorable(self):
        roots = closed_form_roots(-1.0)
        assert match_roots([1.0, 0.0, -1.0], roots) < 1e-14

    @given(nonzero_lambda)
    @settings(max_examples=200, deadline=None)
    def test_matches_numeric_roots(self, lam):
        if abs(lam - 1 / 3) < 1e-2:
            return  # triple root at lambda = 1/3 limits numeric accuracy
        closed = closed_form_roots(lam)
        numeric = find_roots(characteristic_polynomial(zerosnet_coeffs(lam))).values()
        assert match_roots(list(closed), numeric) < 1e-8

    @given(nonzero_lambda)
    @settings(max_examples=100, deadline=None)
    def test_conjugate_modulus_formula(self, lam):
        disc = (9.0 + 5.0 * lam) * (1.0 - 3.0 * lam)
        if disc >= 0:
            return
        _, r1, _ = closed_form_roots(lam)
        assert abs(abs(r1) ** 2 - (0.25 + 0.25 / lam)) < 1e-12


class TestScalarsMatchReference:
    @given(any_nonzero_lambda)
    @settings(max_examples=500, deadline=None)
    def test_bit_for_bit(self, lam):
        assert repr(closed_form_roots(lam)) == repr(_reference_roots(lam))
        assert repr(max_nonprincipal_modulus(lam)) == repr(_reference_modulus(lam))
        assert in_stability_region(lam) is (lam < -1.0 or lam > 1.0 / 3.0)
        try:
            expected = repr(_reference_coeffs(lam))
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                zerosnet_coeffs(lam)
        else:
            assert repr(zerosnet_coeffs(lam)) == expected

    @pytest.mark.parametrize(
        "lam", [OPTIMAL_LAMBDA, -1.0, 1.0 / 3.0, 1.0, -4.821664994140733, 5e-324, 3e307]
    )
    def test_bit_for_bit_examples(self, lam):
        assert repr(closed_form_roots(lam)) == repr(_reference_roots(lam))
        assert repr(max_nonprincipal_modulus(lam)) == repr(_reference_modulus(lam))

    def test_real_roots_keep_positive_zero_imaginary_part(self):
        for r in closed_form_roots(OPTIMAL_LAMBDA):
            assert math.copysign(1.0, r.imag) == 1.0


class TestStabilityRegion:
    def test_examples(self):
        assert in_stability_region(-9 / 5) is True
        assert in_stability_region(0.2) is False
        assert in_stability_region(1 / 3) is False
        assert in_stability_region(-1.0) is False
        assert in_stability_region(2.0) is True

    def test_minus_one_is_zero_stable_but_not_strictly_stable(self):
        # rho^3 - rho: the simple roots 1, -1 and 0 meet the root condition,
        # but -1 lies on the circle, so the strict region excludes it.
        s = zerosnet_coeffs(-1.0)
        assert in_stability_region(-1.0) is False
        assert root_condition(s).zero_stable is True
        assert sorted(abs(z) for z in closed_form_roots(-1.0)) == [0.0, 1.0, 1.0]
        scan = scan_region(-1.5, -0.5, 0.25)
        assert -1.0 in scan.excluded and -1.0 not in scan.grid

    @given(nonzero_lambda)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_root_condition(self, lam):
        if min(abs(lam + 1.0), abs(lam - 1 / 3)) <= 1e-6:
            return  # boundary values are classified separately
        verdict = root_condition(zerosnet_coeffs(lam)).zero_stable
        assert in_stability_region(lam) == verdict

    @given(nonzero_lambda)
    @settings(max_examples=100, deadline=None)
    def test_consistency_everywhere(self, lam):
        rep = consistency_check(zerosnet_coeffs(lam))
        assert abs(rep.sum_alpha - 1.0) <= 1e-12
        assert abs(rep.moment - 1.0) <= 1e-12


class TestMaxNonprincipalModulus:
    def test_optimum_value(self):
        assert abs(max_nonprincipal_modulus(-9 / 5) - 1 / 3) < 1e-12

    def test_lambda_one(self):
        assert abs(max_nonprincipal_modulus(1.0) - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_large_lambda_limit(self):
        # |rho|^2 = 1/4 + 1/(4 lambda) -> 1/4, so the modulus tends to 1/2
        assert abs(max_nonprincipal_modulus(1e9) - 0.5) < 1e-9

    @pytest.mark.parametrize(
        "lam", [3.4e153, 3.5e153, 1e200, 2.2e307, 3e307, sys.float_info.max],
    )
    def test_huge_lambda_keeps_the_limit(self, lam):
        # Past |lambda| ~ 3.5e153 the discriminant overflows, past ~2.2e307
        # so does 8 lambda; the modulus stays at its limit 1/2 on both sides
        # of each seam, with the conjugate pair at -1/8 +/- i sqrt(15)/8.
        for x in (lam, -lam):
            _, r1, r2 = closed_form_roots(x)
            assert r1 == r2.conjugate() and abs(r1.real + 0.125) < 1e-15
            assert abs(abs(r1.imag) - math.sqrt(15.0) / 8.0) < 1e-15
            assert abs(max_nonprincipal_modulus(x) - 0.5) < 1e-15

    @given(any_nonzero_lambda)
    @example(5e-324)
    @example(-sys.float_info.max)
    @settings(max_examples=300, deadline=None)
    def test_finite_on_every_scan_grid_lambda(self, lam):
        # A scan grid keeps |lambda| > 1e-9; below ~4e-309 the roots exceed
        # the float max and the modulus is inf, but it is never NaN.
        modulus = max_nonprincipal_modulus(lam)
        assert math.isfinite(modulus) if abs(lam) > 1e-9 else not math.isnan(modulus)

    def test_finite_on_a_log_uniform_screen(self):
        lam = np.append(10.0 ** np.linspace(-9.0, 308.0, 200_001), sys.float_info.max)
        for x in (lam, -lam):
            assert np.isfinite(zerosnet._rho(x)[3]).all()
            # The coefficient columns of a scan, which are not checked there.
            assert all(np.isfinite(c).all() for c in zerosnet._family(x))

    def test_strict_minimum_at_optimum(self):
        best = max_nonprincipal_modulus(OPTIMAL_LAMBDA)
        for lam in (-5.0, -2.0, -1.7, 0.5, 1.0, 4.0):
            assert max_nonprincipal_modulus(lam) > best


class TestScanRegion:
    def test_wide_scan_argmin(self):
        scan = scan_region(-10.0, 10.0, 0.01)
        assert scan.argmin_lambda is not None
        assert abs(scan.argmin_lambda - (-1.8)) <= 0.01
        assert abs(scan.argmin_modulus - 1 / 3) < 1e-3

    def test_all_stable_interval(self):
        scan = scan_region(0.4, 5.0, 0.1)
        assert all(scan.zero_stable)

    def test_no_stable_interval(self):
        scan = scan_region(-0.9, 0.3, 0.1)
        assert not any(scan.zero_stable)
        assert scan.argmin_lambda is None

    def test_zero_excluded(self):
        scan = scan_region(-0.5, 0.5, 0.25)
        assert 0.0 in scan.excluded
        assert all(lam != 0.0 for lam in scan.grid)

    def test_grid_sorted(self):
        scan = scan_region(-3.0, 3.0, 0.5)
        lams = scan.grid.tolist()
        assert lams == sorted(lams)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            scan_region(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            scan_region(0.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "bounds",
        [
            (-math.inf, 1.0, 0.1),
            (0.0, math.inf, 0.1),
            (0.0, 1.0, math.nan),
            (0.0, 1.0, math.inf),
            (0.0, 1.0, 1e-320),
            (-1e308, 1e308, 1.0),
        ],
        ids=["min-inf", "max-inf", "step-nan", "step-inf", "step-subnormal", "span-overflow"],
    )
    def test_non_finite_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            scan_region(*bounds)

    def test_point_limit(self):
        # round(span) + 1 == MAX_SCAN_POINTS + 1 grid points: one too many.
        with pytest.raises(ValueError, match="grid points"):
            scan_region(0.5, 0.5 + MAX_SCAN_POINTS, 1.0)

    def test_columns(self):
        scan = scan_region(-3.0, 3.0, 0.25)
        assert len(scan.grid) == len(scan.max_moduli) == len(scan.zero_stable)
        assert scan.zero_stable.dtype == bool
        for column in (scan.grid, scan.max_moduli, scan.zero_stable):
            with pytest.raises(ValueError):
                column[0] = 1
        columns = scan.columns()
        assert len(columns) == len(RegionScan.CSV_COLUMNS)
        assert columns[0] is scan.grid
        assert all(c.shape == scan.grid.shape for c in columns)
        assert all(c.dtype == float for c in columns[:6])
        assert columns[6].dtype == bool

    @given(scan_bounds())
    @example((1.5e307, 3e307, 1e305))  # across the seam where 8*lambda overflows
    @example((-3e307, -1.5e307, 1e305))  # the same seam, below zero
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_scan(self, bounds):
        try:
            expected = _reference_scan(*bounds)
        except ValueError:
            with pytest.raises(ValueError):
                _scan_outputs(*bounds)
            return
        assert repr(_scan_outputs(*bounds)) == repr(expected)

    def test_matches_reference_on_benchmark_grid(self):
        assert repr(_scan_outputs(-10.0, 10.0, 1e-3)) == repr(
            _reference_scan(-10.0, 10.0, 1e-3)
        )

    def test_moduli_screened_by_eigenvalues(self):
        # Companion eigenvalues of all 20k family members.  They carry no
        # multiplicities, so this screens the closed form; it does not decide.
        scan = scan_region(-10.0, 10.0, 1e-3)
        lam = scan.grid
        comp = np.zeros((lam.size, 3, 3))
        comp[:, 0, :] = np.stack(
            [3.0 * (1.0 + lam) / (4.0 * lam), -1.0 / lam, (1.0 + lam) / (4.0 * lam)], axis=1
        )
        comp[:, 1, 0] = comp[:, 2, 1] = 1.0
        eig = np.linalg.eigvals(comp)
        principal = np.argmin(np.abs(eig - 1.0), axis=1)
        others = np.abs(eig[np.arange(3) != principal[:, None]].reshape(-1, 2))
        want = others.max(axis=1)
        # Two nearly equal eigenvalues (the double root at -9/5) scatter by
        # about sqrt(eps): widen the tolerance as they close in.
        i, j = np.triu_indices(3, 1)
        sep = np.abs(eig[:, i] - eig[:, j]).min(axis=1)
        tol = 1e-9 + 1e-14 / np.maximum(sep, 1e-8) + 1e-9 * want
        worst = np.argmax(np.abs(scan.max_moduli - want) - tol)
        assert np.all(np.abs(scan.max_moduli - want) <= tol), (
            lam[worst], scan.max_moduli[worst], want[worst]
        )

    def test_csv_export(self):
        scan = scan_region(0.4, 0.6, 0.1)
        rows = list(csv.reader(io.StringIO(scan.to_csv())))
        assert rows[0] == list(RegionScan.CSV_COLUMNS)
        assert len(rows) == 1 + len(scan.grid)
        first = rows[1]
        assert float(first[0]) == scan.grid[0]
        assert first[6] in ("true", "false")
        # the alpha columns must reproduce the scheme at that lambda
        s = zerosnet_coeffs(scan.grid[0])
        assert abs(float(first[1]) - s.alphas[0]) < 1e-9
        assert abs(float(first[4]) - s.beta) < 1e-9
