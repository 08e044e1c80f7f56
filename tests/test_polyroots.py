import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zstab
from zstab import polyroots
from zstab.polyroots import (
    Polynomial,
    RootFindingError,
    cluster_multiplicities,
    find_roots,
)

from conftest import match_roots
from reference import companion_power_modulus


def poly_from_roots(roots):
    """Forward construction: monic polynomial with the given roots."""
    out = np.array([1.0 + 0j])
    for r in roots:
        out = np.convolve(out, np.array([1.0, -r], dtype=complex))
    return Polynomial(out.tolist())


class TestPolynomial:
    def test_eval_cubic_root_of_unity(self):
        p = Polynomial([1, 0, 0, -1])  # rho^3 - 1
        assert p.eval(1.0) == 0

    def test_eval_linear_root(self):
        p = Polynomial([1, -0.5])
        assert p.eval(0.5) == 0

    def test_eval_factored_quadratic(self):
        # (rho - 1)(rho + k) with k = 0.5 expands to rho^2 + (k-1)rho - k
        k = 0.5
        p = Polynomial([1, k - 1, -k])
        assert abs(p.eval(-0.5)) == 0
        assert abs(p.eval(1.0)) == 0

    def test_leading_zeros_stripped(self):
        p = Polynomial([0, 0, 2, 4])
        assert p.degree == 1
        assert p.coefficients == (2, 4)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1, float("nan")])


class TestFindRoots:
    def test_reference_cubic_moduli(self):
        # rho^3 - 3.75 rho^2 + 4 rho - 1.25
        rs = find_roots(Polynomial([1, -3.75, 4, -1.25]))
        assert [round(m, 2) for m in rs.moduli()] == [2.18, 1.00, 0.57]

    def test_optimal_cubic_double_root(self):
        # rho^3 - (1/3) rho^2 - (5/9) rho - (1/9): root 1 and a double -1/3
        rs = find_roots(Polynomial([1, -1 / 3, -5 / 9, -1 / 9]))
        assert sorted(round(m, 2) for m in rs.moduli()) == [0.33, 0.33, 1.00]
        mults = {round(abs(v), 6): m for v, m in rs.roots}
        assert mults[1.0] == 1
        assert mults[round(1 / 3, 6)] == 2

    def test_perfect_square(self):
        rs = find_roots(Polynomial([1, -2, 1]))  # (rho - 1)^2
        assert len(rs.roots) == 1
        value, mult = rs.roots[0]
        assert mult == 2
        assert abs(value - 1.0) < 1e-7

    def test_degree_one(self):
        rs = find_roots(Polynomial([2.0, -1.0]))
        assert rs.roots == ((0.5 + 0j, 1),)

    def test_residual_invariant(self, rng):
        for _ in range(50):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            p = Polynomial(coeffs.tolist())
            rs = find_roots(p)
            scale = p.coefficient_scale()
            assert all(r <= 1e-10 * scale for r in rs.residuals)

    def test_deterministic(self):
        p = Polynomial([1, 0.3, -0.7, 0.2])
        a = find_roots(p)
        b = find_roots(p)
        assert a.roots == b.roots
        assert a.residuals == b.residuals

    def test_sorted_by_modulus_then_argument(self):
        rs = find_roots(Polynomial([1, 0, 0, 0, -16]))  # roots 2, -2, +/-2i
        moduli = [abs(v) for v, _ in rs.roots]
        assert moduli == sorted(moduli, reverse=True)
        args = [cmath.phase(v) for v, _ in rs.roots]
        assert args == sorted(args)

    def test_nonconvergence_carries_best_iterates(self, monkeypatch):
        monkeypatch.setattr(polyroots, "MAX_ITERATIONS", 1)
        with pytest.raises(RootFindingError) as err:
            find_roots(Polynomial([1, 0.3, -0.7, 0.2]))
        assert len(err.value.best_iterates) == 3

    def test_residual_tolerance_read_at_call_time(self, monkeypatch):
        p = Polynomial([1, 0.3, -0.7, 0.2])
        find_roots(p)
        monkeypatch.setattr(polyroots, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(RootFindingError):
            find_roots(p)

    def test_requires_degree_one(self):
        with pytest.raises(ValueError):
            find_roots(Polynomial([1.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(
                min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_forward_constructed_cubics(self, roots):
        # Well-separated roots only: recovery to 1e-8 is a simple-root claim.
        pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        if any(abs(a - b) < 1e-2 for a, b in pairs):
            return
        p = poly_from_roots(roots)
        rs = find_roots(p)
        assert match_roots(roots, rs.values()) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(
                min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_product_of_roots(self, roots):
        # A root of multiplicity m is recovered to about eps**(1/m), so the
        # tight product check only holds for well-separated roots.
        pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        if any(abs(a - b) < 1e-2 for a, b in pairs):
            return
        p = poly_from_roots(roots)
        rs = find_roots(p)
        product = 1.0 + 0j
        for v in rs.values():
            product *= v
        expected = (-1) ** p.degree * p.coefficients[-1]
        assert abs(product - expected) <= 1e-8 * max(1.0, abs(expected))


class TestClusterMultiplicities:
    def test_coincident_pair(self):
        out = cluster_multiplicities([1.0 + 0j, 1.0 + 1e-12j])
        assert len(out) == 1
        assert out[0][1] == 2

    def test_well_separated(self):
        out = cluster_multiplicities([1.0 + 0j, -0.5 + 0j])
        assert [m for _, m in out] == [1, 1]

    def test_radius_read_at_call_time(self, monkeypatch):
        pair = [1.0 + 0j, 1.0 + 1e-4j]
        assert [m for _, m in cluster_multiplicities(pair)] == [1, 1]
        monkeypatch.setattr(polyroots, "CLUSTER_RADIUS", 1e-3)
        assert [m for _, m in cluster_multiplicities(pair)] == [2]

    def test_numeric_double_root_at_boundary_lambda(self):
        # lambda = -9/5 is the discriminant zero of the three-step family
        from zstab.schemes import characteristic_polynomial
        from zstab.zerosnet import zerosnet_coeffs

        p = characteristic_polynomial(zerosnet_coeffs(-9 / 5))
        rs = find_roots(p)
        by_mult = sorted(rs.roots, key=lambda rm: rm[1])
        assert by_mult[0][1] == 1 and abs(by_mult[0][0] - 1) < 1e-9
        assert by_mult[1][1] == 2 and abs(by_mult[1][0] + 1 / 3) < 1e-6


def test_oracles_are_not_exported():
    for name in (
        "companion_power_modulus",
        "companion_spectral_radius",
        "cluster_multiplicities",
    ):
        assert not hasattr(zstab, name)
        assert all(name not in m.__all__ for m in (zstab.polyroots, zstab.schemes))


class TestCompanionOracle:
    def test_tribonacci_dominant(self):
        est = companion_power_modulus(Polynomial([1, -1, -1, -1]))
        assert est.converged
        assert abs(est.value - 1.8392867552141612) < 1e-6

    def test_linear(self):
        est = companion_power_modulus(Polynomial([1, -0.5]))
        assert est.value == 0.5 and est.converged

    def test_agrees_with_aberth_for_separated_dominant(self, rng):
        for _ in range(20):
            coeffs = [1.0] + rng.uniform(-2, 2, 3).tolist()
            p = Polynomial(coeffs)
            dominant = max(find_roots(p).moduli())
            moduli = sorted(find_roots(p).moduli(), reverse=True)
            if len(moduli) > 1 and moduli[1] > 0.9 * moduli[0]:
                continue  # not well-separated; the oracle contract excludes it
            est = companion_power_modulus(p)
            assert abs(est.value - dominant) < 1e-6
