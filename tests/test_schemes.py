import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zstab.schemes import (
    Scheme,
    characteristic_polynomial,
    consistency_check,
    first_order,
    lm_second_order,
    make_scheme,
    root_condition,
)
from zstab.zerosnet import zerosnet_coeffs

from conftest import match_roots
from reference import companion_spectral_radius


class TestMakeScheme:
    def test_euler(self):
        s = make_scheme([1], 1)
        assert s.alphas == (1.0,)
        assert s.beta == 1.0
        assert s.order == 1

    def test_three_step(self):
        s = make_scheme([1, 1, 1], 1)
        assert s.order == 3

    def test_beta_zero_allowed(self):
        s = make_scheme([0.5, 0.5], 0)
        assert s.beta == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_scheme([], 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_scheme([1, float("inf")], 1)
        with pytest.raises(ValueError):
            make_scheme([1], float("nan"))

    def test_stored_exactly(self):
        s = make_scheme([3.75, -4, 1.25], -0.5)
        assert s.alphas == (3.75, -4.0, 1.25)
        assert s.beta == -0.5


class TestCharacteristicPolynomial:
    def test_first_order_unit(self):
        p = characteristic_polynomial(first_order(1))
        assert p.coefficients == (1.0 + 0j, -1.0 + 0j)

    def test_two_step_factored_form(self):
        # rho^2 + (k-1)rho - k factors as (rho - 1)(rho + k)
        k = 0.5
        p = characteristic_polynomial(lm_second_order(k))
        assert p.coefficients == (1.0 + 0j, complex(k - 1.0), complex(-k))

    def test_three_step_example(self):
        p = characteristic_polynomial(make_scheme([3.75, -4, 1.25], -0.5))
        assert p.coefficients == (1.0 + 0j, -3.75 + 0j, 4.0 + 0j, -1.25 + 0j)

    def test_beta_absent(self):
        a = characteristic_polynomial(make_scheme([0.5, 0.5], 0))
        b = characteristic_polynomial(make_scheme([0.5, 0.5], 7.0))
        assert a.coefficients == b.coefficients


class TestRootCondition:
    def test_first_order_unstable(self):
        rep = root_condition(first_order(2))
        assert not rep.zero_stable
        assert rep.moduli == (2.0,)
        assert rep.violations

    def test_lm_half_stable(self):
        rep = root_condition(lm_second_order(0.5))
        assert rep.zero_stable
        assert match_roots([1.0, -0.5], rep.roots.values()) < 1e-10

    def test_three_ones_unstable(self):
        rep = root_condition(make_scheme([1, 1, 1], 1))
        assert not rep.zero_stable
        assert tuple(round(m, 2) for m in rep.moduli) == (1.84, 0.74, 0.74)

    def test_moduli_count_matches_order(self):
        for s in [first_order(1), lm_second_order(-0.5), make_scheme([1, 1, 1], 1)]:
            assert len(root_condition(s).moduli) == s.order

    def test_repeated_unit_root_flagged(self):
        # (rho - 1)^2: on-circle double root is a violation even though no
        # modulus exceeds 1
        rep = root_condition(make_scheme([2, -1], 1))
        assert not rep.zero_stable
        assert any("multiplicity" in v for v in rep.violations)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_beta_invariance(self, k, beta):
        a = root_condition(make_scheme([1 - k, k], 2 * k + 1))
        b = root_condition(make_scheme([1 - k, k], beta))
        assert a.zero_stable == b.zero_stable
        assert a.moduli == b.moduli

    def test_first_order_region(self):
        # Stability region of the one-step scheme is |alpha| <= 1.
        table = {2: False, 1.5: False, 0.5: True, 0.7: True, 1: True}
        for alpha, expected in table.items():
            assert root_condition(first_order(alpha)).zero_stable is expected

    def test_lm_region(self):
        # Two-step roots are exactly {1, -k}, so |k| <= 1 decides stability
        # except k = 1 where -k collides with the principal root.
        table = {-1.5: False, 1.5: False, -0.5: True, 0.5: True}
        for k, expected in table.items():
            assert root_condition(lm_second_order(k)).zero_stable is expected

    @given(st.floats(-3, 3))
    @settings(max_examples=80, deadline=None)
    def test_lm_exact_roots(self, k):
        if abs(abs(k) - 1.0) < 1e-6:
            return  # boundary: -k meets the unit circle or the root at 1
        rep = root_condition(lm_second_order(k))
        assert match_roots([1.0, -k], rep.roots.values()) < 1e-8
        assert rep.zero_stable is (abs(k) < 1.0)


class TestConsistency:
    def test_euler_consistent(self):
        rep = consistency_check(first_order(1))
        assert rep.consistent
        assert rep.sum_alpha == 1.0
        assert rep.moment == 1.0

    def test_family_consistent(self):
        rep = consistency_check(zerosnet_coeffs(2.0))
        assert rep.consistent
        assert abs(rep.sum_alpha - 1.0) <= 1e-12
        assert abs(rep.moment - 1.0) <= 1e-12

    def test_inconsistent_but_stable(self):
        s = make_scheme([0.1, 0.2, 0.3], 0.4)
        rep = consistency_check(s)
        assert not rep.consistent
        assert abs(rep.sum_alpha - 0.6) < 1e-15
        assert root_condition(s).zero_stable

    @given(
        st.floats(min_value=-10, max_value=10).filter(
            lambda v: v < -1e-3 or v > 1e-3
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_family_consistent_for_all_lambda(self, lam):
        rep = consistency_check(zerosnet_coeffs(lam))
        assert abs(rep.sum_alpha - 1.0) <= 1e-12
        assert abs(rep.moment - 1.0) <= 1e-12
        assert rep.consistent


class TestCompanionSpectralRadius:
    def test_three_ones(self):
        est = companion_spectral_radius(make_scheme([1, 1, 1], 1))
        assert abs(est.value - 1.84) < 0.01

    def test_euler(self):
        est = companion_spectral_radius(first_order(1))
        assert est.value == 1.0

    def test_table_row_three(self):
        est = companion_spectral_radius(make_scheme([-3, 5, -1], 4))
        assert abs(est.value - 4.24) < 0.01

    def test_agrees_with_root_condition(self, rng):
        for _ in range(20):
            alphas = rng.uniform(-2, 2, 3)
            s = make_scheme(alphas.tolist(), 1.0)
            moduli = sorted(root_condition(s).moduli, reverse=True)
            if len(moduli) > 1 and moduli[1] > 0.9 * moduli[0]:
                continue
            est = companion_spectral_radius(s)
            assert abs(est.value - moduli[0]) < 1e-6

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            companion_spectral_radius(first_order(1), iterations=0)


class TestSerialization:
    def test_label(self):
        assert Scheme((1.0,), 1.0).label() == "alphas=[1] beta=1"
