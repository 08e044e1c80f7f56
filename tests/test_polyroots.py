import cmath
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import zstab
from zstab import polyroots
from zstab.polyroots import Polynomial, RootFindingError, find_roots
from zstab.schemes import (
    ROOT_CONDITION_TOL,
    Scheme,
    characteristic_polynomial,
    root_condition,
)
from zstab.table8 import REFERENCE_ROWS, verify_reference_table
from zstab.zerosnet import zerosnet_coeffs

from conftest import match_roots
from reference import companion_power_modulus, exact_roots, horner


def conjugate_closed(values):
    """Each value with its conjugate; a real value once."""
    return [w for z in values for w in ((z,) if z.imag == 0 else (z, z.conjugate()))]


def poly_from_roots(roots):
    """Forward construction: the monic real polynomial with the given roots,
    a multiset closed under conjugation.  A pair z, conj(z) enters as the
    factor r^2 - 2 Re(z) r + |z|^2."""
    assert sum(z.imag > 0 for z in roots) == sum(z.imag < 0 for z in roots)
    out = np.array([1.0])
    for z in roots:
        if z.imag > 0:
            out = np.convolve(out, [1.0, -2.0 * z.real, z.real**2 + z.imag**2])
        elif z.imag == 0:
            out = np.convolve(out, [1.0, -z.real])
    return Polynomial(out.tolist())


# The complex cube roots of unity, roots of z^2 + z + 1.
_CUBE_ROOTS = [cmath.exp(s * 2j * math.pi / 3) for s in (1, -1)]
_ROOT_VALUES = dict(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False)


def assert_matches_exact(p, rs):
    """``rs`` holds each root of ``p``'s exact coefficients once, with its
    multiplicity, to 1e-9 relative, widened next to a close root by the
    spread that evaluating p in floating point allows there.  Returns the
    exact roots."""
    exact = exact_roots(p.coefficients)
    reported = list(rs.roots)
    assert len(reported) == len(exact), (reported, exact)
    for z, m in exact:
        sep = min((abs(z - w) for w, _ in exact if w != z), default=math.inf)
        j = min(range(len(reported)), key=lambda k: abs(reported[k][0] - z))
        value, mult = reported.pop(j)
        assert mult == m, (value, mult, z, m)
        assert abs(value - z) <= abs(z) * (1e-9 + 1e-15 * abs(z) / sep), (value, z)
    return exact


# Root multisets on and near the unit circle whose expanded coefficients
# are exact in binary.  Linear factors r - x; quadratic factors r^2 - c r + q
# with c^2 < 4q, a complex pair of modulus sqrt(q).
_NEAR_ONE = (Fraction(63, 64), Fraction(65, 64))
_REAL_ROOTS = [Fraction(k, 8) for k in range(-8, 9)] + [s * q for q in _NEAR_ONE for s in (1, -1)]
_PAIRS = [
    (Fraction(c, 4), q)
    for q in (Fraction(1), Fraction(1, 4), *_NEAR_ONE)
    for c in range(-7, 8)
    if Fraction(c, 4) ** 2 < 4 * q
]
_FACTORS = st.one_of(
    st.sampled_from(_REAL_ROOTS).map(lambda x: (Fraction(1), -x)),
    st.sampled_from(_PAIRS).map(lambda cq: (Fraction(1), -cq[0], cq[1])),
)


@st.composite
def multiset_alphas(draw):
    """Alphas of a scheme whose characteristic polynomial is a product of
    distinct factors, each of multiplicity 1 to 3, of degree at most 8:
    among them complex double pairs on the circle, simple roots beside a
    double root, and triple roots."""
    factors = draw(st.lists(st.tuples(_FACTORS, st.integers(1, 3)), min_size=1,
                            max_size=4, unique_by=lambda fm: fm[0]))
    assume(sum((len(f) - 1) * m for f, m in factors) <= 8)
    poly = [Fraction(1)]
    for factor, mult in factors:
        for _ in range(mult):
            product = [Fraction(0)] * (len(poly) + len(factor) - 1)
            for i, x in enumerate(poly):
                for j, y in enumerate(factor):
                    product[i + j] += x * y
            poly = product
    assume(all(Fraction(float(c)) == c for c in poly))
    return tuple(float(-c) for c in poly[1:])


class TestPolynomial:
    def test_eval_cubic_root_of_unity(self):
        p = Polynomial([1, 0, 0, -1])  # rho^3 - 1
        assert horner(p, 1.0) == 0

    def test_eval_linear_root(self):
        p = Polynomial([1, -0.5])
        assert horner(p, 0.5) == 0

    def test_eval_factored_quadratic(self):
        # (rho - 1)(rho + k) with k = 0.5 expands to rho^2 + (k-1)rho - k
        k = 0.5
        p = Polynomial([1, k - 1, -k])
        assert abs(horner(p, -0.5)) == 0
        assert abs(horner(p, 1.0)) == 0

    def test_leading_zeros_stripped(self):
        p = Polynomial([0, 0, 2, 4])
        assert p.degree == 1
        assert p.coefficients == (2, 4)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([0, 0])

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError, match="^polynomial needs at least one coefficient$"):
            Polynomial([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1, float("nan")])

    @pytest.mark.parametrize(
        "coefficients",
        [[1, 1j], [1.0, 0j], np.array([1, 2], dtype=complex),
         [1.0, np.complex64(2)], [np.complex128(1 + 2j)], [1.0, "2"]],
        ids=["complex", "zero-imaginary", "numpy-array", "complex64", "complex128", "string"],
    )
    def test_non_real_rejected(self, coefficients):
        # float(np.complex128(1 + 2j)) is 1.0 with only a warning; the
        # imaginary part must not vanish silently.
        with pytest.raises(ValueError, match="must be real"):
            Polynomial(coefficients)

    def test_reals_become_floats(self):
        p = Polynomial([np.int64(3), np.float32(0.5), Fraction(1, 4), True])
        assert p.coefficients == (3.0, 0.5, 0.25, 1.0)
        assert all(type(c) is float for c in p.coefficients)


class TestFindRoots:
    def test_reference_cubic_moduli(self):
        # rho^3 - 3.75 rho^2 + 4 rho - 1.25
        rs = find_roots(Polynomial([1, -3.75, 4, -1.25]))
        assert [round(m, 2) for m in rs.moduli()] == [2.18, 1.00, 0.57]

    def test_optimal_cubic_double_root(self):
        # 9 rho^3 - 3 rho^2 - 5 rho - 1 = 9 (rho - 1)(rho + 1/3)^2, in exact
        # coefficients; test_numeric_double_root_at_boundary_lambda takes
        # the rounded monic form.
        rs = find_roots(Polynomial([9, -3, -5, -1]))
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
            # a real root and a conjugate pair
            values = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            values[0] = values[0].real
            p = poly_from_roots(conjugate_closed(values.tolist()))
            rs = find_roots(p)
            for z, _ in rs.roots:
                r = abs(horner(p, z))
                scale = sum(abs(c) * abs(z) ** (p.degree - i) for i, c in enumerate(p.coefficients))
                assert r <= 1e-10 * scale

    @pytest.mark.parametrize("coeffs, real", [
        ([1.0, 0.0, -1.0, 0.0], (1.0, -1.0, 0.0)),  # z^3 - z
        ([1.0, 0.0, -1.0, -3.79e-54], (1.0, -1.0)),  # alphas (0, 1, 3.79e-54)
        ([1.0, 0.0, -4.0, 0.0], (2.0, -2.0, 0.0)),  # alphas (0, 4, 0)
    ])
    def test_real_roots_have_no_imaginary_part(self, coeffs, real):
        roots = [z for z, _ in find_roots(Polynomial(coeffs)).roots]
        for x in real:
            (z,) = [z for z in roots if abs(z - x) <= 1e-9 * max(1.0, abs(x))]
            assert math.copysign(1.0, z.imag) == 1.0 and z.imag == 0.0, z

    @given(st.lists(st.integers(-24, 24).filter(bool), min_size=1, max_size=7, unique=True),
           st.lists(st.tuples(st.integers(-16, 16), st.integers(1, 16)), max_size=2, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_real_and_complex_roots_of_a_real_polynomial(self, ks, pairs):
        # Real roots k/8 and pairs (a +- b i)/8, exact in binary: each real
        # root comes out with imaginary part +0.0, and no pair member does.
        values = [k / 8 + 0j for k in ks] + [complex(a, b) / 8 for a, b in pairs]
        roots = [z for z, _ in find_roots(poly_from_roots(conjugate_closed(values))).roots]
        for k in ks:
            near = min(roots, key=lambda z: abs(z - k / 8))
            assert near.imag == 0.0 and math.copysign(1.0, near.imag) == 1.0, (k, roots)
        assert sum(z.imag != 0.0 for z in roots) == 2 * len(pairs)

    def test_deterministic(self):
        p = Polynomial([1, 0.3, -0.7, 0.2])
        a = find_roots(p)
        b = find_roots(p)
        assert a.roots == b.roots
        assert [abs(horner(p, z)) for z, _ in a.roots] == [abs(horner(p, z)) for z, _ in b.roots]

    def test_sorted_by_modulus_then_argument(self):
        rs = find_roots(Polynomial([1, 0, 0, 0, -16]))  # roots 2, -2, +/-2i
        moduli = [abs(v) for v, _ in rs.roots]
        assert moduli == sorted(moduli, reverse=True)
        args = [cmath.phase(v) for v, _ in rs.roots]
        assert args == sorted(args)

    def test_nonconvergence_is_a_value_error_naming_its_residual(self, monkeypatch):
        # A polynomial the solver cannot finish is rejected input, as a
        # malformed one is; the message says how close the failed root got.
        assert issubclass(RootFindingError, ValueError)
        monkeypatch.setattr(polyroots, "MAX_ITERATIONS", 1)
        number = r"\d\.\d{3}e[+-]\d\d"
        message = (
            "^root finding did not converge within 1 iterations "
            rf"\(residual {number} at \|z\| = {number}\)$"
        )
        with pytest.raises(RootFindingError, match=message) as err:
            find_roots(Polynomial([1, 0.3, -0.7, 0.2]))
        assert type(err.value) is RootFindingError

    def test_residual_tolerance_read_at_call_time(self, monkeypatch):
        p = Polynomial([1, 0.3, -0.7, 0.2])
        find_roots(p)
        monkeypatch.setattr(polyroots, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(RootFindingError):
            find_roots(p)

    def test_numeric_double_root_at_boundary_lambda(self):
        # lambda = -9/5 is the discriminant zero of the three-step family: a
        # double root at -1/3.  Its float coefficients are not the exact
        # fractions, and have three simple roots: 1 and a complex pair about
        # 3e-9 apart next to -1/3.  Each is reported simple.
        p = characteristic_polynomial(zerosnet_coeffs(-9 / 5))
        rs = find_roots(p)
        assert [m for _, m in rs.roots] == [1, 1, 1]
        exact = assert_matches_exact(p, rs)
        pair = [z for z, _ in exact if abs(z + 1 / 3) < 1e-6]
        assert len(pair) == 2 and 1e-9 < abs(pair[0] - pair[1]) < 1e-8
        assert all(abs(v + 1 / 3) < 1e-8 for v, _ in rs.roots[1:])

    def test_zero_roots_are_exact(self):
        rs = find_roots(Polynomial([1, -1, 0, 0]))  # rho^2 (rho - 1)
        assert rs.roots == ((1 + 0j, 1), (0j, 2))

    def test_double_conjugate_pair_through_yun(self):
        # (z^2 - 2z + 5)^2 (z - 1/2) (z + 1/4)^3: exact dyadic coefficients,
        # with the double pair 1 +/- 2i
        p = poly_from_roots([1 + 2j, 1 - 2j] * 2 + [0.5] + [-0.25] * 3)
        rs = find_roots(p)
        assert sorted(m for _, m in rs.roots) == [1, 2, 2, 3]
        assert_matches_exact(p, rs)

    def test_overflow_is_a_root_finding_error(self):
        # 2^-1074 (r - 2^1030)^2: the root exceeds the largest float.
        with pytest.raises(RootFindingError):
            find_roots(Polynomial([2.0 ** -1074, -(2.0 ** -43), 2.0 ** 986]))

    @pytest.mark.parametrize(
        "coeffs", [[1.0, -1e300, 1e300, -1.0], [1.0, -1e300, -1e300, -1e300]]
    )
    def test_non_finite_iterates_are_an_overflow(self, coeffs):
        # The monic iterates are NaN after one step and stop moving, so no
        # iteration budget runs out; scaled by a power of two, |z|^3 at the
        # root 1e300 still overflows.
        with pytest.raises(RootFindingError, match="did not converge: a value overflowed"):
            find_roots(Polynomial(coeffs))

    @pytest.mark.parametrize(
        "coeffs, roots, k",
        [
            # The monic constant term, 1e-600, is no float.
            ([1e300, 1.0, 1e-300], [1e-300 * w for w in _CUBE_ROOTS], -(2.0**20)),
            # The monic constant term, 2e400, overflows.
            ([1e-300, -3e-100, 2e100], [1e200, 2e200], -(2.0**20)),
            # The monic constant term, 1e-315, is subnormal: 28 bits.
            ([1e10, 1.0, 1e-305], [-1e-10, -1e-305], -(2.0**20)),
            # Monic, but |z|^3 overflows at the root 1e200.
            ([1.0, -1e200, -1e200, -1e200], [1e200, *_CUBE_ROOTS], -(2.0**20)),
            # 2^2097 apart, the widest span of two floats.
            ([1e308, 1.0, 5e-324], [-1e-308, -5e-324], -1.0),
            # A subnormal monic coefficient puts the scaled form first; its
            # terms overflow at the roots, and the monic form finds them.
            (
                [1.0, 1.3954756326396711e-129, -2.35758858e-316, 5.1382876095416774e305],
                [-(5.1382876095416774e305 ** (1 / 3)) * w for w in [1, *_CUBE_ROOTS]],
                -1.0,
            ),
        ],
        ids=[
            "constant-underflows", "constant-overflows", "constant-subnormal", "cube-overflows",
            "widest-span", "subnormal-then-monic",
        ],
    )
    def test_roots_past_the_monic_range(self, coeffs, roots, k):
        # Each needs the form scaled by a power of two, or, for the last, the
        # monic form after it; the roots are full precision, and an exact
        # multiple of p still has p's roots.
        rs = find_roots(Polynomial(coeffs))
        assert [m for _, m in rs.roots] == [1] * len(roots)
        found = [z for z, _ in rs.roots]
        for z in roots:
            w = min(found, key=lambda w: abs(w - z))
            assert abs(w - z) <= 1e-12 * abs(z), (w, z)
            found.remove(w)
        assert repr(find_roots(Polynomial([k * c for c in coeffs]))) == repr(rs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=7)
        .filter(lambda c: c[0] != 0 and any(c[1:]))
    )
    def test_any_finite_coefficients_give_roots_or_a_root_finding_error(self, coeffs):
        # Subnormal, huge and zero coefficients in any mix: no other exception.
        try:
            rs = find_roots(Polynomial(coeffs))
        except RootFindingError:
            return
        assert sum(m for _, m in rs.roots) == len(coeffs) - 1

    def test_unverifiable_roots_are_not_accepted(self):
        # r^3 - 1e308: the roots, of modulus 4.6e102, are floats, but in
        # monic form the scale |z|^3 + 1e308 of the residual test overflows,
        # so the test cannot tell them from the starting points; whatever
        # form finds them, no unverified root may be accepted.
        p = Polynomial([1, 0, 0, -1e308])
        try:
            rs = find_roots(p)
        except RootFindingError:
            return
        assert_matches_exact(p, rs)

    def test_requires_degree_one(self):
        with pytest.raises(ValueError):
            find_roots(Polynomial([1.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)),
        st.complex_numbers(**_ROOT_VALUES),
    )
    def test_forward_constructed_cubics(self, real, pair):
        # A real root and a conjugate pair (or two more real roots).
        roots = [complex(real)] + conjugate_closed([pair])
        assume(len(roots) == 3)
        # Well-separated roots only: recovery to 1e-8 is a simple-root claim.
        pairs = [(a, b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        if any(abs(a - b) < 1e-2 for a, b in pairs):
            return
        p = poly_from_roots(roots)
        rs = find_roots(p)
        assert match_roots(roots, rs.values()) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.complex_numbers(**_ROOT_VALUES), min_size=1, max_size=3)
        .map(conjugate_closed)
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


class TestExactOracle:
    """find_roots and root_condition against sympy + mpmath on exact
    coefficients, including the shapes whose multiplicities distances
    cannot decide."""

    @settings(max_examples=80, deadline=None)
    @given(multiset_alphas())
    # The inputs the clustering code got wrong: (r-1)^3, the family at
    # lambda = 1/3 (the same polynomial), (r-1/2)^3, (r^2+1.5r+1)^2,
    # (r-1)^2 (r-1/2) (r^2-r/2+1), a root near 1e4, and tiny coefficients.
    @example((3.0, -3.0, 1.0))
    @example(zerosnet_coeffs(1 / 3).alphas)
    @example((1.5, -0.75, 0.125))
    @example((-3.0, -4.25, -3.0, -1.0))
    @example((3.0, -4.25, 4.0, -2.25, 0.5))
    @example((10000.0, -1.0, 0.5))
    @example((1e-20, 1e-20, 1e-20))
    def test_roots_and_verdict(self, alphas):
        s = Scheme(alphas, 1.0)
        rep = root_condition(s)
        exact = assert_matches_exact(characteristic_polynomial(s), rep.roots)
        outside = [z for z, _ in exact if abs(z) > 1 + ROOT_CONDITION_TOL]
        on_multiple = sorted(
            m for z, m in exact if abs(abs(z) - 1) <= ROOT_CONDITION_TOL and m > 1
        )
        assert rep.zero_stable is (not outside and not on_multiple)
        named = sorted(int(v.rsplit(" ", 1)[1]) for v in rep.violations if "multiplicity" in v)
        assert named == on_multiple
        assert sum("has modulus" in v for v in rep.violations) == len(outside)

    @pytest.mark.parametrize(
        "coeffs, closed",
        [
            # 1e10 z^2 + z + 1e-305: -1e-10 and -1e-305, to ~1e-295 relative.
            ([1e10, 1.0, 1e-305], [-1e-10, -1e-305]),
            # z^3 - c (z^2 + z + 1), c = 1e200: c and the complex cube roots
            # of unity, to ~1e-200 relative.
            ([1.0, -1e200, -1e200, -1e200], [1e200, *_CUBE_ROOTS]),
        ],
        ids=["tiny-root", "cube-roots-under-1e200"],
    )
    def test_roots_far_smaller_than_the_rest(self, coeffs, closed):
        found = exact_roots(coeffs)
        assert [m for _, m in found] == [1] * len(closed)
        for z in closed:
            assert min(abs(w - z) for w, _ in found) <= 1e-15 * abs(z), (z, found)


class TestSquarefreeTest:
    @settings(max_examples=60, deadline=None)
    @given(multiset_alphas(), st.sampled_from([1.0, -1.0, 3.0, -5.0]), st.integers(-60, 40))
    def test_proves_only_square_free(self, alphas, lead, exponent):
        # Yun's first gcd is the test: a polynomial is its own one factor,
        # made primitive, of multiplicity 1, exactly when its roots are all
        # simple.
        scale = lead * 2.0 ** exponent
        coeffs = [scale] + [-a * scale for a in alphas]
        f = polyroots._scaled(coeffs)
        whole = polyroots._yun(f) == [(polyroots._primitive(f), 1)]
        assert whole == all(m == 1 for _, m in exact_roots(coeffs))


class TestScaleInvariance:
    @settings(max_examples=80, deadline=None)
    @given(multiset_alphas(), st.sampled_from([3.0, -6.0, 2.0 ** -60, 2.0 ** 40]))
    def test_roots_ignore_the_leading_coefficient(self, alphas, k):
        # Aberth's floats are a function of the primitive factor, so an exact
        # multiple of p has p's roots, bit for bit: the same values, signed
        # zeros and order.
        coeffs = [1.0] + [-a for a in alphas]
        scaled = [k * c for c in coeffs]
        assume(all(Fraction(x) == k * Fraction(c) for x, c in zip(scaled, coeffs)))
        assert repr(find_roots(Polynomial(scaled))) == repr(find_roots(Polynomial(coeffs)))


def _times(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def squared_products(draw):
    """Coefficients of c g^2 h: g monic of degree 1 to 40 with coefficients
    k/8, |k| <= 8, h one of the multiset factors or 1, c a power of two or
    -3; every coefficient exact in binary, degree up to 82."""
    g = [Fraction(1)] + [Fraction(k, 8) for k in draw(st.lists(st.integers(-8, 8), min_size=1,
                                                             max_size=40))]
    h = draw(st.one_of(st.just((Fraction(1),)), _FACTORS))
    c = draw(st.sampled_from([Fraction(1), Fraction(-3), Fraction(2) ** -60, Fraction(2) ** 40]))
    poly = [c * x for x in _times(_times(g, g), list(h))]
    assert all(Fraction(float(x)) == x for x in poly)
    return [float(x) for x in poly]


def sympy_factors(coeffs):
    """sympy's monic square-free factors of the exact coefficients, as
    exact rationals by multiplicity."""
    x = sympy.Symbol("x")
    exact = [sympy.Rational(*c.as_integer_ratio()) for c in coeffs]
    _, factors = sympy.sqf_list(sympy.Poly(exact, x))
    return {m: [Fraction(int(r.p), int(r.q)) for r in f.monic().all_coeffs()]
            for f, m in factors if f.degree() > 0}


def aberth_inputs(coeffs):
    """The coefficients each call of the root finder is given while
    find_roots runs on ``coeffs``, in call order."""
    seen = []
    aberth = polyroots._aberth

    def record(factor):
        seen.append(factor)
        return aberth(factor)

    with mock.patch.object(polyroots, "_aberth", record):
        find_roots(Polynomial(coeffs))
    return seen


def assert_yun_matches_sympy(coeffs):
    """Yun's factors of the exact coefficients are sympy's monic square-free
    factors, as exact rationals; and the floats the root finder is given,
    square-free input or not, are those of sympy's monic factors of the
    polynomial without its zero roots, by increasing multiplicity (the
    polynomial 1 for a monomial, which has no other root)."""
    want = sympy_factors(coeffs)
    got = polyroots._yun(polyroots._scaled(coeffs))
    assert len(got) == len(want)
    assert {m: [Fraction(c, a[0]) for c in a] for a, m in got} == want
    nonzero = list(coeffs)
    while not nonzero[-1]:
        nonzero.pop()
    floats = [[repr(float(c)) for c in f] for _, f in sorted(sympy_factors(nonzero).items())]
    assert [list(map(repr, f)) for f in aberth_inputs(coeffs)] == (floats or [["1.0"]])


class TestYunOverIntegers:
    """The square-free factors come from integer arithmetic and primitive
    remainders; they must be sympy's, bit for bit once made floats."""

    @settings(max_examples=80, deadline=None)
    @given(multiset_alphas())
    @example((3.0, -3.0, 1.0))
    @example((0.0, -2.0, 0.0, -1.0))
    @example((-3.0, -4.25, -3.0, -1.0))
    def test_multisets(self, alphas):
        assert_yun_matches_sympy([1.0] + [-a for a in alphas])

    @settings(max_examples=40, deadline=None)
    @given(squared_products())
    def test_squared_products(self, coeffs):
        assert_yun_matches_sympy(coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [[1.0, -1.0, 0.0, 0.0], [-2.0, 4.0, -2.0], [2.0 ** -1074, -(2.0 ** -1073), 2.0 ** -1074],
         [3.0, 0.0, 0.0, 0.0]],
        ids=["zero-root", "negative-lead", "subnormal", "monomial"],
    )
    def test_edges(self, coeffs):
        assert_yun_matches_sympy(coeffs)

    def test_square_free_is_one_primitive_factor(self):
        # -12 (r - 1/2)(r^2 + 1): gcd(f, f') = 1, so f is its own factor,
        # divided by its content -6.
        f = [-12, 6, -12, 6]
        assert polyroots._gcd(f, polyroots._deriv(f)) == [1]
        assert polyroots._yun(f) == [([2, -1, 2, -1], 1)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_zero_coefficient_is_positive_zero(self, sign):
        # +/-(r - 1)^2 (r^2 - 2): the simple factor's zero coefficient
        # reaches the root finder as +0.0, as the float of the monic rational
        # factor is, whatever the sign of the integer gcd that the factor is
        # divided out of.
        p = [sign * float(c) for c in _times(_times([1, -1], [1, -1]), [1, 0, -2])]
        inputs = aberth_inputs(p)
        assert inputs == [[1.0, 0.0, -2.0], [1.0, -1.0]]
        assert repr(inputs[0][1]) == "0.0"


# Each factor Aberth sees has simple roots, so a fifth of the iteration
# budget is enough where the clustering code crawled linearly to the end
# of all 200 iterations.
_FORTY_ITERATION_INPUTS = {
    "(r-1)^3": (3.0, -3.0, 1.0),
    "(r-1/2)^3": (1.5, -0.75, 0.125),
    "(r^2+1.5r+1)^2": (-3.0, -4.25, -3.0, -1.0),
    "(r-1)^2(r-1/2)(r^2-r/2+1)": (3.0, -4.25, 4.0, -2.25, 0.5),
    "lambda=1/3": zerosnet_coeffs(1 / 3).alphas,
    **{f"table8-row{i + 1}": row.scheme.alphas for i, row in enumerate(REFERENCE_ROWS)},
}


class TestWorkCount:
    @pytest.mark.parametrize(
        "alphas", _FORTY_ITERATION_INPUTS.values(), ids=_FORTY_ITERATION_INPUTS.keys()
    )
    def test_forty_iterations_suffice(self, monkeypatch, alphas):
        monkeypatch.setattr(polyroots, "MAX_ITERATIONS", 40)
        p = characteristic_polynomial(Scheme(alphas, 1.0))
        assert_matches_exact(p, find_roots(p))

    def test_table8_within_forty_iterations(self, monkeypatch):
        monkeypatch.setattr(polyroots, "MAX_ITERATIONS", 40)
        assert all(result.passed for result in verify_reference_table())

    @pytest.mark.parametrize(
        "alphas",
        [(10000.0, -1.0, 0.5), (1e-20, 1e-20, 1e-20),
         # (r - 2^20)(r - 2^-20)(r + 3/4)
         (2.0**20 + 2.0**-20 - 0.75, 0.75 * (2.0**20 + 2.0**-20) - 1.0, -0.75)],
        ids=["root near 1e4", "tiny coefficients", "roots 2^20 and 2^-20"],
    )
    def test_newton_polygon_starts(self, monkeypatch, alphas):
        # Started on the Newton-polygon radii, roots of very different sizes
        # pass in at most 4 iterations; started on one circle they took 7
        # to 21.
        monkeypatch.setattr(polyroots, "MAX_ITERATIONS", 8)
        p = characteristic_polynomial(Scheme(alphas, 1.0))
        assert_matches_exact(p, find_roots(p))
