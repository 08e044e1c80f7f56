import copy
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zstab.schemes import (
    Scheme,
    _recur,
    characteristic_polynomial,
    consistency_check,
    first_order,
    lm_second_order,
    root_condition,
)
from zstab.zerosnet import zerosnet_coeffs

from conftest import match_roots
import reference
from reference import companion_spectral_radius


class TestMakeScheme:
    def test_euler(self):
        s = Scheme([1], 1)
        assert s.alphas == (1.0,)
        assert s.beta == 1.0
        assert s.order == 1

    def test_three_step(self):
        s = Scheme([1, 1, 1], 1)
        assert s.order == 3

    def test_beta_zero_allowed(self):
        s = Scheme([0.5, 0.5], 0)
        assert s.beta == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Scheme([], 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Scheme([1, float("inf")], 1)
        with pytest.raises(ValueError):
            Scheme([1], float("nan"))

    def test_stored_exactly(self):
        s = Scheme([3.75, -4, 1.25], -0.5)
        assert s.alphas == (3.75, -4.0, 1.25)
        assert s.beta == -0.5

    @pytest.mark.parametrize(
        "alphas, beta, message",
        [
            ((), 1, "at least one alpha"),
            ((math.nan,), 1, "must be finite"),
            ((1,), math.inf, "must be finite"),
        ],
        ids=["no alphas", "nan alpha", "inf beta"],
    )
    def test_checked_at_construction(self, alphas, beta, message):
        with pytest.raises(ValueError, match=message):
            Scheme(alphas, beta)

    def test_hashable_with_float_alphas(self):
        s = Scheme([1, 2], 1)
        assert s.alphas == (1.0, 2.0)
        assert all(type(a) is float for a in (*s.alphas, s.beta))
        assert hash(s) == hash(Scheme((1.0, 2.0), 1.0))


class TestCharacteristicPolynomial:
    def test_first_order_unit(self):
        p = characteristic_polynomial(first_order(1))
        assert p.coefficients == (1.0, -1.0)

    def test_two_step_factored_form(self):
        # rho^2 + (k-1)rho - k factors as (rho - 1)(rho + k)
        k = 0.5
        p = characteristic_polynomial(lm_second_order(k))
        assert p.coefficients == (1.0, k - 1.0, -k)

    def test_three_step_example(self):
        p = characteristic_polynomial(Scheme([3.75, -4, 1.25], -0.5))
        assert p.coefficients == (1.0, -3.75, 4.0, -1.25)

    def test_beta_absent(self):
        a = characteristic_polynomial(Scheme([0.5, 0.5], 0))
        b = characteristic_polynomial(Scheme([0.5, 0.5], 7.0))
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
        rep = root_condition(Scheme([1, 1, 1], 1))
        assert not rep.zero_stable
        assert tuple(round(m, 2) for m in rep.moduli) == (1.84, 0.74, 0.74)

    def test_moduli_count_matches_order(self):
        for s in [first_order(1), lm_second_order(-0.5), Scheme([1, 1, 1], 1)]:
            assert len(root_condition(s).moduli) == s.order

    def test_repeated_unit_root_flagged(self):
        # (rho - 1)^2: on-circle double root is a violation even though no
        # modulus exceeds 1
        rep = root_condition(Scheme([2, -1], 1))
        assert not rep.zero_stable
        assert any("multiplicity" in v for v in rep.violations)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_beta_invariance(self, k, beta):
        a = root_condition(Scheme([1 - k, k], 2 * k + 1))
        b = root_condition(Scheme([1 - k, k], beta))
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
        s = Scheme([0.1, 0.2, 0.3], 0.4)
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

    def test_sum_past_the_float_range_mid_way(self):
        # fsum overflows on the partial sum 2e308; the exact sum is 1e308.
        rep = consistency_check(Scheme([1e308, 1e308, -1e308], 1.0))
        assert rep.sum_alpha == 1e308
        # 0 + 1e308 - 2 * 1e308: the product 2e308 overflows, fsum gives -inf.
        assert rep.moment == 1.0 + 1e308

    def test_sums_past_the_float_range_are_infinite(self):
        assert consistency_check(Scheme([0.0, 1e308, 1e308], 1.0)).sum_alpha == math.inf
        # The products 2e308 and -4e308 overflow both ways, and fsum meets inf - inf.
        rep = consistency_check(Scheme([0.0, 0.0, 1e308, 0.0, -1e308], 1.0))
        assert (rep.sum_alpha, rep.moment) == (0.0, math.inf)

    def test_signed_zero_sums_to_plus_zero(self):
        # An exact sum of zeros is +0, whatever the signs of its terms.
        rep = consistency_check(Scheme([-0.0], -0.0))
        assert math.copysign(1.0, rep.sum_alpha) == math.copysign(1.0, rep.moment) == 1.0

    @given(
        st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=6),
        st.one_of(st.floats(-10, 10), st.floats(-1e308, 1e308)),
    )
    @settings(max_examples=300, deadline=None)
    def test_sums_are_exact_rounded_once(self, alphas, beta):
        rep = consistency_check(Scheme(alphas, beta))
        exact_sum = sum(map(Fraction, alphas))
        exact_moment = Fraction(beta) - sum(i * Fraction(a) for i, a in enumerate(alphas))
        assert rep.sum_alpha == _rounded(exact_sum)
        assert rep.moment == _rounded(exact_moment)
        # fsum rounds once too, so where it reaches a finite sum it has these bits.
        try:
            fsum = math.fsum(alphas)
        except OverflowError:
            return
        if math.isfinite(fsum):
            assert rep.sum_alpha == fsum


def _rounded(q: Fraction) -> float:
    """q as the nearest float; +-inf past the float range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


class TestCompanionSpectralRadius:
    def test_three_ones(self):
        est = companion_spectral_radius(Scheme([1, 1, 1], 1))
        assert abs(est.value - 1.84) < 0.01

    def test_euler(self):
        est = companion_spectral_radius(first_order(1))
        assert est.value == 1.0

    def test_table_row_three(self):
        est = companion_spectral_radius(Scheme([-3, 5, -1], 4))
        assert abs(est.value - 4.24) < 0.01

    def test_agrees_with_root_condition(self, rng):
        for _ in range(20):
            alphas = rng.uniform(-2, 2, 3)
            s = Scheme(alphas.tolist(), 1.0)
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


def _assert_same_as_reference(alphas, coef, history, depth, f):
    """_recur over ``range(depth)`` and reference.recur for ``depth`` steps,
    each on its own copy of ``history``, must append the same states, byte
    for byte and shape for shape, return the same blow-up steps and call
    ``f`` with the same steps.  A history of
    Python floats is handed to the reference as 1-element arrays, and _recur
    must keep it a history of Python floats."""
    scalar = isinstance(history[-1], float)
    runs = []
    for loop in (_recur, reference.recur):
        calls = []

        def counted(n, y, calls=calls):
            calls.append(n)
            return f(n, y)

        states = copy.copy(history)  # a deque keeps its maxlen
        if scalar and loop is reference.recur:
            for i, y in enumerate(states):
                states[i] = np.array([y])
        blew = loop(alphas, coef, states, range(depth) if loop is _recur else depth, counted)
        runs.append((list(states), blew, calls))
    (got, got_blew, got_calls), (want, want_blew, want_calls) = runs
    if scalar:
        assert all(type(y) is float for y in got)
        got = [np.array([y]) for y in got]
    assert [y.shape for y in got] == [y.shape for y in want]
    assert [y.tobytes() for y in got] == [y.tobytes() for y in want]
    assert got_blew.shape == want_blew.shape
    assert got_blew.tolist() == want_blew.tolist()
    assert got_calls == want_calls


_COEFFICIENT = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 10.0, -10.0]))


@st.composite
def _recurrences(draw):
    """Arguments of _recur as its callers pass them: Python-float or numpy
    scalar coefficients on one state or a stack of rows, (rows, 1, 1)
    coefficient arrays on (rows, 2, width) states as the sweep passes them,
    or Python-float or numpy scalar coefficients on a history of Python
    floats with an f that returns a float, as a one-feature integrate
    passes them."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["float", "numpy", "rows", "scalar"]))
    rows = draw(st.integers(1, 3))
    width = draw(st.integers(1, 3))

    def coefficient():
        if kind == "float":
            return draw(_COEFFICIENT)
        if kind == "numpy":
            return np.float64(draw(_COEFFICIENT))
        if kind == "scalar":
            return draw(st.sampled_from([float, np.float64]))(draw(_COEFFICIENT))
        return np.array([draw(_COEFFICIENT) for _ in range(rows)]).reshape(rows, 1, 1)

    alphas = [coefficient() for _ in range(d)]
    coef = coefficient()
    if kind == "rows":
        shape = (rows, 2, width)
    elif kind == "scalar":
        shape = (1,)
    else:
        shape = draw(st.sampled_from([(width,), (rows, width)]))
    # One magnitude per row, often near the overflow threshold, so that rows
    # overflow at different steps.
    exponent = st.one_of(st.integers(-300, 300), st.integers(280, 307))
    scale = np.array([10.0 ** draw(exponent) for _ in range(shape[0])])
    scale = scale.reshape((-1,) + (1,) * (len(shape) - 1)) if len(shape) > 1 else scale[0]
    size = int(np.prod(shape))
    states = [
        np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)))
        .reshape(shape) * scale
        for _ in range(d + draw(st.integers(0, 1)))
    ]
    if kind == "scalar":
        states = [y.item() for y in states]
    history = deque(states, maxlen=d) if draw(st.booleans()) else states

    # A float times a list is a TypeError in the reference loop, so a list
    # comes only with array coefficients, as in the sweep.
    returns = draw(st.sampled_from(
        ["array", "list", "zero"] if kind == "rows" else ["array", "zero"]
    ))
    g = draw(st.floats(-2.0, 2.0))
    if returns == "array":
        def f(n, y):
            return g * y + n  # a float for a float
    elif returns == "list":
        def f(n, y):
            return (g * y + n).tolist()
    else:
        def f(n, y):
            return 0.0  # what growth_rate's blocks return
    return alphas, coef, history, draw(st.integers(1, 40)), f


class TestRecurMatchesReference:
    """The step loop converts its coefficients to arrays, accumulates
    without a generator and tests each step for finiteness once; the states
    it appends, its blow-up steps and its calls of f must equal those of the
    loop it replaced, sign of zero and NaN bits included.  On a history of
    Python floats it must append the floats that the replaced loop appends
    on 1-element arrays."""

    @settings(max_examples=200, deadline=None)
    @given(_recurrences())
    def test_equal_to_reference(self, case):
        _assert_same_as_reference(*case)

    def test_negative_zero_terms_sum_to_positive_zero(self):
        # 0 + (-0.0) is +0.0: the leading 0 of the sum decides the sign.
        history = [np.array([-0.0])]
        _assert_same_as_reference([1.0], 1.0, history, 2, lambda n, y: np.array([-0.0]))
        _recur([1.0], 1.0, history, range(2), lambda n, y: np.array([-0.0]))
        assert [np.signbit(y).tolist() for y in history] == [[True], [False], [False]]

    def test_negative_zero_floats_sum_to_positive_zero(self):
        history = [-0.0]
        _assert_same_as_reference([1.0], 1.0, history, 2, lambda n, y: -0.0)
        _recur([1.0], 1.0, history, range(2), lambda n, y: -0.0)
        assert [math.copysign(1.0, y) for y in history] == [-1.0, 1.0, 1.0]

    def test_zero_times_infinity_blows_up(self):
        # alphas (0, 1) on an infinite y_n, the lambda = -1 shape: 0 * inf is
        # NaN, so the first step blows up.
        history = [np.array([1.0]), np.array([np.inf])]
        _assert_same_as_reference((0.0, 1.0), 1.0, history, 3, lambda n, y: -y)
        assert _recur((0.0, 1.0), 1.0, history, range(3), lambda n, y: -y).tolist() == 1
        assert len(history) == 2

    def test_zero_times_infinity_blows_up_on_floats(self):
        history = [1.0, math.inf]
        _assert_same_as_reference((0.0, 1.0), 1.0, history, 3, lambda n, y: -y)
        assert _recur((0.0, 1.0), 1.0, history, range(3), lambda n, y: -y).tolist() == 1
        assert history == [1.0, math.inf]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_float_overflow_blows_up(self, sign):
        history = [sign * 1e308]
        _assert_same_as_reference([10.0], 1.0, history, 3, lambda n, y: y)
        assert _recur([10.0], 1.0, history, range(3), lambda n, y: y).tolist() == 1
        assert history == [sign * 1e308]

    def test_float_beyond_self_product_range_is_finite(self):
        # 1e200 * 1e200 overflows, but 1e200 * 0.0 is zero: the step's
        # finite test passes and the run goes on.
        history = [1e200]
        _assert_same_as_reference([1.0], 0.5, history, 3, lambda n, y: 0.0)
        assert _recur([1.0], 0.5, history, range(3), lambda n, y: 0.0).tolist() == 0
        assert history == [1e200] * 4

    def test_rows_are_examined_only_where_one_blows_up(self, monkeypatch):
        # Row 1 is beyond 1e154 from the start and overflows at step 28; row
        # 0 stays finite.  Only the state of step 28 is examined row by row:
        # before it the dot product with zeros clears each step, and after it
        # row 1 is left out.
        def history():
            return [np.array([[1.0, -1.0], [1e300, -1e300]])]

        _assert_same_as_reference([2.0], 1.0, history(), 200, lambda n, y: 0.0)
        examined = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x: examined.append(x) or isfinite(x))
        states = history()
        assert _recur([2.0], 1.0, states, range(200), lambda n, y: 0.0).tolist() == [0, 28]
        assert len(examined) == 1 and examined[0] is states[28]
        assert len(states) == 201 and np.isfinite(states[-1][0]).all()

    def test_state_that_grows_by_broadcasting(self):
        # f widens the state at step 1 and returns inf in it at step 2.
        def f(n, y):
            return np.array([1.0]) if n == 0 else np.array([1.0, np.inf if n == 2 else 2.0])

        _assert_same_as_reference([0.5], 1.0, [np.array([1.0])], 4, f)
        history = [np.array([1.0])]
        assert _recur([0.5], 1.0, history, range(4), f).tolist() == 3
        assert [y.shape for y in history] == [(1,), (1,), (2,)]


class _Dots(np.ndarray):
    """An array that records the size of every ``dot`` made on it; the
    states that _recur computes from it are of its type."""

    sizes: list = []

    def dot(self, other, *args):
        _Dots.sizes.append(self.size)
        return np.ndarray.dot(self, other, *args)


class TestSlicedFiniteness:
    """States of more than 2^13 elements are tested for finiteness slice by
    slice, so that no dot product runs on a second BLAS thread."""

    @pytest.mark.parametrize("position", [0, 8191, 8192, 19_999])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("base", [1.0, 1e200])
    def test_one_bad_element_anywhere(self, position, bad, base):
        # 4 rows of 5000 elements.  The element at ``position`` turns bad at
        # step 3, and one in the next row at step 6, when only the live rows
        # enter the test.  At 1e200 every slice's self-dot overflows, and
        # its dot product with zeros decides.
        later = (position + 5000) % 20_000

        def f(n, y):
            out = np.zeros(20_000)
            out[position] = bad if n == 2 else 0.0
            out[later] = bad if n == 5 else 0.0
            return out.reshape(4, 5000)

        history = [np.full((4, 5000), base)]
        _assert_same_as_reference([1.0], 1.0, history, 9, f)
        blew = _recur([1.0], 1.0, history, range(9), f)
        want = [0] * 4
        want[position // 5000], want[later // 5000] = 3, 6
        assert blew.tolist() == want

    @pytest.mark.parametrize(
        "size, dots",
        [(4, [4]), (2**13, [2**13]), (2**13 + 1, [2**13, 1]), (20_000, [2**13, 2**13, 3616])],
    )
    def test_slices_of_at_most_2_13(self, monkeypatch, size, dots):
        # Up to 2^13 elements, one self-dot per step, as before slicing.
        monkeypatch.setattr(_Dots, "sizes", [])
        history = [np.ones(size).view(_Dots)]
        assert _recur([0.5], 1.0, history, range(3), lambda n, y: 0.0).tolist() == 0
        assert _Dots.sizes == dots * 3
