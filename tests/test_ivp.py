import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zstab.ivp import (
    IVPProblem,
    Trajectory,
    constant_problem,
    convergence_order,
    decay_problem,
    integrate,
    oscillator_problem,
    startup_states,
    zero_stability_probe,
)
from zstab.schemes import (
    companion_spectral_radius,
    first_order,
    lm_second_order,
    make_scheme,
)
from zstab.zerosnet import zerosnet_coeffs


def _reference_integrate(s, p, h, n_steps):
    """integrate as its own step loop, with its own seed-state choice and
    blow-up rule: the oracle that the shared recurrence must equal."""
    d = s.order
    if len(p.initial_states) >= d and p.exact_solution is None:
        seed = [np.array(y, dtype=float) for y in p.initial_states[:d]]
    else:
        seed = startup_states(p, h, d)

    states = list(seed)
    times = [p.t_start + q * h for q in range(d)]
    blew_up_at = None
    alphas = np.asarray(s.alphas)

    for step in range(n_steps):
        n = d - 1 + step
        t_n = p.t_start + n * h
        history = states[-1 : -d - 1 : -1]  # y_n, y_{n-1}, ..., y_{n-d+1}
        nxt = sum(a * y for a, y in zip(alphas, history))
        nxt = nxt + h * s.beta * np.atleast_1d(np.asarray(p.rhs(t_n, states[-1]), dtype=float))
        if not np.all(np.isfinite(nxt)):
            blew_up_at = n + 1
            break
        states.append(nxt)
        times.append(t_n + h)

    return Trajectory(
        times=tuple(times), states=tuple(states), step_size=h, blew_up_at=blew_up_at
    )


def plain_decay():
    """Decay problem without the exact solution attached."""
    return IVPProblem(
        rhs=lambda t, y: -y,
        t_start=0.0,
        t_end=1.0,
        initial_states=(np.array([1.0]),),
    )


class TestIVPProblem:
    def test_dimension(self):
        assert decay_problem().dimension == 1
        assert oscillator_problem().dimension == 2

    def test_time_interval_validated(self):
        with pytest.raises(ValueError):
            IVPProblem(lambda t, y: y, 1.0, 0.0, (np.array([1.0]),))

    def test_states_required(self):
        with pytest.raises(ValueError):
            IVPProblem(lambda t, y: y, 0.0, 1.0, ())

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            IVPProblem(
                lambda t, y: y, 0.0, 1.0, (np.array([1.0]), np.array([1.0, 2.0]))
            )


class TestStartupStates:
    def test_exact_sampling(self):
        p = decay_problem()
        seeds = startup_states(p, 0.1, 3)
        expected = [1.0, math.exp(-0.1), math.exp(-0.2)]
        for got, want in zip(seeds, expected):
            assert abs(got[0] - want) < 1e-15

    def test_constant_flow(self):
        p = IVPProblem(
            lambda t, y: np.zeros_like(y), 0.0, 1.0, (np.array([3.5]),)
        )
        seeds = startup_states(p, 0.1, 3)
        assert all(s[0] == 3.5 for s in seeds)

    def test_bootstrap_accuracy(self):
        seeds = startup_states(plain_decay(), 0.1, 2)
        assert abs(seeds[1][0] - math.exp(-0.1)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            startup_states(decay_problem(), 0.1, 0)
        with pytest.raises(ValueError):
            startup_states(decay_problem(), -0.1, 2)


class TestIntegrate:
    def test_single_euler_step(self):
        traj = integrate(first_order(1), plain_decay(), 0.1, 1)
        assert abs(traj.final_state()[0] - 0.9) < 1e-15
        assert traj.times == (0.0, 0.1)

    def test_two_cycle(self):
        p = IVPProblem(
            lambda t, y: np.zeros_like(y),
            0.0,
            1.0,
            (np.array([1.0]), np.array([2.0])),
        )
        traj = integrate(make_scheme([0, 1], 0), p, 0.1, 6)
        values = [s[0] for s in traj.states]
        assert values == [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]

    def test_decay_accuracy(self):
        s = zerosnet_coeffs(-9 / 5)
        traj = integrate(s, decay_problem(), 0.01, 98)
        assert abs(traj.times[-1] - 1.0) < 1e-12
        assert abs(traj.final_state()[0] - math.exp(-1.0)) < 1e-3

    def test_constant_flow_no_drift(self):
        # Sum(alpha) = 1 and rhs = 0: the recurrence must hold the constant
        # exactly, up to accumulated rounding
        for s in [first_order(1), lm_second_order(0.5), zerosnet_coeffs(-9 / 5)]:
            traj = integrate(s, constant_problem(value=1.0), 0.01, 500)
            drift = max(abs(y[0] - 1.0) for y in traj.states)
            assert drift <= 1e-12
            assert traj.blew_up_at is None

    def test_blow_up_flagged(self):
        s = make_scheme([1e150], 1.0)
        with np.errstate(over="ignore"):
            traj = integrate(s, plain_decay(), 0.1, 10)
        assert traj.blew_up_at is not None
        assert len(traj.states) < 11

    def test_state_count(self):
        s = zerosnet_coeffs(2.0)
        traj = integrate(s, decay_problem(), 0.01, 40)
        assert len(traj.states) == 40 + s.order
        assert len(traj.times) == len(traj.states)

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate(first_order(1), decay_problem(), 0.0, 1)
        with pytest.raises(ValueError):
            integrate(first_order(1), decay_problem(), 0.1, 0)
        with pytest.raises(ValueError):
            integrate(first_order(1), decay_problem(), math.nan, 1)

    def test_csv(self):
        traj = integrate(first_order(1), oscillator_problem(), 0.1, 3)
        rows = list(csv.reader(io.StringIO(traj.to_csv())))
        assert rows[0] == ["n", "t", "y0", "y1"]
        assert len(rows) == 1 + len(traj.states)
        assert float(rows[1][1]) == 0.0


class TestZeroStabilityProbe:
    def test_identity_recurrence(self):
        series = zero_stability_probe(
            first_order(1), constant_problem(), 1e-3, 0.1, 10
        )
        assert series.ratio == 1.0
        assert all(abs(g - 1e-3) < 1e-15 for g in series.per_step)

    def test_geometric_growth(self):
        series = zero_stability_probe(
            first_order(2), constant_problem(), 1e-3, 0.1, 20
        )
        assert abs(series.per_step[-1] - 1e-3 * 2**20) < 1e-6 * 2**20
        assert series.ratio > 1e5

    def test_stable_family_bounded(self):
        series = zero_stability_probe(
            zerosnet_coeffs(-9 / 5), decay_problem(), 1e-3, 0.01, 100
        )
        assert series.ratio <= 3.0
        assert series.blew_up_at is None

    def test_deterministic(self):
        a = zero_stability_probe(lm_second_order(0.5), decay_problem(), 1e-3, 0.01, 50)
        b = zero_stability_probe(lm_second_order(0.5), decay_problem(), 1e-3, 0.01, 50)
        assert a.per_step == b.per_step

    def test_linear_growth_matches_companion_oracle(self):
        # With rhs = 0 the gap follows the companion recurrence; compare the
        # observed per-step factor after the transient with the power
        # iteration estimate.
        for s in [first_order(1.5), make_scheme([1, 1, 1], 1), lm_second_order(0.5)]:
            series = zero_stability_probe(s, constant_problem(), 1e-6, 0.1, 60)
            radius = companion_spectral_radius(s).value
            gaps = series.per_step
            factor = (gaps[-1] / gaps[50]) ** (1.0 / (len(gaps) - 51))
            assert abs(factor - radius) <= 0.02 * radius

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            zero_stability_probe(first_order(1), decay_problem(), 0.0, 0.1, 5)

    def test_csv(self):
        series = zero_stability_probe(first_order(1), constant_problem(), 1e-3, 0.1, 5)
        rows = list(csv.reader(io.StringIO(series.to_csv())))
        assert rows[0] == ["n", "gap"]
        assert len(rows) == 1 + len(series.per_step)


class TestConvergenceOrder:
    H_LIST = [0.04, 0.02, 0.01, 0.005]

    def test_euler_first_order(self):
        est = convergence_order(first_order(1), decay_problem(), self.H_LIST)
        assert 0.8 <= est.order <= 1.2
        assert not est.rounding_limited

    def test_family_second_order(self):
        est = convergence_order(zerosnet_coeffs(-9 / 5), decay_problem(), self.H_LIST)
        assert 1.7 <= est.order <= 2.3

    def test_halving_h_quarters_error(self):
        est = convergence_order(
            zerosnet_coeffs(-9 / 5), decay_problem(), [0.02, 0.01, 0.005]
        )
        for coarse, fine in zip(est.errors, est.errors[1:]):
            assert 3.4 <= coarse / fine <= 4.6

    def test_unstable_scheme_no_positive_order(self):
        est = convergence_order(
            make_scheme([1, 1, 1], 1), decay_problem(), self.H_LIST
        )
        # the dominant root 1.84 amplifies startup error as h shrinks
        assert est.order < 0 or est.errors[-1] > est.errors[0]

    def test_requires_exact_solution(self):
        with pytest.raises(ValueError):
            convergence_order(first_order(1), plain_decay(), self.H_LIST)

    def test_requires_three_steps(self):
        with pytest.raises(ValueError):
            convergence_order(first_order(1), decay_problem(), [0.1, 0.05])

    def test_rejects_duplicate_step_sizes(self):
        with pytest.raises(ValueError, match="distinct"):
            convergence_order(first_order(1), decay_problem(), [0.1, 0.1, 0.1])

    def test_rejects_non_finite_step_sizes(self):
        with pytest.raises(ValueError):
            convergence_order(first_order(1), decay_problem(), [0.1, math.nan, 0.05])


def _forced_problem():
    """Time-dependent rhs, no exact solution, one initial state: every
    scheme of order above one is bootstrapped by RK4, and a wrong t_n shows."""
    return IVPProblem(
        rhs=lambda t, y: np.cos(3.0 * t) - 0.5 * y,
        t_start=0.3,
        t_end=2.0,
        initial_states=(np.array([0.7]),),
    )


def _many_seeds_problem():
    """Five 2-d initial states, more than any drawn scheme needs."""
    return IVPProblem(
        rhs=lambda t, y: -t * y,
        t_start=-1.0,
        t_end=1.0,
        initial_states=tuple(np.array([1.0 + k, 0.5 - k]) for k in range(5)),
    )


_PROBLEMS = {
    "decay": decay_problem(),
    "constant": constant_problem(value=2.5),
    "oscillator": oscillator_problem(),
    "forced": _forced_problem(),
    "many_seeds": _many_seeds_problem(),
}


class TestIntegrateMatchesReference:
    """integrate runs on the shared recurrence; its states, times and
    blow-up step must equal the dedicated step loop's bit for bit,
    including schemes whose +-10 coefficients overflow."""

    @settings(max_examples=80, deadline=None)
    @given(
        alphas=st.lists(
            st.one_of(st.floats(-10.0, 10.0), st.sampled_from([10.0, -10.0])),
            min_size=1,
            max_size=4,
        ),
        beta=st.floats(-2.0, 2.0),
        problem=st.sampled_from(sorted(_PROBLEMS)),
        h=st.floats(1e-3, 0.5),
        n_steps=st.integers(1, 400),
    )
    @example(alphas=[10.0, 10.0, 10.0], beta=1.0, problem="decay", h=0.1, n_steps=1000)
    def test_equal_to_reference(self, alphas, beta, problem, h, n_steps):
        s = make_scheme(alphas, beta)
        p = _PROBLEMS[problem]
        traj = integrate(s, p, h, n_steps)
        with np.errstate(all="ignore"):
            ref = _reference_integrate(s, p, h, n_steps)
        assert traj.times == ref.times
        assert traj.blew_up_at == ref.blew_up_at
        assert [y.tobytes() for y in traj.states] == [y.tobytes() for y in ref.states]
        assert [y.shape for y in traj.states] == [y.shape for y in ref.states]
