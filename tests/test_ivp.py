import csv
import io
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zstab import ivp, schemes
from zstab.cli import main
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
from zstab.schemes import Scheme, first_order, lm_second_order
from zstab.zerosnet import zerosnet_coeffs

import reference


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

    return Trajectory(times=tuple(times), states=tuple(states), blew_up_at=blew_up_at)


def plain_decay():
    """Decay problem without the exact solution attached."""
    return IVPProblem(
        rhs=lambda t, y: -y,
        t_start=0.0,
        initial_states=(np.array([1.0]),),
    )


class TestIVPProblem:
    def test_dimension(self):
        assert decay_problem().dimension == 1
        assert oscillator_problem().dimension == 2

    def test_time_interval_validated(self):
        # The order fit is the one reader of an end time, and checks it.
        p = IVPProblem(lambda t, y: y, 1.0, (np.array([1.0]),), lambda t: np.array([1.0]))
        with pytest.raises(ValueError, match="t_start must be below t_end"):
            convergence_order(first_order(1), p, [0.1, 0.05, 0.02], 0.0)

    def test_states_required(self):
        with pytest.raises(ValueError):
            IVPProblem(lambda t, y: y, 0.0, ())

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            IVPProblem(
                lambda t, y: y, 0.0, (np.array([1.0]), np.array([1.0, 2.0]))
            )

    @pytest.mark.parametrize("state", [np.array([]), np.ones((2, 2)), np.ones((1, 1))],
                             ids=["no-feature", "matrix", "one-by-one"])
    def test_state_that_is_no_vector_rejected(self, state):
        with pytest.raises(ValueError, match="^initial states must be vectors of at least one feature$"):
            IVPProblem(lambda t, y: y, 0.0, (state, state))


class TestStartupStates:
    def test_exact_sampling(self):
        p = decay_problem()
        seeds = startup_states(p, 0.1, 3)
        expected = [1.0, math.exp(-0.1), math.exp(-0.2)]
        for got, want in zip(seeds, expected):
            assert abs(got[0] - want) < 1e-15

    def test_constant_flow(self):
        p = IVPProblem(
            lambda t, y: np.zeros_like(y), 0.0, (np.array([3.5]),)
        )
        seeds = startup_states(p, 0.1, 3)
        assert all(s[0] == 3.5 for s in seeds)

    def test_bootstrap_accuracy(self):
        seeds = startup_states(plain_decay(), 0.1, 2)
        assert abs(seeds[1][0] - math.exp(-0.1)) < 1e-6

    def test_overflowing_rk4_seed_is_data(self):
        # y * y overflows in the first RK4 stage; the suite turns a leaked
        # overflow warning into an error.
        p = IVPProblem(lambda t, y: y * y, 0.0, (np.array([1e300, 1.0]),))
        seeds = startup_states(p, 1e300, Scheme([1, 0], 1).order)
        assert seeds[0].tolist() == [1e300, 1.0]
        assert seeds[1].shape == (2,) and not np.isfinite(seeds[1]).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            startup_states(decay_problem(), 0.1, 0)
        with pytest.raises(ValueError):
            startup_states(decay_problem(), -0.1, 2)


class TestIntegrate:
    def test_single_euler_step(self):
        traj = integrate(first_order(1), plain_decay(), 0.1, 1)
        assert abs(traj.final_state()[0] - 0.9) < 1e-15
        assert traj.times.tolist() == [0.0, 0.1]

    def test_two_cycle(self):
        p = IVPProblem(
            lambda t, y: np.zeros_like(y),
            0.0,
            (np.array([1.0]), np.array([2.0])),
        )
        traj = integrate(Scheme([0, 1], 0), p, 0.1, 6)
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
            traj = integrate(s, constant_problem(), 0.01, 500)
            drift = max(abs(y[0] - 1.0) for y in traj.states)
            assert drift <= 1e-12
            assert traj.blew_up_at is None

    def test_blow_up_flagged(self):
        s = Scheme([1e150], 1.0)
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

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(ivp, "startup_states", None)  # nothing may be seeded
        with pytest.raises(ValueError, match="steps"):
            integrate(first_order(1), decay_problem(), 0.1, ivp.MAX_STEPS + 1)

    def test_time_grid_must_be_finite(self, monkeypatch):
        # Euler's second state sits at 2h, which is the largest float for
        # h = max/2 and overflows for the next float up.
        h = sys.float_info.max / 2
        traj = integrate(first_order(1), constant_problem(), h, 2)
        assert traj.times.tolist() == [0.0, h, sys.float_info.max]
        monkeypatch.setattr(ivp, "startup_states", None)  # nothing may be seeded
        with pytest.raises(ValueError, match="not finite"):
            integrate(first_order(1), constant_problem(), math.nextafter(h, math.inf), 2)

    def test_states_are_one_read_only_array(self):
        traj = integrate(first_order(1), oscillator_problem(), 0.1, 3)
        assert traj.states.shape == (4, 2)
        assert traj.times.shape == (4,)
        for column in (traj.times, traj.states):
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_csv(self):
        traj = integrate(first_order(1), oscillator_problem(), 0.1, 3)
        rows = list(csv.reader(io.StringIO(traj.to_csv())))
        assert rows[0] == ["n", "t", "y0", "y1"]
        assert len(rows) == 1 + len(traj.states)
        assert float(rows[1][1]) == 0.0


class TestScalarRuns:
    """Every one-feature run is computed on Python floats, its RK4 seeds
    included, and every run of more features on arrays.  These tests pin
    that choice, the rhs calls and the memory it saves, without timing
    anything; that the two number types give the same bits is
    TestIntegrateMatchesReference's and TestProbeMatchesReference's to
    show."""

    @staticmethod
    def _state_types(monkeypatch, run) -> list[tuple[set, tuple]]:
        """Per _recur call of ``run``: the types of the states it ended with,
        and the shape of its newest state."""
        seen = []

        def recording(alphas, coef, history, args, f):
            blew = schemes._recur(alphas, coef, history, args, f)
            seen.append(({type(y) for y in history}, np.shape(history[-1])))
            return blew

        monkeypatch.setattr(ivp, "_recur", recording)
        run()
        return seen

    @pytest.mark.parametrize("preset", ["decay", "constant"])
    def test_one_feature_preset_runs_on_floats(self, monkeypatch, preset):
        s, p = zerosnet_coeffs(-9 / 5), ivp.PRESETS[preset]()
        seen = self._state_types(monkeypatch, lambda: integrate(s, p, 0.01, 50))
        assert seen == [({float}, ())]

    def test_probe_twin_of_a_float_run_runs_on_floats(self, monkeypatch):
        # Floats do not stack: the clean run and its twin are two float runs.
        s, p = zerosnet_coeffs(-9 / 5), decay_problem()
        seen = self._state_types(
            monkeypatch, lambda: zero_stability_probe(s, p, 1e-3, 0.01, 50)
        )
        assert seen == [({float}, ()), ({float}, ())]

    def test_oscillator_runs_on_arrays(self, monkeypatch):
        # The clean run and its twin are the two rows of one run.
        s, p = zerosnet_coeffs(-9 / 5), oscillator_problem()
        seen = self._state_types(
            monkeypatch, lambda: zero_stability_probe(s, p, 1e-3, 0.01, 50)
        )
        assert seen == [({np.ndarray}, (2, 2))]

    def test_rhs_expression_runs_on_floats(self, monkeypatch, capsys):
        argv = ["integrate", "--alphas", "1", "--rhs", "sin(t) - y", "--h", "0.05", "--steps", "9"]
        seen = self._state_types(monkeypatch, lambda: main(argv))
        assert seen == [({float}, ())]
        assert capsys.readouterr().out.count("\n") == 11

    def test_constant_rhs_is_positive_zero_of_the_state_type(self):
        rhs = constant_problem().rhs
        assert type(rhs(0.0, -2.5)) is float
        assert math.copysign(1.0, rhs(0.0, -2.5)) == 1.0

    def test_rk4_seeded_rhs_sees_only_floats(self):
        # No exact solution: two of the three seeds are RK4 steps, on floats.
        forced = _forced_problem()
        seen = []

        def rhs(t, y):
            seen.append(type(y))
            return forced.rhs(t, y)

        p = IVPProblem(rhs, forced.t_start, forced.initial_states)
        traj = integrate(Scheme([0.5, 0.25, 0.25], 1.0), p, 0.1, 20)
        # The forced rhs returns numpy float scalars, which are floats too.
        assert len(seen) == 2 * 4 + 20
        assert all(issubclass(kind, float) for kind in seen)
        assert traj.states.shape == (23, 1)

    @pytest.mark.parametrize("scheme, exact, n_steps, calls", [
        (first_order(1), True, 100, 100),
        (zerosnet_coeffs(-9 / 5), True, 100, 100),
        # Two seed states bootstrapped by RK4, four calls each.
        (zerosnet_coeffs(-9 / 5), False, 100, 8 + 100),
        # State 299 overflows: the run stops at its step, the 297th.
        (Scheme([10.0, 10.0, 10.0], 1.0), True, 1000, 297),
    ])
    def test_rhs_called_once_per_step(self, scheme, exact, n_steps, calls):
        times = []

        def rhs(t, y):
            times.append(t)
            return -y

        p = IVPProblem(
            rhs, 0.0, (np.array([1.0]),),
            exact_solution=decay_problem().exact_solution if exact else None,
        )
        integrate(scheme, p, 0.1, n_steps)
        assert len(times) == calls
        steps = times[-min(calls, n_steps):]  # after the RK4 calls, if any
        assert steps == [(scheme.order - 1 + n) * 0.1 for n in range(len(steps))]

    def test_long_decay_run_peak_memory(self):
        # 1e5 states as 1-element arrays peaked at 16.8 MiB; as Python
        # floats, copied once into the (steps, 1) array, at 6.2 MiB.
        s, p = zerosnet_coeffs(-9 / 5), decay_problem()
        tracemalloc.start()
        try:
            traj = integrate(s, p, 1e-4, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (100_003, 1)
        assert peak < 8 * 2**20


class TestZeroStabilityProbe:
    def test_identity_recurrence(self):
        s, p = first_order(1), constant_problem()
        _, series = zero_stability_probe(s, p, 1e-3, 0.1, 10)
        assert series.ratio == 1.0
        assert all(abs(g - 1e-3) < 1e-15 for g in series.per_step)

    def test_geometric_growth(self):
        s, p = first_order(2), constant_problem()
        _, series = zero_stability_probe(s, p, 1e-3, 0.1, 20)
        assert abs(series.per_step[-1] - 1e-3 * 2**20) < 1e-6 * 2**20
        assert series.ratio > 1e5

    def test_stable_family_bounded(self):
        s, p = zerosnet_coeffs(-9 / 5), decay_problem()
        _, series = zero_stability_probe(s, p, 1e-3, 0.01, 100)
        assert series.ratio <= 3.0
        assert series.blew_up_at is None

    def test_deterministic(self):
        s, p = lm_second_order(0.5), decay_problem()
        _, a = zero_stability_probe(s, p, 1e-3, 0.01, 50)
        _, b = zero_stability_probe(s, p, 1e-3, 0.01, 50)
        assert a.per_step == b.per_step

    def test_linear_growth_matches_companion_oracle(self):
        # With rhs = 0 the gap follows the companion recurrence; compare the
        # observed per-step factor after the transient with the power
        # iteration estimate.
        p = constant_problem()
        for s in [first_order(1.5), Scheme([1, 1, 1], 1), lm_second_order(0.5)]:
            _, series = zero_stability_probe(s, p, 1e-6, 0.1, 60)
            radius = reference.companion_spectral_radius(s).value
            gaps = series.per_step
            factor = (gaps[-1] / gaps[50]) ** (1.0 / (len(gaps) - 51))
            assert abs(factor - radius) <= 0.02 * radius

    def test_eps_validated(self):
        s, p = first_order(1), decay_problem()
        with pytest.raises(ValueError):
            zero_stability_probe(s, p, 0.0, 0.1, 5)

    def test_gap_past_the_float_max_is_inf(self):
        # Both runs stay finite: the last states are 8.7e307 and -1.4e308,
        # so the last gap is inf, and no overflow warning leaks out.
        s = Scheme([1.0, 1e308, 0.0], -1.0)
        _, series = zero_stability_probe(s, decay_problem(), 0.75, 1.0, 2, seed=15)
        assert series.per_step[-1] == math.inf
        assert (series.ratio, series.blew_up_at) == (math.inf, None)

    def test_seeds_that_overflowed_alike_give_a_nan_initial_gap(self, capsys):
        # The seeds are 1.7e308 and its RK4 successor, inf, in both runs: the
        # shift is lost at 1.7e308, and inf - inf is nan.  A max that drops
        # the nan after the first gap, 0.0, would report an initial gap of 0.
        s = Scheme([1, 0], 1.5)
        p = IVPProblem(lambda t, y: y, 0.0, (np.array([1.7e308]),))
        _, series = zero_stability_probe(s, p, 1e6, 0.5, 5)
        assert series.per_step[0] == 0.0 and math.isnan(series.per_step[1])
        assert math.isnan(series.initial_gap)
        assert (series.ratio, series.blew_up_at) == (math.inf, 2)
        code = main(["integrate", "--alphas", "1,0", "--beta", "1.5", "--rhs", "y",
                     "--y0", "1.7e308", "--h", "0.5", "--steps", "5", "--probe", "1e6"])
        err = capsys.readouterr().err
        assert code == 0
        assert err == "blow-up at step 2\nprobe amplification ratio=inf (diverged)\n"

    def test_eps_that_shifts_no_seed_rejected_before_any_step(self, monkeypatch):
        # 1e-17 is below half an ulp of every decay seed, so the twin would be
        # the clean run, its initial gap 0 and its ratio 0/0.
        s, p = zerosnet_coeffs(-9 / 5), decay_problem()
        message = "^eps=1e-17 shifts no seed state"
        with pytest.raises(ValueError, match=message):
            reference.zero_stability_probe(s, p, 1e-17, 0.01, 100)
        monkeypatch.setattr(ivp, "_runs", None)  # any run would fail
        with pytest.raises(ValueError, match=message):
            zero_stability_probe(s, p, 1e-17, 0.01, 100)

    def test_negative_seed_rejected_before_any_step(self, monkeypatch):
        monkeypatch.setattr(ivp, "startup_states", None)  # nothing may be seeded
        with pytest.raises(ValueError, match="^seed must be non-negative, got -5$"):
            zero_stability_probe(first_order(1), decay_problem(), 1.0, 0.1, 3, seed=-5)

    def test_rhs_that_mixes_rows_rejected_before_any_step(self, monkeypatch):
        # A @ y maps a (2,) state, but on the (2, 2) stack of a run and its
        # twin it mixes the rows.
        matrix = np.array([[0.0, 2.0], [-1.0, 0.5]])
        p = IVPProblem(lambda t, y: matrix @ y, 0.0, (np.array([1.0, 0.0]),))
        integrate(first_order(1), p, 0.1, 5)
        monkeypatch.setattr(ivp, "_recur", None)  # any step would fail
        with pytest.raises(ValueError, match="each row"):
            zero_stability_probe(first_order(1), p, 1e-3, 0.1, 5)

    def test_rhs_value_that_does_not_broadcast_rejected(self, monkeypatch):
        # y.ravel() maps a (2,) state to itself, but the (2, 2) stack to a
        # (4,) value, which no row-by-row rhs could give.
        p = IVPProblem(lambda t, y: -y.ravel(), 0.0, (np.array([1.0, 0.0]),))
        integrate(first_order(1), p, 0.1, 5)
        monkeypatch.setattr(ivp, "_recur", None)  # any step would fail
        with pytest.raises(ValueError, match="each row"):
            zero_stability_probe(first_order(1), p, 1e-3, 0.1, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e308, -1e308])),
        min_size=2, max_size=2,
    ))
    def test_oscillator_rhs_is_row_wise_with_the_bits_of_a_matrix_product(self, y):
        rhs = oscillator_problem().rhs
        matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
        y = np.array(y)
        with np.errstate(all="ignore"):
            want = (matrix @ y).tobytes()
            assert rhs(0.0, y).tobytes() == want
            assert rhs(0.0, np.stack([y[::-1], y]))[1].tobytes() == want


class TestConvergenceOrder:
    H_LIST = [0.04, 0.02, 0.01, 0.005]

    def test_euler_first_order(self):
        est = convergence_order(first_order(1), decay_problem(), self.H_LIST, 1.0)
        assert 0.8 <= est.order <= 1.2
        assert not est.rounding_limited

    def test_family_second_order(self):
        est = convergence_order(zerosnet_coeffs(-9 / 5), decay_problem(), self.H_LIST, 1.0)
        assert 1.7 <= est.order <= 2.3

    def test_halving_h_quarters_error(self):
        est = convergence_order(
            zerosnet_coeffs(-9 / 5), decay_problem(), [0.02, 0.01, 0.005], 1.0
        )
        for coarse, fine in zip(est.errors, est.errors[1:]):
            assert 3.4 <= coarse / fine <= 4.6

    def test_unstable_scheme_no_positive_order(self):
        est = convergence_order(
            Scheme([1, 1, 1], 1), decay_problem(), self.H_LIST, 1.0
        )
        # the dominant root 1.84 amplifies startup error as h shrinks
        assert est.order < 0 or est.errors[-1] > est.errors[0]

    def test_requires_exact_solution(self):
        with pytest.raises(ValueError):
            convergence_order(first_order(1), plain_decay(), self.H_LIST, 1.0)

    def test_requires_three_steps(self):
        with pytest.raises(ValueError):
            convergence_order(first_order(1), decay_problem(), [0.1, 0.05], 1.0)

    def test_rejects_duplicate_step_sizes(self):
        with pytest.raises(ValueError, match="distinct"):
            convergence_order(first_order(1), decay_problem(), [0.1, 0.1, 0.1], 1.0)

    def test_step_budget_checked_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(ivp, "integrate", lambda *args: runs.append(args))
        h = 1.0 / (ivp.MAX_STEPS + 1)  # the last run needs MAX_STEPS + 1 steps
        with pytest.raises(ValueError, match="steps"):
            convergence_order(first_order(1), decay_problem(), [0.5, 0.25, h], 1.0)
        assert runs == []

    def test_time_grid_checked_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(ivp, "integrate", lambda *args: runs.append(args))
        top = sys.float_info.max
        # Over [0, top] each h rounds to two Euler steps: the last state sits
        # at top, 0.8 * top and, overflowing, 1.2 * top.
        with pytest.raises(ValueError, match="not finite"):
            convergence_order(
                first_order(1), decay_problem(), [0.5 * top, 0.4 * top, 0.6 * top], top
            )
        assert runs == []

    def test_rejects_non_finite_step_sizes(self):
        with pytest.raises(ValueError):
            convergence_order(first_order(1), decay_problem(), [0.1, math.nan, 0.05], 1.0)


def _forced_problem():
    """Time-dependent rhs, no exact solution, one initial state: every
    scheme of order above one is bootstrapped by RK4, and a wrong t_n shows."""
    return IVPProblem(
        rhs=lambda t, y: np.cos(3.0 * t) - 0.5 * y,
        t_start=0.3,
        initial_states=(np.array([0.7]),),
    )


def _many_seeds_problem():
    """Five 2-d initial states, more than any drawn scheme needs."""
    return IVPProblem(
        rhs=lambda t, y: -t * y,
        t_start=-1.0,
        initial_states=tuple(np.array([1.0 + k, 0.5 - k]) for k in range(5)),
    )


_PROBLEMS = {
    "decay": decay_problem(),
    "constant": IVPProblem(
        rhs=lambda t, y: np.zeros_like(y), t_start=0.0,
        initial_states=(np.array([2.5]),), exact_solution=lambda t: np.array([2.5]),
    ),
    "constant_preset": constant_problem(),
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
        s = Scheme(alphas, beta)
        p = _PROBLEMS[problem]
        traj = integrate(s, p, h, n_steps)
        with np.errstate(all="ignore"):
            ref = _reference_integrate(s, p, h, n_steps)
        assert traj.times.tolist() == list(ref.times)
        assert traj.blew_up_at == ref.blew_up_at
        assert [y.tobytes() for y in traj.states] == [y.tobytes() for y in ref.states]
        assert [y.shape for y in traj.states] == [y.shape for y in ref.states]


class TestProbeMatchesReference:
    """zero_stability_probe advances a run of more than one feature and its
    twin as two rows of one state, runs a one-feature twin only as far as
    the clean run goes, and takes its gaps in one array reduction; its
    per-step gaps, ratio and blow-up step must equal those of the reference,
    which integrates both runs for all n_steps and loops over state pairs,
    also when the clean and the noisy run blow up at different steps and
    the gaps stop at the shorter run.  The trajectory it returns must be
    integrate's, byte for byte."""

    # alphas=[10]: the noisy run, shifted by 1e6, overflows 5 steps before
    # the clean one, which starts at 2.5.
    BLOW_UP_FIRST = dict(alphas=[10.0], beta=0.0, problem="constant", eps=1e6,
                         h=0.1, n_steps=400, seed=1)
    # The same on the oscillator, whose clean row runs on past the blow-up
    # of its twin's row.
    ROW_BLOWS_UP_FIRST = dict(alphas=[10.0], beta=1.0, problem="oscillator", eps=1e6,
                              h=0.1, n_steps=400, seed=1)

    @settings(max_examples=80, deadline=None)
    @given(
        alphas=st.lists(
            st.one_of(st.floats(-10.0, 10.0), st.sampled_from([10.0, -10.0])),
            min_size=1,
            max_size=3,
        ),
        beta=st.floats(-2.0, 2.0),
        problem=st.sampled_from(sorted(_PROBLEMS)),
        eps=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        h=st.floats(1e-3, 0.5),
        n_steps=st.integers(1, 400),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(**BLOW_UP_FIRST)
    @example(**ROW_BLOWS_UP_FIRST)
    @example(alphas=[-10.0, 10.0], beta=1.0, problem="oscillator", eps=1e3,
             h=0.1, n_steps=400, seed=7)
    def test_equal_to_reference(self, alphas, beta, problem, eps, h, n_steps, seed):
        s = Scheme(alphas, beta)
        p = _PROBLEMS[problem]
        # Two finite states of opposite sign near the overflow threshold
        # overflow the subtraction in both rules alike.
        with np.errstate(over="ignore"):
            traj, got = zero_stability_probe(s, p, eps, h, n_steps, seed)
            want = reference.zero_stability_probe(s, p, eps, h, n_steps, seed)
        assert got.per_step == want.per_step
        assert got.initial_gap == want.initial_gap
        assert got.ratio == want.ratio
        assert got.blew_up_at == want.blew_up_at
        clean = integrate(s, p, h, n_steps)
        assert traj.states.tobytes() == clean.states.tobytes()
        assert traj.states.shape == clean.states.shape
        assert traj.times.tobytes() == clean.times.tobytes()
        assert traj.blew_up_at == clean.blew_up_at

    @staticmethod
    def _blow_ups(case) -> Trajectory:
        """The clean run of ``case``, whose twin blows up first."""
        s = Scheme(case["alphas"], case["beta"])
        p = _PROBLEMS[case["problem"]]
        clean, series = zero_stability_probe(
            s, p, case["eps"], case["h"], case["n_steps"], case["seed"]
        )
        assert clean.blew_up_at is not None
        assert series.blew_up_at < clean.blew_up_at
        assert len(series.per_step) < len(clean.states)
        return clean

    def test_example_runs_blow_up_at_different_steps(self):
        self._blow_ups(self.BLOW_UP_FIRST)

    def test_clean_row_runs_on_past_the_twins_blow_up(self):
        clean = self._blow_ups(self.ROW_BLOWS_UP_FIRST)
        assert clean.states.shape[1] == 2
        assert np.isfinite(clean.states).all()


class TestStepTimes:
    """The rhs is the recurrence's f: step ``step`` calls it at
    t_start + (d - 1 + step) * h, computed by numpy a chunk of steps at a
    time, and that time must be the one Python computes, bit for bit and as
    a Python float, on both sides of every chunk boundary."""

    @staticmethod
    def _recorded(run, dim: int, t_start: float, d: int):
        """The times at which ``run(scheme, problem)`` called the rhs.  The
        seeds come from the exact solution, so every call is a step's."""
        seen = []

        def rhs(t, y):
            seen.append(t)
            return -y

        p = IVPProblem(
            rhs=rhs, t_start=t_start, initial_states=(np.ones(dim),),
            exact_solution=lambda t: np.ones(dim),
        )
        run(Scheme([1.0 / d] * d, 1.0), p)
        return seen

    @staticmethod
    def _want(t_start: float, h: float, d: int, n_steps: int) -> list[str]:
        return [(t_start + (d - 1 + step) * h).hex() for step in range(n_steps)]

    _CASES = dict(
        t_start=st.floats(-1e6, -1e-6),
        # Steps of many significant bits, whose multiples round.
        h=st.floats(1e-6, 0.1).filter(lambda h: h.as_integer_ratio()[0].bit_length() > 40),
        d=st.integers(1, 4),
        k=st.integers(1, 2),
        offset=st.sampled_from([-1, 0, 1]),
        dim=st.sampled_from([1, 2]),
    )

    @settings(max_examples=24, deadline=None)
    @given(**_CASES)
    def test_integrate(self, t_start, h, d, k, offset, dim):
        n_steps = k * ivp._TIME_CHUNK + offset
        seen = self._recorded(lambda s, p: integrate(s, p, h, n_steps), dim, t_start, d)
        assert all(type(t) is float for t in seen)
        assert [t.hex() for t in seen] == self._want(t_start, h, d, n_steps)

    @settings(max_examples=24, deadline=None)
    @given(**_CASES)
    def test_probe(self, t_start, h, d, k, offset, dim):
        # The row-wise check calls the rhs before the run; with it off, every
        # call is a step's.  A one-feature run and its twin run one after the
        # other, and the twin steps through the same times.
        n_steps = k * ivp._TIME_CHUNK + offset
        with mock.patch.object(ivp, "_check_row_wise", lambda rhs, t, y: None):
            seen = self._recorded(
                lambda s, p: zero_stability_probe(s, p, 1e-3, h, n_steps), dim, t_start, d
            )
        assert all(type(t) is float for t in seen)
        runs = 2 if dim == 1 else 1
        assert [t.hex() for t in seen] == self._want(t_start, h, d, n_steps) * runs
