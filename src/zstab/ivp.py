"""Multistep integration of initial-value problems.

Alongside plain integration this module probes zero stability empirically
(integrating a perturbed twin and measuring the sup-norm gap) and estimates
convergence order from global-error decay on a list of step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ._table import csv_table
from .schemes import Scheme, _recur

__all__ = [
    "IVPProblem",
    "Trajectory",
    "DivergenceSeries",
    "OrderEstimate",
    "integrate",
    "MAX_STEPS",
    "startup_states",
    "zero_stability_probe",
    "convergence_order",
    "decay_problem",
    "constant_problem",
    "oscillator_problem",
    "PRESETS",
]

# dy/dt = rhs(t, y).  A one-feature rhs takes y as a Python float as well as
# a 1-element array, and may return a float: integrate hands it the float at
# step 0, and if it returns a float there the whole run is on floats.
RHS = Callable[[float, Union[float, np.ndarray]], Union[float, np.ndarray]]

# The most steps one integration may run; a run asking for more is rejected
# before anything is allocated.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IVPProblem:
    """dy/dt = rhs(t, y) on [t_start, t_end] with seed states at t_start + q*h.

    ``initial_states`` may hold fewer states than a scheme needs; the
    missing ones are bootstrapped (see startup_states).  When
    ``exact_solution`` is present it is preferred for seeding and enables
    convergence-order estimation.
    """

    rhs: RHS
    t_start: float
    t_end: float
    initial_states: tuple[np.ndarray, ...]
    exact_solution: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        if not (self.t_start < self.t_end):
            raise ValueError("t_start must be below t_end")
        states = tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in self.initial_states)
        if not states:
            raise ValueError("at least one initial state is required")
        dim = states[0].shape
        if any(s.shape != dim for s in states):
            raise ValueError("initial states must share one dimension")
        object.__setattr__(self, "initial_states", states)

    @property
    def dimension(self) -> int:
        return int(self.initial_states[0].size)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly spaced discrete solution, as read-only columns.

    ``times`` holds the time of each state and ``states`` the states
    themselves, one row per step of shape (steps, dim); ``len(states)``
    counts them.  ``blew_up_at`` is the first step index whose state was
    non-finite; integration stops there.  Blow-up is data (it is what
    instability looks like), not an exception.
    """

    times: np.ndarray
    states: np.ndarray
    blew_up_at: Optional[int] = None

    CSV_COLUMNS = ("n", "t", "y")

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def columns(self) -> tuple[np.ndarray, ...]:
        """(n, t, state) per step; the state spreads into y0..y{dim-1}."""
        return (np.arange(len(self.states)), self.times, self.states)

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.columns())


@dataclass(frozen=True)
class DivergenceSeries:
    """Per-step sup-norm gap between an unperturbed and a perturbed run.

    ``ratio`` is the observed amplification max_n per_step[n] / initial_gap,
    the empirical constant of the zero-stability bound.  Gaps use the
    infinity norm.
    """

    per_step: tuple[float, ...]
    initial_gap: float
    ratio: float
    blew_up_at: Optional[int] = None


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log(global error) against log(h)."""

    order: float
    errors: tuple[float, ...]
    rounding_limited: bool = False


def _rk4_step(rhs: RHS, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
    k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def startup_states(p: IVPProblem, h: float, d: int) -> list[np.ndarray]:
    """Seed states y(t_start + q*h), q = 0..d-1.

    Sampled from the exact solution when available, otherwise bootstrapped
    with the classical fourth-order one-step method so startup error does
    not dominate the multistep error.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if p.exact_solution is not None:
        return [
            np.atleast_1d(np.asarray(p.exact_solution(p.t_start + q * h), dtype=float))
            for q in range(d)
        ]
    states = [np.array(s, dtype=float) for s in p.initial_states[:d]]
    t = p.t_start + (len(states) - 1) * h
    while len(states) < d:
        states.append(_rk4_step(p.rhs, t, states[-1], h))
        t += h
    return states


def _check_steps(p: IVPProblem, h: float, d: int, n_steps: int) -> None:
    """Reject a run of a d-step scheme that is over the step budget or whose
    time grid overflows, before anything is seeded or integrated."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if n_steps > MAX_STEPS:
        raise ValueError(f"integration needs more than {MAX_STEPS} steps")
    # The last state's time, computed as integrate computes ``times``; every
    # earlier time, and every time the rhs is called at, lies below it.
    last = d - 1 + n_steps
    if not math.isfinite((p.t_start + (last - 1.0) * h) + h):
        raise ValueError(f"the time of state {last} at h={h!r} is not finite")


def integrate(s: Scheme, p: IVPProblem, h: float, n_steps: int) -> Trajectory:
    """Run the explicit recurrence for n_steps, yielding d + n_steps states.

    The d seed states come from startup_states and the steps from the
    shared loop ``schemes._recur``.  Non-finite states stop the run and set
    ``blew_up_at`` on the result.

    A one-element state is handed to the rhs as a Python float at step 0.
    If the rhs returns a float there, every state of the run is a Python
    float; otherwise, and for a state of more elements, the states are
    arrays.  Both give the same bits, and the rhs is called once per step
    either way: step 0's value is computed before the loop and reused.
    """
    d = s.order
    _check_steps(p, h, d, n_steps)
    states = startup_states(p, h, d)

    rhs, t_start = p.rhs, p.t_start
    y = states[-1].item() if states[-1].size == 1 else states[-1]
    with np.errstate(all="ignore"):  # as inside the loop
        first = rhs(t_start + (d - 1) * h, y)
    scalar = isinstance(y, float) and isinstance(first, float)
    if scalar:
        states = [state.item() for state in states]

    def f(step: int, y):
        if step:
            return rhs(t_start + (d - 1 + step) * h, y)
        return first

    blew = int(_recur(s.alphas, h * s.beta, states, n_steps, f))
    # State q sits at t_start + q*h; after the seeds the time is the previous
    # step's time plus h, as the step itself computes it.
    q = np.arange(len(states), dtype=float)
    with np.errstate(over="ignore"):
        times = np.where(q < d, p.t_start + q * h, (p.t_start + (q - 1.0) * h) + h)
    # One copy into a (steps, dim) array; np.stack would first make a view of
    # every state.
    flat = np.array(states, dtype=float) if scalar else np.concatenate(states)
    states = flat.reshape(len(states), -1)
    for column in (times, states):
        column.flags.writeable = False
    return Trajectory(
        times=times,
        states=states,
        blew_up_at=d - 1 + blew if blew else None,
    )


def _unit_direction(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.ones(dim)
        norm = np.linalg.norm(v)
    return v / norm


def zero_stability_probe(
    s: Scheme,
    p: IVPProblem,
    clean: Trajectory,
    eps: float,
    h: float,
    seed: int = 1,
) -> DivergenceSeries:
    """Integrate a twin of ``clean`` whose seed states are shifted by eps.

    ``clean`` is ``integrate(s, p, h, n_steps)``.  The shift is eps times a
    fixed seeded random unit direction, applied to every seed state, so runs
    are reproducible.  The twin runs no further than ``clean`` did: the gaps
    stop at the shorter run, and a blow-up of either makes the ratio inf.
    Gaps are sup-norm per step; the initial gap is the largest gap over the
    d seed states.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    d = s.order
    shifted = clean.states[:d] + eps * _unit_direction(p.dimension, seed)
    noisy_problem = IVPProblem(p.rhs, p.t_start, p.t_end, tuple(shifted))
    noisy = integrate(s, noisy_problem, h, max(len(clean.states) - d, 1))

    # Both runs stop at their own blow-up; the gaps cover the steps both have.
    m = min(len(clean.states), len(noisy.states))
    gaps = tuple(np.max(np.abs(clean.states[:m] - noisy.states[:m]), axis=1).tolist())
    initial_gap = max(gaps[:d])
    blew_up_at = min(
        (t.blew_up_at for t in (clean, noisy) if t.blew_up_at is not None), default=None
    )
    ratio = max(gaps) / initial_gap if initial_gap > 0 else math.inf
    if blew_up_at is not None:
        ratio = math.inf
    return DivergenceSeries(
        per_step=gaps, initial_gap=initial_gap, ratio=ratio, blew_up_at=blew_up_at
    )


def convergence_order(
    s: Scheme, p: IVPProblem, h_list: Sequence[float]
) -> OrderEstimate:
    """Fit the order from global errors at t_end over the given step sizes."""
    if p.exact_solution is None:
        raise ValueError("convergence_order needs an exact solution")
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
    if not all(0.0 < h < math.inf for h in h_list):
        raise ValueError("step sizes must be positive and finite")
    if len(set(h_list)) < len(h_list):
        raise ValueError("step sizes must be distinct")

    span = p.t_end - p.t_start
    # The ratio is capped so that a count past the budget is rejected, not
    # converted (it may be infinite).
    runs = [
        max(round(min(span / h, MAX_STEPS + s.order)) - (s.order - 1), 1) for h in h_list
    ]
    for h, n_steps in zip(h_list, runs):
        _check_steps(p, h, s.order, n_steps)
    errors = []
    for h, n_steps in zip(h_list, runs):
        traj = integrate(s, p, h, n_steps)
        if traj.blew_up_at is not None:
            errors.append(math.inf)
            continue
        exact = np.atleast_1d(np.asarray(p.exact_solution(traj.times[-1]), dtype=float))
        errors.append(float(np.max(np.abs(traj.final_state() - exact))))

    rounding_limited = any(e < 1e-13 for e in errors)
    finite = [(h, e) for h, e in zip(h_list, errors) if math.isfinite(e) and e > 0]
    if len(finite) < 2:
        order = -math.inf
    else:
        logs_h = np.log([h for h, _ in finite])
        logs_e = np.log([e for _, e in finite])
        order = float(np.polyfit(logs_h, logs_e, 1)[0])
    return OrderEstimate(
        order=order,
        errors=tuple(errors),
        rounding_limited=rounding_limited,
    )


def decay_problem(t_end: float = 1.0) -> IVPProblem:
    """dy/dt = -y, y(0) = 1, with exact solution exp(-t)."""
    return IVPProblem(
        rhs=lambda t, y: -y,
        t_start=0.0,
        t_end=t_end,
        initial_states=(np.array([1.0]),),
        exact_solution=lambda t: np.array([math.exp(-t)]),
    )


def constant_problem(t_end: float = 1.0) -> IVPProblem:
    """dy/dt = 0, y(0) = 1; the solution is the constant 1."""
    return IVPProblem(
        rhs=lambda t, y: 0.0 if isinstance(y, float) else np.zeros_like(y),
        t_start=0.0,
        t_end=t_end,
        initial_states=(np.array([1.0]),),
        exact_solution=lambda t: np.array([1.0]),
    )


def oscillator_problem(t_end: float = 1.0) -> IVPProblem:
    """Planar rotation y' = (-y2, y1); exact solution (cos t, sin t)."""
    matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
    return IVPProblem(
        rhs=lambda t, y: matrix @ y,
        t_start=0.0,
        t_end=t_end,
        initial_states=(np.array([1.0, 0.0]),),
        exact_solution=lambda t: np.array([math.cos(t), math.sin(t)]),
    )


PRESETS: dict[str, Callable[..., IVPProblem]] = {
    "decay": decay_problem,
    "constant": constant_problem,
    "oscillator": oscillator_problem,
}
