"""Multistep integration of initial-value problems.

Alongside plain integration this module probes zero stability empirically
(integrating a perturbed twin and measuring the sup-norm gap) and estimates
convergence order from global-error decay on a list of step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ._table import csv_table
from .schemes import Scheme, _recur

__all__ = [
    "IVPProblem",
    "Trajectory",
    "DivergenceSeries",
    "OrderEstimate",
    "integrate",
    "startup_states",
    "zero_stability_probe",
    "convergence_order",
    "decay_problem",
    "constant_problem",
    "oscillator_problem",
    "PRESETS",
]

RHS = Callable[[float, np.ndarray], np.ndarray]


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


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced discrete solution.

    ``blew_up_at`` is the first step index whose state was non-finite;
    integration stops there.  Blow-up is data (it is what instability looks
    like), not an exception.
    """

    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]
    step_size: float
    blew_up_at: Optional[int] = None

    CSV_COLUMNS = ("n", "t", "y")

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def rows(self) -> Iterator[tuple]:
        """(n, t, state) per step; the 1-d state spreads into y0..y{dim-1}."""
        return zip(range(len(self.times)), self.times, self.states)

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.rows())


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

    CSV_COLUMNS = ("n", "gap")

    def rows(self) -> Iterator[tuple]:
        """(n, gap) per step."""
        return enumerate(self.per_step)

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.rows())


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log(global error) against log(h)."""

    order: float
    step_sizes: tuple[float, ...]
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


def integrate(s: Scheme, p: IVPProblem, h: float, n_steps: int) -> Trajectory:
    """Run the explicit recurrence for n_steps, yielding d + n_steps states.

    The d seed states come from startup_states and the steps from the
    shared loop ``schemes._recur``.  Non-finite states stop the run and set
    ``blew_up_at`` on the result.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    d = s.order
    states = startup_states(p, h, d)

    def f(step: int, y: np.ndarray) -> np.ndarray:
        t_n = p.t_start + (d - 1 + step) * h
        return np.atleast_1d(np.asarray(p.rhs(t_n, y), dtype=float))

    blew = int(_recur(s.alphas, h * s.beta, states, n_steps, f))
    # State q sits at t_start + q*h; after the seeds the time is the previous
    # step's time plus h, as the step itself computes it.
    times = tuple(
        p.t_start + q * h if q < d else (p.t_start + (q - 1) * h) + h
        for q in range(len(states))
    )
    return Trajectory(
        times=times,
        states=tuple(states),
        step_size=h,
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
    eps: float,
    h: float,
    n_steps: int,
    seed: int = 1,
) -> DivergenceSeries:
    """Integrate twice, the second time with all seed states shifted by eps.

    The shift is eps times a fixed seeded random unit direction, applied to
    every seed state, so runs are reproducible.  Gaps are sup-norm per step;
    the initial gap is the largest gap over the d seed states.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    d = s.order
    seed_states = startup_states(p, h, d)
    direction = _unit_direction(p.dimension, seed)
    shifted = [y + eps * direction for y in seed_states]

    clean_problem = IVPProblem(p.rhs, p.t_start, p.t_end, tuple(seed_states))
    noisy_problem = IVPProblem(p.rhs, p.t_start, p.t_end, tuple(shifted))
    clean = integrate(s, clean_problem, h, n_steps)
    noisy = integrate(s, noisy_problem, h, n_steps)

    gaps = tuple(
        float(np.max(np.abs(a - b))) for a, b in zip(clean.states, noisy.states)
    )
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
    errors = []
    for h in h_list:
        n_steps = int(round(span / h)) - (s.order - 1)
        n_steps = max(n_steps, 1)
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
        step_sizes=tuple(h_list),
        errors=tuple(errors),
        rounding_limited=rounding_limited,
    )


def decay_problem(t_end: float = 1.0, y0: float = 1.0) -> IVPProblem:
    """dy/dt = -y with exact solution y0 * exp(-t)."""
    return IVPProblem(
        rhs=lambda t, y: -y,
        t_start=0.0,
        t_end=t_end,
        initial_states=(np.array([y0]),),
        exact_solution=lambda t: np.array([y0 * math.exp(-t)]),
    )


def constant_problem(t_end: float = 1.0, value: float = 1.0) -> IVPProblem:
    """dy/dt = 0; the solution is the constant initial value."""
    return IVPProblem(
        rhs=lambda t, y: np.zeros_like(y),
        t_start=0.0,
        t_end=t_end,
        initial_states=(np.array([value]),),
        exact_solution=lambda t: np.array([value]),
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
