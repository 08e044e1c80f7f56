"""Multistep integration of initial-value problems.

Alongside plain integration this module probes zero stability empirically
(integrating a perturbed twin and measuring the sup-norm gap) and estimates
convergence order from global-error decay on a list of step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ._lazy import np
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

# dy/dt = rhs(t, y).  A one-feature rhs is called with y as a Python float
# and returns a number.  An array rhs maps each row of a (rows, dim) state as
# it maps a (dim,) state, bit for bit: zero_stability_probe advances a run
# and its twin as the two rows of one state, and rejects an rhs that mixes
# them.  The array type is a string, so that this alias loads no numpy.
RHS = Callable[[float, "float | np.ndarray"], "float | np.ndarray"]

# The most steps one integration may run; a run asking for more is rejected
# before anything is allocated.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class IVPProblem:
    """dy/dt = rhs(t, y) from t_start on, with seed states at t_start + q*h.

    ``initial_states`` may hold fewer states than a scheme needs; the
    missing ones are bootstrapped (see startup_states).  When
    ``exact_solution`` is present it is preferred for seeding and enables
    convergence-order estimation.
    """

    rhs: RHS
    t_start: float
    initial_states: tuple[np.ndarray, ...]
    exact_solution: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        states = tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in self.initial_states)
        if not states:
            raise ValueError("at least one initial state is required")
        dim = states[0].shape
        if any(s.shape != dim for s in states):
            raise ValueError("initial states must share one dimension")
        if states[0].ndim != 1 or not states[0].size:
            raise ValueError("initial states must be vectors of at least one feature")
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


def _rk4_step(rhs: RHS, t: float, y, h: float):
    k1 = rhs(t, y)
    k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
    k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def startup_states(p: IVPProblem, h: float, d: int) -> list[np.ndarray]:
    """Seed states y(t_start + q*h), q = 0..d-1, as arrays of the state's shape.

    Sampled from the exact solution when available, otherwise bootstrapped
    with the classical fourth-order one-step method so startup error does
    not dominate the multistep error, on Python floats for one feature.  A
    seed that overflows is data, as a state of the run is.
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
    y = states[-1].item() if p.dimension == 1 else states[-1]
    with np.errstate(all="ignore"):
        while len(states) < d:
            y = _rk4_step(p.rhs, t, y, h)
            states.append(np.array(y, dtype=float, ndmin=1))
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


def _runs(
    s: Scheme, p: IVPProblem, h: float, seeds: list[np.ndarray], n_steps: int
) -> list[Trajectory]:
    """Run the recurrence for n_steps from the d ``seeds``, each of shape
    (dim,) for one run or (rows, dim) for that many runs advanced together,
    and return one read-only Trajectory per run, cut before its first
    non-finite state.  A one-feature run is on Python floats, with the bits
    of a run on arrays.  The rhs is called once per step.
    """
    d, dim = s.order, p.dimension
    rhs, t_start = p.rhs, p.t_start
    history = [seed.item() for seed in seeds] if dim == 1 else list(seeds)
    blew = _recur(
        s.alphas, h * s.beta, history, n_steps,
        lambda step, y: rhs(t_start + (d - 1 + step) * h, y),
    )
    # State q sits at t_start + q*h; after the seeds the time is the previous
    # step's time plus h, as the step itself computes it.
    q = np.arange(len(history), dtype=float)
    with np.errstate(over="ignore"):
        times = np.where(q < d, t_start + q * h, (t_start + (q - 1.0) * h) + h)
    times.flags.writeable = False
    # One copy into a (states, rows, dim) array; np.stack would first make a
    # view of every state.  The history is freed with this frame.
    flat = np.array(history, dtype=float) if dim == 1 else np.concatenate(history)
    states = flat.reshape(len(history), -1, dim)
    runs = []
    for row, row_blew in enumerate(np.ravel(blew).tolist()):
        stop = d - 1 + row_blew if row_blew else len(history)
        # A row of stacked runs is a strided view; copied, it has the bytes
        # of a run of its own.
        run = np.ascontiguousarray(states[:stop, row])
        run.flags.writeable = False
        runs.append(Trajectory(times[:stop], run, stop if row_blew else None))
    return runs


def _check_row_wise(rhs: RHS, t: float, y: np.ndarray) -> None:
    """Raise ValueError unless the rhs at the stacked rows ``y`` has the
    bits of the rhs at each row on its own."""
    with np.errstate(all="ignore"):  # as inside the loop
        value = rhs(t, y)
        rows = [rhs(t, row) for row in y]
    try:
        stacked = np.broadcast_to(np.asarray(value, dtype=float), y.shape)
        one_by_one = np.stack(
            [np.broadcast_to(np.asarray(r, dtype=float), row.shape) for r, row in zip(rows, y)]
        )
        row_wise = stacked.tobytes() == one_by_one.tobytes()
    except ValueError:  # a value that does not broadcast to the state
        row_wise = False
    if not row_wise:
        raise ValueError(
            "the rhs must map each row of a (rows, dim) state as it maps a (dim,) state"
        )


def integrate(s: Scheme, p: IVPProblem, h: float, n_steps: int) -> Trajectory:
    """Run the explicit recurrence for n_steps, yielding d + n_steps states.

    The d seed states come from startup_states and the steps from the
    shared loop ``schemes._recur``.  Non-finite states stop the run and set
    ``blew_up_at`` on the result.  A one-feature run is computed on Python
    floats (see ``_runs``).
    """
    d = s.order
    _check_steps(p, h, d, n_steps)
    [run] = _runs(s, p, h, startup_states(p, h, d), n_steps)
    return run


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
) -> tuple[Trajectory, DivergenceSeries]:
    """Integrate the problem and a twin whose seed states are shifted by eps.

    Returns the clean run, byte for byte ``integrate(s, p, h, n_steps)``,
    and the divergence of the twin from it.  The shift is eps times a fixed
    seeded random unit direction, applied to every seed state, so runs are
    reproducible.  Each run stops at its own blow-up: the gaps stop at the
    shorter run, and a blow-up of either makes the ratio inf.  Gaps are
    sup-norm per step; the initial gap is the largest gap over the d seed
    states, or nan where one of them is nan.  An eps that changes no seed
    state (an initial gap of 0) raises ValueError before any step runs.

    A run of more than one feature and its twin advance together, as the
    two rows of one (2, dim) state.  The rhs must therefore map each row of
    a (rows, dim) state as it maps a (dim,) state; one that does not is
    rejected with ValueError before any step runs.  A one-feature run is on
    Python floats, which do not stack: it runs first, and then its twin.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    d = s.order
    _check_steps(p, h, d, n_steps)
    seeds = startup_states(p, h, d)
    with np.errstate(all="ignore"):  # a shifted seed that overflows is data
        shift = eps * _unit_direction(p.dimension, seed)
        shifted = [y + shift for y in seeds]
        # nan, from seeds that overflowed alike, is not 0 and runs on.
        if np.max(np.abs(np.subtract(shifted, seeds))) == 0.0:
            raise ValueError(f"eps={eps!r} shifts no seed state: the twin would be the clean run")
    if p.dimension == 1:
        [clean], [twin] = _runs(s, p, h, seeds, n_steps), _runs(s, p, h, shifted, n_steps)
    else:
        rows = [np.stack(pair) for pair in zip(seeds, shifted)]
        _check_row_wise(p.rhs, p.t_start + (d - 1) * h, rows[-1])
        clean, twin = _runs(s, p, h, rows, n_steps)

    # The gaps cover the steps both runs have before their blow-ups.  Two
    # finite states of opposite sign near the float max are a gap of inf,
    # and two seeds that overflowed alike a gap of nan, which numpy's max
    # keeps wherever it sits (Python's drops one that follows a number).
    m = min(len(clean.states), len(twin.states))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.max(np.abs(clean.states[:m] - twin.states[:m]), axis=1)
    initial_gap = float(gaps[:d].max())
    blew = [run.blew_up_at for run in (clean, twin) if run.blew_up_at is not None]
    ratio = float(gaps.max()) / initial_gap if initial_gap > 0 and not blew else math.inf
    return clean, DivergenceSeries(
        per_step=tuple(gaps.tolist()), initial_gap=initial_gap, ratio=ratio,
        blew_up_at=min(blew, default=None),
    )


def convergence_order(
    s: Scheme, p: IVPProblem, h_list: Sequence[float], t_end: float
) -> OrderEstimate:
    """Fit the order from global errors at t_end over the given step sizes."""
    if p.exact_solution is None:
        raise ValueError("convergence_order needs an exact solution")
    if not (p.t_start < t_end):
        raise ValueError("t_start must be below t_end")
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes")
    if not all(0.0 < h < math.inf for h in h_list):
        raise ValueError("step sizes must be positive and finite")
    if len(set(h_list)) < len(h_list):
        raise ValueError("step sizes must be distinct")

    span = t_end - p.t_start
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


def decay_problem() -> IVPProblem:
    """dy/dt = -y, y(0) = 1, with exact solution exp(-t)."""
    return IVPProblem(
        rhs=lambda t, y: -y,
        t_start=0.0,
        initial_states=(np.array([1.0]),),
        exact_solution=lambda t: np.array([math.exp(-t)]),
    )


def constant_problem() -> IVPProblem:
    """dy/dt = 0, y(0) = 1; the solution is the constant 1."""
    return IVPProblem(
        rhs=lambda t, y: 0.0,
        t_start=0.0,
        initial_states=(np.array([1.0]),),
        exact_solution=lambda t: np.array([1.0]),
    )


def oscillator_problem() -> IVPProblem:
    """Planar rotation y' = (-y2, y1); exact solution (cos t, sin t)."""
    matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
    # y @ matrix.T maps each row of a (rows, 2) state; its products are
    # exact, so a (2,) state gets the bits of matrix @ y.
    transpose = matrix.T.copy()
    return IVPProblem(
        rhs=lambda t, y: y @ transpose,
        t_start=0.0,
        initial_states=(np.array([1.0, 0.0]),),
        exact_solution=lambda t: np.array([math.cos(t), math.sin(t)]),
    )


PRESETS: dict[str, Callable[[], IVPProblem]] = {
    "decay": decay_problem,
    "constant": constant_problem,
    "oscillator": oscillator_problem,
}
