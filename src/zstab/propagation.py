"""Depth-wise feature propagation with scheme coefficients.

Blocks are dense maps (weights, rectifier, standardization to zero mean /
unit variance) standing in for trained convolutional blocks; zero
stability concerns the recurrence between blocks, not the operator inside
them.  Noise on the input plays the role of a perturbed initial value, and
the gap between a clean and a noisy run is the observable that the root
condition predicts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from ._lazy import np
from ._table import csv_table
from .schemes import Scheme, _recur, root_condition

__all__ = [
    "BlockMap",
    "NoiseSpec",
    "NOISE_KINDS",
    "SweepReport",
    "make_block",
    "propagate",
    "inject_noise",
    "robustness_sweep",
    "growth_rate",
    "MAX_SWEEP_WEIGHTS",
    "MAX_SWEEP_BLOCKS",
    "MAX_SWEEP_STATE",
    "MAX_SWEEP_WORK",
]

_STD_FLOOR = 1e-12

# A sweep asking for more than any of these is rejected before anything is
# drawn.  The most block weights it may draw, depth x trials x width^2; one
# depth's blocks, trials x width^2 weights, are held at once.
MAX_SWEEP_WEIGHTS = 2**25
# The most blocks it may draw, depth x trials, each one generator set up.
MAX_SWEEP_BLOCKS = 2**13
# The most features in its state, trials x schemes x (1 + specs) x width;
# the recurrence holds a few such states at once.
MAX_SWEEP_STATE = 2**25
# The most work in its recurrence, depth x trials x schemes x (1 + specs) x
# (width^2 + 2^10): a run's step is a width x width product plus a fixed cost
# that measured about as much as 2^10 of its multiply-adds.  At the 0.3-0.43
# ns a unit measured at widths 1 to 256 (2-vCPU host), the largest sweep it
# admits runs in about a minute.
MAX_SWEEP_WORK = 2**37


@dataclass(frozen=True)
class BlockMap:
    """One nonlinear block: y -> standardize(relu(W @ y)).

    Standardization (zero mean, unit variance per feature vector) bounds
    the output regardless of the input magnitude, which is what makes the
    composite map Lipschitz over any sampled region.
    """

    width: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.width, self.width):
            raise ValueError("weights must be width x width")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        v = np.maximum(self.weights @ y, 0.0)
        _standardize(v)
        return v


def _standardize(v: np.ndarray) -> None:
    """Replace ``v`` by (v - mean) / std along the last axis, in place; rows
    whose std is below the floor become zeros.

    The std is sqrt(mean((v - mean)^2)), the operations ``np.std`` makes, so
    the result equals the allocating (v - mean) / std bit for bit.
    """
    v -= np.mean(v, axis=-1, keepdims=True)
    std = np.sqrt(np.mean(v * v, axis=-1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        v /= std
    np.copyto(v, 0.0, where=std < _STD_FLOOR)


def _draw_weights(seed: int, out: np.ndarray) -> None:
    """Fill the square ``out`` with the block weights for ``seed``: standard
    normal draws over sqrt(width), so unit-scale."""
    np.random.default_rng(seed).standard_normal(out=out)
    out /= math.sqrt(out.shape[-1])


def make_block(seed: int, width: int) -> BlockMap:
    """Deterministic block for (seed, width) with unit-scale random weights."""
    if width < 1:
        raise ValueError("width must be >= 1")
    weights = np.empty((width, width))
    _draw_weights(seed, weights)
    return BlockMap(width=width, weights=weights)


# Each noise kind and the names of its parameters, in the order that its
# ``kind:value...`` text gives them.
NOISE_KINDS = {
    "none": (),
    "gaussian": ("sigma",),
    "constant": ("mu",),
    "uniform": ("lo", "hi"),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Input perturbation: uniform(lo, hi), gaussian(sigma), constant(mu) or
    none, with ``params`` the numbers its kind names in ``NOISE_KINDS``.

    With ``clip`` set, features are clamped to [0, 1] after injection,
    mirroring pixel-range clipping of dirty inputs.
    """

    kind: str
    params: tuple[float, ...] = ()
    clip: bool = False

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if len(self.params) != len(NOISE_KINDS[self.kind]):
            raise ValueError(
                f"{self.kind} noise takes {len(NOISE_KINDS[self.kind])} parameters, "
                f"got {len(self.params)}"
            )
        # The width too: the uniform draw overflows on a range past the float max.
        if not all(map(math.isfinite, (*self.params, self.parameter()))):
            raise ValueError("noise parameters and the uniform range must be finite")
        if self.kind == "uniform" and self.params[0] > self.params[1]:
            raise ValueError("uniform noise needs lo <= hi")
        if self.kind == "gaussian" and self.params[0] < 0:
            raise ValueError("gaussian noise needs sigma >= 0")

    @staticmethod
    def parse(text: str, clip: bool = False) -> "NoiseSpec":
        """The spec that ``kind:value...`` names: a kind of ``NOISE_KINDS``,
        then one number per parameter that it names."""
        kind, *fields = text.split(":")
        if kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {kind!r}")
        try:
            params = tuple(map(float, fields))
        except ValueError as exc:  # a field that is not a number
            raise ValueError(f"malformed noise spec {text!r}") from exc
        if len(params) != len(NOISE_KINDS[kind]):
            raise ValueError(f"malformed noise spec {text!r}")
        return NoiseSpec(kind, params, clip)

    def parameter(self) -> float:
        """The uniform width, else the one parameter, else 0."""
        if self.kind == "uniform":
            lo, hi = self.params
            return hi - lo
        return self.params[0] if self.params else 0.0


def inject_noise(y: np.ndarray, spec: NoiseSpec, seed: int) -> np.ndarray:
    """Add the specified noise to ``y``; deterministic for a fixed seed.

    Gaussian noise is sigma times a standard draw from the seeded
    generator, so for one seed the injected noise scales monotonically
    with sigma.
    """
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    # Noise near the float limit overflows to inf, an input that then
    # blows up, not a warning.
    with np.errstate(over="ignore"):
        if spec.kind == "uniform":
            out = y + rng.uniform(*spec.params, y.shape)
        elif spec.kind == "gaussian":
            out = y + spec.params[0] * rng.standard_normal(y.shape)
        elif spec.kind == "constant":
            out = y + spec.params[0]
        else:
            out = y.copy()
    if spec.clip:
        out = np.clip(out, 0.0, 1.0)
    return out


def propagate(
    s: Scheme,
    blocks: Sequence,
    init_states: Sequence[np.ndarray],
    depth: int,
) -> tuple[np.ndarray, list[np.ndarray], Optional[int]]:
    """Iterate y_{n+1} = sum_i alpha_i y_{n-i} + beta*B_n(y_n) to ``depth``.

    Returns (final state, full state history, blow-up depth or None); the
    run stops at the first depth whose state is not finite.  ``blocks``
    supplies one callable per depth (it is cycled if shorter).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    d = s.order
    states = [np.asarray(y, dtype=float) for y in init_states]
    if len(states) != d:
        raise ValueError(f"need exactly {d} initial states, got {len(states)}")
    if not blocks:
        raise ValueError("need at least one block")

    blew = _recur(
        s.alphas, s.beta, states, depth, lambda n, y: blocks[n % len(blocks)](y)
    )
    return states[-1], states, int(blew) or None


def _log_slope(gaps: Sequence[float], start: int) -> Optional[float]:
    """Least-squares slope of log gap against depth over the positive gaps
    from index ``start`` on; None when fewer than 10 remain."""
    usable = [(i, g) for i, g in enumerate(gaps) if i >= start and g > 0]
    if len(usable) < 10:
        return None
    xs = np.asarray([i for i, _ in usable], dtype=float)
    ys = np.log([g for _, g in usable])
    return float(np.polyfit(xs, ys, 1)[0])


def growth_rate(s: Scheme, depth: int) -> float:
    """Log-gap slope per depth under a disabled activation path.

    With the blocks outputting zero the gap follows the pure linear
    recurrence, so the slope estimates log(dominant root modulus); checked
    in tests against the companion-matrix oracle.  Where the gaps overflow
    before enough of them are finite to fit the slope, ValueError.
    """
    if depth < 20:
        raise ValueError("depth must be >= 20")
    rng = np.random.default_rng(0)
    # Independent per-state perturbations of 8 features, so every
    # characteristic mode is excited (equal seed states would sit in the
    # principal-root direction).
    noisy = []
    for _ in range(s.order):
        v = rng.standard_normal(8)
        noisy.append(v / np.max(np.abs(v)))
    # A clean run started at zero stays exactly zero under zero blocks, so
    # the clean-vs-noisy gap is the noisy state's sup norm.
    _recur(s.alphas, s.beta, noisy, depth, lambda n, y: 0.0)
    slope = _log_slope([float(np.max(np.abs(y))) for y in noisy], depth // 2)
    if slope is None:
        raise ValueError("not enough finite gaps to fit a growth slope")
    return slope


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Final clean-vs-noisy gap statistics per (scheme, noise) cell, as
    read-only arrays.

    ``schemes`` and ``specs`` keep the caller's order.  ``zero_stable`` holds
    each scheme's root-condition verdict, shape (schemes,), so grouping in
    summaries is mechanical.  ``mean_gap`` and ``std_gap`` hold the mean and
    standard deviation of a cell's finite trial gaps (inf when none is
    finite) and ``blew_up_fraction`` the share of its trials that blew up,
    each of shape (schemes, specs).  A table row is one cell, schemes
    outermost.
    """

    schemes: tuple[Scheme, ...]
    specs: tuple[NoiseSpec, ...]
    zero_stable: np.ndarray
    mean_gap: np.ndarray
    std_gap: np.ndarray
    blew_up_fraction: np.ndarray

    CSV_COLUMNS = (
        "scheme_id",
        "alphas",
        "beta",
        "zero_stable",
        "noise_kind",
        "noise_param",
        "mean_gap",
        "std_gap",
        "blew_up_fraction",
    )

    def columns(self) -> tuple[Sequence, ...]:
        """The ``CSV_COLUMNS``, one value per cell.

        ``scheme_id`` numbers the distinct (alphas, beta) pairs in order of
        first appearance; ``alphas`` holds each scheme's tuple.
        """
        n_schemes, n_specs = len(self.schemes), len(self.specs)
        scheme_ids: dict[tuple, int] = {}
        ids = [scheme_ids.setdefault((s.alphas, s.beta), len(scheme_ids)) for s in self.schemes]
        betas = np.array([s.beta for s in self.schemes], dtype=float)
        params = np.array([spec.parameter() for spec in self.specs], dtype=float)
        return (
            np.repeat(np.array(ids, dtype=int), n_specs),
            [s.alphas for s in self.schemes for _ in self.specs],
            np.repeat(betas, n_specs),
            np.repeat(self.zero_stable, n_specs),
            [spec.kind for spec in self.specs] * n_schemes,
            np.tile(params, n_schemes),
            self.mean_gap.ravel(),
            self.std_gap.ravel(),
            self.blew_up_fraction.ravel(),
        )

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.columns())

    def group_means(self) -> dict[bool, float]:
        """Mean of cell means per zero-stability group; a sum past the float max is inf."""
        means = {}
        for flag in (True, False):
            gaps = self.mean_gap[self.zero_stable == flag].ravel()
            with np.errstate(over="ignore"):
                means[flag] = float(np.mean(gaps)) if gaps.size else math.nan
        return means


def robustness_sweep(
    schemes: Sequence[Scheme],
    specs: Sequence[NoiseSpec],
    depth: int,
    width: int,
    trials: int,
    seed: int = 1,
) -> SweepReport:
    """Clean-vs-noisy final gap statistics for every (scheme, noise) pair.

    Per trial, one clean input in [0, 1], one block seed and one noise seed
    are drawn from ``default_rng([seed, t])`` only, so every scheme and
    noise spec sees identical inputs and blocks and the sweep is invariant
    to evaluation order.  The block at depth n of trial t holds the weights
    of ``make_block(block_seed_t + n, width)``.

    All runs advance together through one recurrence whose state has shape
    (trials, schemes, 1 + specs, width): index 0 on the third axis is the
    clean run, computed once per (trial, scheme).  Schemes of lower order
    are zero-padded to the largest order, which leaves their arithmetic
    unchanged.  Each depth draws that depth's block for every trial with
    ``_draw_weights`` just before applying them as one batched matmul, so it
    is called trials x depth times (fewer only if every run blows up before
    the last depth).  The draws and the products go into two buffers made
    once per sweep, one depth's weights (trials x width^2) and one
    product per run, which every depth reuses.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if depth * trials * width * width > MAX_SWEEP_WEIGHTS:
        raise ValueError(
            f"sweep draws more than {MAX_SWEEP_WEIGHTS} block weights "
            "(depth x trials x width^2)"
        )
    if depth * trials > MAX_SWEEP_BLOCKS:
        raise ValueError(
            f"sweep draws more than {MAX_SWEEP_BLOCKS} blocks (depth x trials)"
        )
    runs = len(schemes) * (1 + len(specs))
    if trials * runs * width > MAX_SWEEP_STATE:
        raise ValueError(
            f"sweep state holds more than {MAX_SWEEP_STATE} features "
            "(trials x schemes x (1 + specs) x width)"
        )
    if depth * trials * runs * (width * width + 2**10) > MAX_SWEEP_WORK:
        raise ValueError(
            f"sweep does more than {MAX_SWEEP_WORK} units of work "
            "(depth x trials x schemes x (1 + specs) x (width^2 + 2^10))"
        )

    block_seeds = []
    inputs = []  # per trial: the clean input, then one noisy input per spec
    for t in range(trials):
        base = np.random.default_rng([seed, t])
        clean = base.uniform(0.0, 1.0, width)
        block_seeds.append(int(base.integers(0, 2**31)))
        noise_seed = int(base.integers(0, 2**31))
        inputs.append([clean] + [inject_noise(clean, spec, noise_seed) for spec in specs])

    order = max((s.order for s in schemes), default=1)
    alphas = np.zeros((len(schemes), order))
    for i, s in enumerate(schemes):
        alphas[i, : s.order] = s.alphas
    betas = np.array([s.beta for s in schemes])
    state = np.repeat(np.array(inputs)[:, None], len(schemes), axis=1)
    history = deque([state] * order, maxlen=order)

    weights = np.empty((trials, width, width))
    product = np.empty((trials, runs, width, 1))
    v = product[..., 0]

    def blocks(n: int, y: np.ndarray) -> np.ndarray:
        for t, b in enumerate(block_seeds):
            _draw_weights(b + n, weights[t])
        # One call that makes a matrix-vector product per run: numpy runs
        # each on the BLAS gemv kernel that BlockMap uses, so every run equals
        # its 1-D propagation bit for bit.  A matrix-matrix product sums in
        # another order, and the blocks amplify that rounding with depth.
        np.matmul(weights[:, None], y.reshape(product.shape), out=product)
        np.maximum(v, 0.0, out=v)
        _standardize(v)
        # _recur reads the result into a new state before the next call.
        return v.reshape(y.shape)

    blew = _recur(
        [a[:, None, None] for a in alphas.T],
        betas[:, None, None],
        history,
        depth,
        blocks,
    ) > 0

    zero_stable = np.array([root_condition(s).zero_stable for s in schemes], dtype=bool)
    with np.errstate(all="ignore"):
        final = history[-1]
        gaps = np.max(np.abs(final[:, :, 1:] - final[:, :, :1]), axis=-1)
        blown = blew[:, :, 1:] | blew[:, :, :1]
        # (schemes, specs, trials): each cell's trials in one contiguous row.
        gaps = np.ascontiguousarray(np.moveaxis(np.where(blown, math.inf, gaps), 0, -1))
        mean_gap = np.full(gaps.shape[:2], math.inf)
        std_gap = np.full(gaps.shape[:2], math.inf)
        # Cell by cell, over its finite trials alone: where some trials blew
        # up, a reduction along the trials axis would sum in another order.
        for cell in np.ndindex(mean_gap.shape):
            finite = gaps[cell][np.isfinite(gaps[cell])]
            if finite.size:
                mean_gap[cell] = np.mean(finite)
                std_gap[cell] = np.std(finite)
    blew_up_fraction = np.count_nonzero(blown, axis=0) / trials
    for column in (zero_stable, mean_gap, std_gap, blew_up_fraction):
        column.flags.writeable = False
    return SweepReport(
        tuple(schemes), tuple(specs), zero_stable, mean_gap, std_gap, blew_up_fraction
    )
