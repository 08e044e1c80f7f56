"""Depth-wise feature propagation with scheme coefficients.

Blocks are dense maps (weights, rectifier, standardization to zero mean /
unit variance, bounded output scale) standing in for trained convolutional
blocks; zero stability concerns the recurrence between blocks, not the
operator inside them.  Noise on the input plays the role of a perturbed
initial value, and the gap between a clean and a noisy run is the
observable that the root condition predicts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ._table import csv_table
from .schemes import Scheme, _recur, root_condition

__all__ = [
    "BlockMap",
    "NoiseSpec",
    "PropagationReport",
    "SweepCell",
    "SweepReport",
    "make_block",
    "propagate",
    "inject_noise",
    "robustness_sweep",
    "growth_rate",
    "compare_propagations",
    "lipschitz_estimate",
]

_STD_FLOOR = 1e-12


@dataclass(frozen=True)
class BlockMap:
    """One nonlinear block: y -> scale * standardize(relu(W @ y)).

    Standardization (zero mean, unit variance per feature vector) bounds
    the output regardless of the input magnitude, which is what makes the
    composite map Lipschitz over any sampled region; the measured constant
    is available via lipschitz_estimate.
    """

    width: int
    weights: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.width, self.width):
            raise ValueError("weights must be width x width")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return _standardize(np.maximum(self.weights @ y, 0.0), self.scale)


def _standardize(v: np.ndarray, scale: float) -> np.ndarray:
    """scale * (v - mean) / std along the last axis; rows whose std is
    below the floor map to zeros."""
    mean = np.mean(v, axis=-1, keepdims=True)
    std = np.std(v, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = scale * (v - mean) / std
    return np.where(std < _STD_FLOOR, 0.0, out)


def make_block(seed: int, width: int, scale: float = 1.0) -> BlockMap:
    """Deterministic block for (seed, width) with unit-scale random weights."""
    if width < 1:
        raise ValueError("width must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((width, width)) / math.sqrt(width)
    return BlockMap(width=width, weights=weights, scale=scale)


def lipschitz_estimate(
    block: BlockMap, n_pairs: int = 1000, seed: int = 0, box: float = 2.0
) -> float:
    """Empirical Lipschitz ratio of the block over sampled point pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        y = rng.uniform(-box, box, block.width)
        yh = rng.uniform(-box, box, block.width)
        denom = float(np.linalg.norm(y - yh))
        if denom == 0.0:
            continue
        ratio = float(np.linalg.norm(block(y) - block(yh))) / denom
        worst = max(worst, ratio)
    return worst


@dataclass(frozen=True)
class NoiseSpec:
    """Input perturbation: uniform(lo, hi), gaussian(sigma), or constant(mu).

    With ``clip`` set, features are clamped to [0, 1] after injection,
    mirroring pixel-range clipping of dirty inputs.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    sigma: float = 0.0
    mu: float = 0.0
    clip: bool = False

    def __post_init__(self):
        if self.kind not in ("uniform", "gaussian", "constant", "none"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "uniform" and self.lo > self.hi:
            raise ValueError("uniform noise needs lo <= hi")
        if self.kind == "gaussian" and self.sigma < 0:
            raise ValueError("gaussian noise needs sigma >= 0")

    @staticmethod
    def uniform(lo: float, hi: float, clip: bool = False) -> "NoiseSpec":
        return NoiseSpec(kind="uniform", lo=lo, hi=hi, clip=clip)

    @staticmethod
    def gaussian(sigma: float, clip: bool = False) -> "NoiseSpec":
        return NoiseSpec(kind="gaussian", sigma=sigma, clip=clip)

    @staticmethod
    def constant(mu: float, clip: bool = False) -> "NoiseSpec":
        return NoiseSpec(kind="constant", mu=mu, clip=clip)

    @staticmethod
    def none() -> "NoiseSpec":
        return NoiseSpec(kind="none")

    def label(self) -> str:
        if self.kind == "uniform":
            return f"uniform[{self.lo:g},{self.hi:g}]"
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma:g})"
        if self.kind == "constant":
            return f"constant(mu={self.mu:g})"
        return "none"

    def parameter(self) -> float:
        if self.kind == "uniform":
            return self.hi - self.lo
        if self.kind == "gaussian":
            return self.sigma
        if self.kind == "constant":
            return self.mu
        return 0.0


def inject_noise(y: np.ndarray, spec: NoiseSpec, seed: int) -> np.ndarray:
    """Add the specified noise to ``y``; deterministic for a fixed seed.

    Gaussian noise is sigma times a standard draw from the seeded
    generator, so for one seed the injected noise scales monotonically
    with sigma.
    """
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    if spec.kind == "uniform":
        out = y + rng.uniform(spec.lo, spec.hi, y.shape)
    elif spec.kind == "gaussian":
        out = y + spec.sigma * rng.standard_normal(y.shape)
    elif spec.kind == "constant":
        out = y + spec.mu
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
    h: float = 1.0,
) -> tuple[np.ndarray, list[np.ndarray], Optional[int]]:
    """Iterate y_{n+1} = sum_i alpha_i y_{n-i} + h*beta*B_n(y_n) to ``depth``.

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
        s.alphas, h * s.beta, states, depth, lambda n, y: blocks[n % len(blocks)](y)
    )
    return states[-1], states, int(blew) or None


@dataclass(frozen=True)
class PropagationReport:
    """Gap evolution between two propagations of the same scheme."""

    per_depth_gap: tuple[float, ...]
    final_gap: float
    growth_slope: Optional[float]
    blew_up_at: Optional[int] = None


def compare_propagations(
    s: Scheme,
    blocks: Sequence,
    init_a: Sequence[np.ndarray],
    init_b: Sequence[np.ndarray],
    depth: int,
    h: float = 1.0,
    fit_from: Optional[int] = None,
) -> PropagationReport:
    """Propagate two initializations and report per-depth sup-norm gaps.

    ``growth_slope`` is the least-squares slope of log gap against depth,
    fitted from ``fit_from`` (default: halfway) onward over positive finite
    gaps; None when fewer than 10 such gaps exist.
    """
    _, hist_a, blew_a = propagate(s, blocks, init_a, depth, h)
    _, hist_b, blew_b = propagate(s, blocks, init_b, depth, h)
    gaps = tuple(float(np.max(np.abs(a - b))) for a, b in zip(hist_a, hist_b))
    blew_up_at = min((b for b in (blew_a, blew_b) if b is not None), default=None)

    start = fit_from if fit_from is not None else len(gaps) // 2
    final_gap = gaps[-1] if blew_up_at is None else math.inf
    return PropagationReport(
        per_depth_gap=gaps,
        final_gap=final_gap,
        growth_slope=_log_slope(gaps, start),
        blew_up_at=blew_up_at,
    )


def _log_slope(gaps: Sequence[float], start: int) -> Optional[float]:
    """Least-squares slope of log gap against depth over the positive gaps
    from index ``start`` on; None when fewer than 10 remain."""
    usable = [(i, g) for i, g in enumerate(gaps) if i >= start and g > 0]
    if len(usable) < 10:
        return None
    xs = np.asarray([i for i, _ in usable], dtype=float)
    ys = np.log([g for _, g in usable])
    return float(np.polyfit(xs, ys, 1)[0])


def growth_rate(s: Scheme, depth: int, width: int = 8, seed: int = 0) -> float:
    """Log-gap slope per depth under a disabled activation path.

    With the blocks outputting zero the gap follows the pure linear
    recurrence, so the slope estimates log(dominant root modulus); checked
    in tests against the companion-matrix oracle.
    """
    if depth < 20:
        raise ValueError("depth must be >= 20")
    rng = np.random.default_rng(seed)
    # Independent per-state perturbations so every characteristic mode is
    # excited (equal seed states would sit in the principal-root direction).
    noisy = []
    for _ in range(s.order):
        v = rng.standard_normal(width)
        noisy.append(v / np.max(np.abs(v)))
    # A clean run started at zero stays exactly zero under zero blocks, so
    # the clean-vs-noisy gap is the noisy state's sup norm.
    _recur(s.alphas, s.beta, noisy, depth, lambda n, y: 0.0)
    slope = _log_slope([float(np.max(np.abs(y))) for y in noisy], depth // 2)
    if slope is None:
        raise RuntimeError("not enough finite gaps to fit a growth slope")
    return slope


@dataclass(frozen=True)
class SweepCell:
    scheme: Scheme
    zero_stable: bool
    noise: NoiseSpec
    mean_gap: float
    std_gap: float
    blew_up_fraction: float


@dataclass(frozen=True)
class SweepReport:
    """Mean/std of final clean-vs-noisy gaps per (scheme, noise) cell.

    Cells keep the caller's scheme order; zero-stable labeling comes from
    the root condition so grouping in summaries is mechanical.
    """

    cells: tuple[SweepCell, ...]
    depth: int
    width: int
    trials: int
    seed: int

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

    def rows(self) -> Iterator[tuple]:
        """One tuple of ``CSV_COLUMNS`` values per cell, unformatted.

        ``scheme_id`` numbers the distinct (alphas, beta) pairs in order of
        first appearance; ``alphas`` is the scheme's tuple.
        """
        scheme_ids: dict[tuple, int] = {}
        for cell in self.cells:
            s = cell.scheme
            yield (
                scheme_ids.setdefault((s.alphas, s.beta), len(scheme_ids)),
                s.alphas,
                s.beta,
                cell.zero_stable,
                cell.noise.kind,
                float(cell.noise.parameter()),
                cell.mean_gap,
                cell.std_gap,
                cell.blew_up_fraction,
            )

    def to_csv(self) -> str:
        return csv_table(self.CSV_COLUMNS, self.rows())

    def group_means(self) -> dict[bool, float]:
        """Mean of cell means per zero-stability group (inf-aware)."""
        groups: dict[bool, list[float]] = {True: [], False: []}
        for cell in self.cells:
            groups[cell.zero_stable].append(cell.mean_gap)
        return {
            flag: (float(np.mean(vals)) if vals else math.nan)
            for flag, vals in groups.items()
        }


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
    to evaluation order.  The block at depth n of trial t is
    ``make_block(block_seed_t + n, width)``.

    All runs advance together through one recurrence whose state has shape
    (trials, schemes, 1 + specs, width): index 0 on the third axis is the
    clean run, computed once per (trial, scheme).  Schemes of lower order
    are zero-padded to the largest order, which leaves their arithmetic
    unchanged.  Each depth draws that depth's block for every trial just
    before applying them as one batched matmul, so ``make_block`` is called
    trials x depth times (fewer only if every run blows up before the last
    depth) and at most one depth's weights are held at a time.  A noisy
    input identical to the clean one gets gap 0 and the clean run's blow-up
    status by construction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")

    block_seeds = []
    inputs = []  # per trial: the clean input, then one noisy input per spec
    for t in range(trials):
        base = np.random.default_rng([seed, t])
        clean = base.uniform(0.0, 1.0, width)
        block_seeds.append(int(base.integers(0, 2**31)))
        noise_seed = int(base.integers(0, 2**31))
        inputs.append([clean] + [inject_noise(clean, spec, noise_seed) for spec in specs])
    same_input = np.array(
        [[np.array_equal(noisy, row[0]) for noisy in row[1:]] for row in inputs],
        dtype=bool,
    ).reshape(trials, 1, len(specs))

    order = max((s.order for s in schemes), default=1)
    alphas = np.zeros((len(schemes), order))
    for i, s in enumerate(schemes):
        alphas[i, : s.order] = s.alphas
    betas = np.array([s.beta for s in schemes])
    state = np.repeat(np.array(inputs)[:, None], len(schemes), axis=1)
    history = deque([state] * order, maxlen=order)

    def blocks(n: int, y: np.ndarray) -> np.ndarray:
        weights = np.stack([make_block(b + n, width).weights for b in block_seeds])
        # One call that makes a matrix-vector product per run: numpy runs
        # each on the BLAS gemv kernel that BlockMap uses, so every run equals
        # its 1-D propagation bit for bit.  A matrix-matrix product sums in
        # another order, and the blocks amplify that rounding with depth.
        v = weights[:, None] @ y.reshape(trials, -1, width, 1)
        return _standardize(np.maximum(v[..., 0], 0.0), 1.0).reshape(y.shape)

    blew = _recur(
        [a[:, None, None] for a in alphas.T],
        betas[:, None, None],
        history,
        depth,
        blocks,
    ) > 0

    stability = [root_condition(s).zero_stable for s in schemes]
    cells: list[SweepCell] = []
    with np.errstate(all="ignore"):
        final = history[-1]
        gaps = np.max(np.abs(final[:, :, 1:] - final[:, :, :1]), axis=-1)
        blown = blew[:, :, 1:] | blew[:, :, :1]
        gaps = np.where(same_input, 0.0, gaps)
        blown = np.where(same_input, blew[:, :, :1], blown)
        gaps = np.where(blown, math.inf, gaps)
        for i, (s, zero_stable) in enumerate(zip(schemes, stability)):
            for k, spec in enumerate(specs):
                finite = [float(g) for g in gaps[:, i, k] if math.isfinite(g)]
                cells.append(
                    SweepCell(
                        scheme=s,
                        zero_stable=zero_stable,
                        noise=spec,
                        mean_gap=float(np.mean(finite)) if finite else math.inf,
                        std_gap=float(np.std(finite)) if finite else math.inf,
                        blew_up_fraction=int(np.sum(blown[:, i, k])) / trials,
                    )
                )
    return SweepReport(
        cells=tuple(cells), depth=depth, width=width, trials=trials, seed=seed
    )
