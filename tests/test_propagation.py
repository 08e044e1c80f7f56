import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import zstab.propagation as propagation
from zstab.propagation import (
    BlockMap,
    NoiseSpec,
    SweepReport,
    growth_rate,
    inject_noise,
    make_block,
    propagate,
    robustness_sweep,
)
from zstab.schemes import Scheme, first_order, root_condition
from zstab.table8 import REFERENCE_ROWS
from zstab.zerosnet import zerosnet_coeffs

from reference import compare_propagations, lipschitz_estimate, standardize


class _Zero:
    def __call__(self, y):
        return np.zeros_like(y)


def _reference_sweep(schemes, specs, depth, width, trials, seed=1):
    """The sweep as one clean and one noisy 1-D propagation per (scheme,
    spec, trial), with the same per-trial seeding as robustness_sweep: the
    arrays ``zero_stable``, ``mean_gap``, ``std_gap`` and
    ``blew_up_fraction`` of its report."""
    trial_inputs = []
    trial_blocks = []
    trial_noise_seeds = []
    for t in range(trials):
        base = np.random.default_rng([seed, t])
        trial_inputs.append(base.uniform(0.0, 1.0, width))
        block_seed_base = int(base.integers(0, 2**31))
        trial_blocks.append(
            [make_block(block_seed_base + n, width) for n in range(depth)]
        )
        trial_noise_seeds.append(int(base.integers(0, 2**31)))

    shape = (len(schemes), len(specs))
    mean_gap, std_gap, blew_up_fraction = np.empty(shape), np.empty(shape), np.empty(shape)
    for i, s in enumerate(schemes):
        for k, spec in enumerate(specs):
            gaps = []
            blew = 0
            for t in range(trials):
                clean_input = trial_inputs[t]
                noisy_input = inject_noise(clean_input, spec, trial_noise_seeds[t])
                report = compare_propagations(
                    s,
                    trial_blocks[t],
                    [clean_input.copy() for _ in range(s.order)],
                    [noisy_input.copy() for _ in range(s.order)],
                    depth,
                )
                if report.blew_up_at is not None:
                    blew += 1
                gaps.append(report.final_gap)
            finite = [g for g in gaps if math.isfinite(g)]
            mean_gap[i, k] = float(np.mean(finite)) if finite else math.inf
            std_gap[i, k] = float(np.std(finite)) if finite else math.inf
            blew_up_fraction[i, k] = blew / trials
    zero_stable = np.array([root_condition(s).zero_stable for s in schemes], dtype=bool)
    return zero_stable, mean_gap, std_gap, blew_up_fraction


def _arrays(report):
    return report.zero_stable, report.mean_gap, report.std_gap, report.blew_up_fraction


def _assert_arrays_equal(got, want):
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b, strict=True)


class TestBlockMap:
    def test_deterministic(self):
        a = make_block(1, 8)
        b = make_block(1, 8)
        assert np.array_equal(a.weights, b.weights)
        y = np.linspace(0, 1, 8)
        assert np.array_equal(a(y), b(y))

    def test_pure(self):
        block = make_block(3, 8)
        y = np.linspace(0, 1, 8)
        assert np.array_equal(block(y), block(y + 0.0))

    def test_standardized_output(self):
        block = make_block(7, 16)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = block(rng.uniform(-1, 1, 16))
            if np.any(out):
                assert abs(np.mean(out)) < 1e-9
                assert abs(np.var(out) - 1.0) < 1e-6

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            BlockMap(width=4, weights=np.zeros((4, 3)))
        with pytest.raises(ValueError):
            make_block(0, 0)

    def test_lipschitz_finite(self):
        ell = lipschitz_estimate(make_block(1, 8), n_pairs=1000, seed=0)
        assert math.isfinite(ell)
        assert ell > 0


class TestStandardize:
    """The in-place ``_standardize`` against the allocating formula, bit for
    bit."""

    @staticmethod
    def _assert_bits_equal(v):
        want = standardize(v)
        got = v.copy()
        propagation._standardize(got)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("shape", [(8,), (3, 16), (2, 5, 3, 64)])
    def test_random_states(self, shape):
        rng = np.random.default_rng(len(shape))
        self._assert_bits_equal(rng.standard_normal(shape))
        # Rectified, as the blocks standardize them.
        self._assert_bits_equal(np.maximum(rng.standard_normal(shape) * 1e3, 0.0))

    def test_degenerate_rows(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((6, 16))
        v[1] = 0.25  # std 0
        v[2] = 0.0
        v[3, 5] = math.inf
        v[4, 7] = math.nan
        v[5, :2] = (math.inf, -math.inf)
        with np.errstate(all="ignore"):
            got = self._assert_bits_equal(v)
        assert np.all(got[1:3] == 0.0)
        assert np.all(np.isnan(got[3:]))

    def test_block_leaves_its_input_alone(self):
        block = make_block(5, 16)
        y = np.random.default_rng(1).uniform(-1, 1, 16)
        before = y.copy()
        out = block(y)
        assert y.tobytes() == before.tobytes()
        assert out.tobytes() == standardize(np.maximum(block.weights @ y, 0.0)).tobytes()


class TestPropagate:
    def test_scalar_states(self):
        s = Scheme([0.5, 0.5], 2.0)
        final, history, blew = propagate(s, [lambda y: 0.1 * y], [1.0, 2.0], 3)
        expected = [1.0, 2.0]
        for _ in range(3):
            expected.append(0.5 * expected[-1] + 0.5 * expected[-2] + 0.2 * expected[-1])
        assert blew is None
        assert [float(y) for y in history] == pytest.approx(expected, rel=1e-15)
        _, history, blew = propagate(first_order(1e200), [_Zero()], [1e200], 5)
        assert blew == 1 and len(history) == 1

    def test_linear_recurrence_matches_companion_power(self):
        # With blocks outputting zero the update is the linear recurrence;
        # the stacked state evolves by kron(companion, identity)
        s = Scheme([0.5, 0.3, 0.1], 0.1)
        width = 4
        rng = np.random.default_rng(5)
        init = [rng.standard_normal(width) for _ in range(3)]
        depth = 30
        final, history, blew = propagate(s, [_Zero()], init, depth)
        assert blew is None

        companion = np.zeros((3, 3))
        companion[0, :] = s.alphas
        companion[1:, :-1] = np.eye(2)
        big = np.kron(companion, np.eye(width))
        stacked = np.concatenate([init[2], init[1], init[0]])  # (y_n, y_{n-1}, y_{n-2})
        for _ in range(depth):
            stacked = big @ stacked
        assert np.allclose(final, stacked[:width], rtol=1e-10, atol=1e-12)

    def test_depth_one_consistent_identity(self):
        # Coefficient sum is 1, so with equal seed states one step gives
        # y + (16/9) h B(y)
        s = zerosnet_coeffs(-9 / 5)
        block = make_block(2, 8)
        y = np.linspace(0.1, 0.9, 8)
        final, _, _ = propagate(s, [block], [y, y, y], depth=1)
        assert np.allclose(final, y + (16.0 / 9.0) * block(y), atol=1e-12)

    def test_state_count_validated(self):
        s = zerosnet_coeffs(2.0)
        y = np.zeros(4)
        with pytest.raises(ValueError):
            propagate(s, [_Zero()], [y, y], depth=5)
        with pytest.raises(ValueError):
            propagate(s, [], [y, y, y], depth=5)
        with pytest.raises(ValueError):
            propagate(s, [_Zero()], [y, y, y], depth=0)

    def test_blow_up_flagged(self):
        s = Scheme([-3, 5, -1], 4)
        seeds = [np.full(4, 1e300), np.zeros(4), np.zeros(4)]
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, blew = propagate(s, [_Zero()], seeds, depth=500)
        assert blew is not None


class TestGrowthRate:
    def test_identity_scheme_flat(self):
        assert abs(growth_rate(first_order(1), depth=50)) < 1e-9

    def test_unstable_three_step(self):
        slope = growth_rate(Scheme([1, 1, 1], 1), depth=50)
        assert abs(slope - math.log(1.8392867552141612)) <= 0.02 * math.log(1.84)

    def test_optimal_family_bounded(self):
        slope = growth_rate(zerosnet_coeffs(-9 / 5), depth=50)
        assert slope <= 1e-6

    def test_minimum_depth(self):
        with pytest.raises(ValueError):
            growth_rate(first_order(1), depth=10)

    def test_overflow_leaves_too_few_finite_gaps(self):
        # The gap grows 1e200-fold per step: the run blows up at its second
        # step, before the fit's window from depth 10 on begins.
        with pytest.raises(ValueError, match="not enough finite gaps"):
            growth_rate(Scheme([1e200], 1.0), depth=20)


class TestInjectNoise:
    def test_constant_with_clip(self):
        y = np.full(8, 0.9)
        out = inject_noise(y, NoiseSpec("constant", (0.3,), clip=True), seed=1)
        assert np.all(out == 1.0)

    def test_zero_sigma_noop(self):
        y = np.linspace(0, 1, 8)
        out = inject_noise(y, NoiseSpec("gaussian", (0.0,)), seed=1)
        assert np.array_equal(out, y)

    def test_uniform_reproducible(self):
        y = np.linspace(0, 1, 8)
        spec = NoiseSpec("uniform", (-0.08, 0.0))
        a = inject_noise(y, spec, seed=7)
        b = inject_noise(y, spec, seed=7)
        assert np.array_equal(a, b)
        assert np.all(a <= y) and np.all(a >= y - 0.08)

    def test_clip_idempotent(self):
        y = np.linspace(-0.5, 1.5, 8)
        once = inject_noise(y, NoiseSpec("uniform", (-0.2, 0.2), clip=True), seed=3)
        twice = inject_noise(once, NoiseSpec(kind="none", clip=True), seed=3)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize(
        "text, spec",
        [
            ("none", NoiseSpec(kind="none")),
            ("gaussian:0.25", NoiseSpec("gaussian", (0.25,))),
            ("constant:-1e-3", NoiseSpec("constant", (-1e-3,))),
            ("uniform:-0.5:2", NoiseSpec("uniform", (-0.5, 2.0))),
        ],
        ids=["none", "gaussian", "constant", "uniform"],
    )
    def test_parse_round_trips_each_kind(self, text, spec, clip):
        parsed = NoiseSpec.parse(text, clip)
        assert parsed == NoiseSpec(spec.kind, spec.params, clip)
        assert NoiseSpec.parse(text) == spec  # clip defaults to False
        # The text its parameters print back to parses to the same spec.
        fields = [repr(p) for p in parsed.params]
        assert NoiseSpec.parse(":".join([parsed.kind, *fields]), clip) == parsed

    @pytest.mark.parametrize(
        "text, reason",
        [("salt:1", "unknown noise kind 'salt'"), ("", "unknown noise kind ''"),
         ("gaussian", "malformed"), ("gaussian:0.1:7", "malformed"),
         ("uniform:0:1:2", "malformed"), ("uniform:0", "malformed"),
         ("constant:1:x", "malformed"), ("constant:x", "malformed"),
         ("none:junk", "malformed"), ("none:", "malformed"),
         ("gaussian:-1", "needs sigma >= 0"), ("uniform:1:0", "needs lo <= hi"),
         ("constant:inf", "must be finite")],
    )
    def test_parse_refuses_with_a_reason(self, text, reason):
        with pytest.raises(ValueError, match=reason):
            NoiseSpec.parse(text)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            NoiseSpec("uniform", (0.5, -0.5))
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", (-1.0,))
        with pytest.raises(ValueError):
            NoiseSpec(kind="salt")
        with pytest.raises(ValueError, match="^gaussian noise takes 1 parameters, got 2$"):
            NoiseSpec("gaussian", (1.0, 2.0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NoiseSpec("uniform", (0.0, math.inf)),
            lambda: NoiseSpec("uniform", (-math.inf, 0.0)),
            lambda: NoiseSpec("uniform", (math.nan, 1.0)),
            lambda: NoiseSpec("gaussian", (math.inf,)),
            lambda: NoiseSpec("gaussian", (math.nan,)),
            lambda: NoiseSpec("constant", (math.nan,)),
            lambda: NoiseSpec("constant", (math.inf,)),
            lambda: NoiseSpec("uniform", (-1e308, 1e308)),
        ],
        ids=["uniform-hi-inf", "uniform-lo-inf", "uniform-lo-nan", "gaussian-inf",
             "gaussian-nan", "constant-nan", "constant-inf", "uniform-range-overflow"],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_labels_and_parameters(self):
        assert NoiseSpec("uniform", (-0.08, 0.0)).parameter() == 0.08
        assert NoiseSpec("constant", (0.1,)).parameter() == 0.1
        assert NoiseSpec("none").parameter() == 0.0


class TestRobustnessSweep:
    def test_noise_free_zero_gap(self):
        report = robustness_sweep(
            [first_order(1), zerosnet_coeffs(-9 / 5)],
            [NoiseSpec("none")],
            depth=10,
            width=8,
            trials=2,
        )
        assert report.mean_gap.shape == (2, 1)
        assert np.all(report.mean_gap == 0.0)

    def test_stable_beats_unstable(self):
        report = robustness_sweep(
            [Scheme([1, 1, 1], 1), zerosnet_coeffs(-9 / 5)],
            [NoiseSpec("gaussian", (0.02,))],
            depth=56,
            width=16,
            trials=2,
        )
        assert report.zero_stable.tolist() == [False, True]
        (unstable,), (stable,) = report.mean_gap.tolist()
        assert stable * 5 <= unstable

    def test_monotone_in_sigma(self):
        specs = [NoiseSpec("gaussian", (s,)) for s in (0.01, 0.02, 0.04)]
        report = robustness_sweep(
            [zerosnet_coeffs(-9 / 5)], specs, depth=30, width=16, trials=3
        )
        (gaps,) = report.mean_gap.tolist()
        assert gaps[0] <= gaps[1] <= gaps[2]

    def test_deterministic(self):
        args = ([first_order(1)], [NoiseSpec("gaussian", (0.02,))], 15, 8, 2)
        a = robustness_sweep(*args, seed=9)
        b = robustness_sweep(*args, seed=9)
        assert a.schemes == b.schemes and a.specs == b.specs
        _assert_arrays_equal(_arrays(a), _arrays(b))

    def test_csv_columns(self):
        report = robustness_sweep(
            [first_order(1)], [NoiseSpec("gaussian", (0.02,))], depth=10, width=8, trials=1
        )
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == list(SweepReport.CSV_COLUMNS)
        assert rows[1][4] == "gaussian"
        assert float(rows[1][5]) == 0.02

    def test_csv_of_a_scheme_given_list_alphas(self):
        report = robustness_sweep(
            [Scheme([0.5, 0.5], 1.5)], [NoiseSpec("none")], depth=4, width=4, trials=1
        )
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert len(rows) == 2
        assert rows[1][:4] == ["0", "0.5;0.5", "1.5", "true"]

    def test_group_means(self):
        report = robustness_sweep(
            [first_order(1), first_order(2)],
            [NoiseSpec("constant", (0.01,))],
            depth=20,
            width=8,
            trials=1,
        )
        means = report.group_means()
        assert means[True] < means[False] or math.isinf(means[False])

    def test_validation(self):
        with pytest.raises(ValueError):
            robustness_sweep([first_order(1)], [NoiseSpec("none")], 10, 8, 0)
        with pytest.raises(ValueError):
            robustness_sweep([first_order(1)], [NoiseSpec("none")], 0, 8, 1)

    @staticmethod
    def _recorded_draws(monkeypatch, depth, trials):
        """(seed, out data address) of every block draw of a small sweep.
        Each ``out`` is kept alive, so that a buffer made per depth could not
        take the address of one freed before it."""
        draws = []
        outs = []
        draw = propagation._draw_weights

        def recording(block_seed, out):
            draws.append((block_seed, out.__array_interface__["data"][0]))
            outs.append(out)
            draw(block_seed, out)

        monkeypatch.setattr(propagation, "_draw_weights", recording)
        robustness_sweep(
            [first_order(1), zerosnet_coeffs(-9 / 5), Scheme([0.5, 0.5], 1)],
            [NoiseSpec("none"), NoiseSpec("gaussian", (0.02,))],
            depth=depth,
            width=8,
            trials=trials,
        )
        return draws

    def test_one_block_per_trial_and_depth(self, monkeypatch):
        draws = self._recorded_draws(monkeypatch, depth=7, trials=3)
        assert len(draws) == 3 * 7
        bases = []
        for t in range(3):  # as robustness_sweep draws them: input, then block seed
            base = np.random.default_rng([1, t])
            base.uniform(0.0, 1.0, 8)
            bases.append(int(base.integers(0, 2**31)))
        assert {s for s, _ in draws} == {b + n for b in bases for n in range(7)}

    def test_sweep_reuses_one_weights_buffer(self, monkeypatch):
        draws = self._recorded_draws(monkeypatch, depth=9, trials=4)
        assert len(draws) == 4 * 9
        assert len({address for _, address in draws}) <= 4

    def test_identical_noisy_input_gives_exact_zero_gap(self):
        # The non-zero-stable rows reach gaps of ~1e33 at this size, so a
        # last-bit difference between two equal runs would show.
        specs = [
            NoiseSpec("none"),
            NoiseSpec("gaussian", (0.02,)),
            NoiseSpec("constant", (0.0,)),
            NoiseSpec("gaussian", (0.0,)),
        ]
        report = robustness_sweep(
            [row.scheme for row in REFERENCE_ROWS],
            specs,
            depth=56,
            width=64,
            trials=3,
            seed=4,
        )
        assert report.mean_gap.max() > 1e20
        assert np.all(report.blew_up_fraction == 0.0)
        silent = [spec.parameter() == 0.0 for spec in specs]
        assert np.all(report.mean_gap[:, silent] == 0.0)
        assert np.all(report.std_gap[:, silent] == 0.0)

    def test_identical_noisy_input_shares_clean_blow_up(self):
        report = robustness_sweep(
            [Scheme([10, 10, 10], 1), first_order(1)],
            [NoiseSpec("gaussian", (0.1,)), NoiseSpec("none")],
            depth=320,
            width=8,
            trials=2,
        )
        assert report.blew_up_fraction.tolist() == [[1.0, 1.0], [0.0, 0.0]]
        assert math.isinf(report.mean_gap[0, 1])
        assert report.mean_gap[1, 1] == report.std_gap[1, 1] == 0.0

    def test_blow_up_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = robustness_sweep(
                [Scheme([10, 10, 10], 1), zerosnet_coeffs(-9 / 5)],
                [NoiseSpec("gaussian", (0.1,))],
                depth=320,
                width=16,
                trials=2,
            )
            seeds = [np.full(4, 1e300), np.zeros(4), np.zeros(4)]
            _, _, blew = propagate(Scheme([-3, 5, -1], 4), [_Zero()], seeds, 500)
        assert report.blew_up_fraction.tolist() == [[1.0], [0.0]]
        assert blew is not None

    def test_overflowing_noise_raises_no_warning(self):
        # sigma * a standard draw overflows on some features: those inputs
        # are infinite and their trials blow up.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = robustness_sweep(
                [first_order(1)], [NoiseSpec("gaussian", (1e308,))], depth=3, width=4, trials=9
            )
        assert report.blew_up_fraction.tolist() == [[5 / 9]]

    def test_size_budget(self, monkeypatch):
        monkeypatch.setattr(propagation, "_draw_weights", None)  # nothing may be drawn
        monkeypatch.setattr(propagation, "inject_noise", None)
        with pytest.raises(ValueError, match="block weights"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")], depth=1, trials=1,
                width=math.isqrt(propagation.MAX_SWEEP_WEIGHTS) + 1,
            )
        with pytest.raises(ValueError, match="block weights"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")], depth=1, width=1,
                trials=propagation.MAX_SWEEP_WEIGHTS + 1,
            )
        with pytest.raises(ValueError, match="blocks"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")], depth=1, width=1,
                trials=propagation.MAX_SWEEP_BLOCKS + 1,
            )
        with pytest.raises(ValueError, match="blocks"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")], depth=propagation.MAX_SWEEP_BLOCKS,
                width=1, trials=2,
            )
        # Within the weight and block budgets, but one run of width features
        # over the state's.
        width = 2**12
        runs = propagation.MAX_SWEEP_STATE // width
        with pytest.raises(ValueError, match="state"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")] * runs, depth=1, width=width,
                trials=1,
            )
        # Within the other three budgets, a sweep that would take hours: one
        # scheme, 2^19 - 1 specs, depth 2^13 at width 64.
        with pytest.raises(ValueError, match="work"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")] * (2**19 - 1), depth=2**13, width=64,
                trials=1,
            )

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(propagation, "_draw_weights", None)  # nothing may be drawn
        monkeypatch.setattr(propagation, "inject_noise", None)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            robustness_sweep(
                [first_order(1)], [NoiseSpec("none")], depth=2, width=2, trials=1, seed=-1,
            )

    def test_work_budget_admits_table8_sweep_far_inside(self):
        # The Table 8 sweep of the benchmark: ten schemes, five specs.
        work = 56 * 5 * 10 * (1 + 5) * (64 * 64 + 2**10)
        assert work * 1000 < propagation.MAX_SWEEP_WORK

    def test_rows_number_each_scheme_once(self):
        a, b = first_order(1), zerosnet_coeffs(-9 / 5)
        report = robustness_sweep(
            [a, b, a],
            [NoiseSpec("none"), NoiseSpec("gaussian", (0.02,))],
            depth=5,
            width=8,
            trials=1,
        )
        columns = report.columns()
        assert columns[0].tolist() == [0, 0, 1, 1, 0, 0]
        assert len(columns) == len(SweepReport.CSV_COLUMNS)
        assert all(len(c) == 6 for c in columns)
        assert isinstance(columns[1], list) and isinstance(columns[4], list)
        # Row 3 is the second scheme's second spec.
        assert tuple(c[3] for c in columns[1:]) == (
            b.alphas, b.beta, report.zero_stable[1], "gaussian", 0.02,
            report.mean_gap[1, 1], report.std_gap[1, 1], report.blew_up_fraction[1, 1],
        )
        assert report.zero_stable.shape == (3,)
        for values in _arrays(report)[1:]:
            assert values.shape == (3, 2)
        for values in _arrays(report):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0


_NOISE_CHOICES = (
    NoiseSpec("none"),
    NoiseSpec("gaussian", (0.0,)),
    NoiseSpec("constant", (0.0,)),
    NoiseSpec("gaussian", (0.02,)),
    NoiseSpec("uniform", (-0.1, 0.1), clip=True),
    NoiseSpec("constant", (0.05,)),
)

_schemes = st.lists(
    st.builds(
        Scheme,
        st.lists(
            st.one_of(st.floats(-2.5, 2.5), st.sampled_from([10.0, -10.0])),
            min_size=1,
            max_size=4,
        ),
        st.floats(-2.0, 2.0),
    ),
    min_size=1,
    max_size=3,
)


class TestSweepMatchesReference:
    """The batched sweep against one 1-D propagation per (scheme, spec,
    trial).  The engine makes the same matrix-vector products as the
    per-trial path, so the arrays are expected to be equal, not just close."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schemes=_schemes,
        specs=st.lists(st.sampled_from(_NOISE_CHOICES), min_size=1, max_size=3),
        depth=st.integers(1, 320),
        width=st.integers(4, 64),
        trials=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    @example(
        schemes=[Scheme([10, 10, 10], 1), first_order(1), Scheme([0.5, 0.5], 1)],
        specs=[NoiseSpec("gaussian", (0.02,)), NoiseSpec("none")],
        depth=320,
        width=16,
        trials=2,
        seed=1,
    )
    # Cells where some trials blow up, the noisy input having overflowed:
    # 5 of 9 in the first, 9 of 24 in the second.  Over 8 values np.mean
    # sums in another order, and the second leaves 15 finite trials, whose
    # mean a sum over all 24 with the blown ones as 0 misses by an ulp.
    @example(
        schemes=[first_order(1)],
        specs=[NoiseSpec("gaussian", (1e308,))],
        depth=3,
        width=4,
        trials=9,
        seed=1,
    )
    @example(
        schemes=[Scheme([1e-300], 1), zerosnet_coeffs(-9 / 5)],
        specs=[NoiseSpec("gaussian", (1e308,)), NoiseSpec("gaussian", (0.02,))],
        depth=2,
        width=4,
        trials=24,
        seed=1,
    )
    def test_cells_equal_reference(self, schemes, specs, depth, width, trials, seed):
        report = robustness_sweep(schemes, specs, depth, width, trials, seed)
        with np.errstate(all="ignore"):
            reference = _reference_sweep(schemes, specs, depth, width, trials, seed)
        assert report.schemes == tuple(schemes) and report.specs == tuple(specs)
        _assert_arrays_equal(_arrays(report), reference)
        zero_stable, mean_gap = reference[:2]
        for flag in (True, False):
            means = [g for stable, row in zip(zero_stable, mean_gap) if stable == flag for g in row]
            want = float(np.mean(means)) if means else math.nan
            np.testing.assert_equal(report.group_means()[flag], want)
