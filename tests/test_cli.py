import argparse
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zstab
import zstab.cli as cli
from zstab import ivp, propagation, table8
from zstab._table import fmt
from zstab.cli import EXIT_NOT_STABLE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from zstab.propagation import MAX_SWEEP_WEIGHTS, MAX_SWEEP_WORK
from zstab.schemes import Scheme
from zstab.table8 import REFERENCE_ROWS, ReferenceRow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_traced(capsys, *argv):
    """run, plus the peak of the memory the command allocated, in bytes."""
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (*result, peak)


def assert_cheap_rejection(code, out, err, peak):
    """Exit 64 with one stderr line and no stdout, before any allocation
    that the rejected size would have caused."""
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert peak < 2**20


def _short(text):
    """A test id for a text that may be long."""
    return text if len(text) <= 20 else f"{text[:10]}...({len(text)} chars)"


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


class TestAnalyze:
    def test_table_row_one(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alphas", "1,1,1", "--beta", "1")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["zero_stable"] == "false"
        moduli = [round(float(v), 2) for v in pairs["moduli"].split(";")]
        assert moduli == [1.84, 0.74, 0.74]

    def test_degree_161_double_factor_is_quick(self, capsys):
        # (g^2)(r - 1), g of degree 80 with coefficients k/8: every
        # coefficient is exact, so the square-free split runs in full.  It
        # took ~30 s in rational arithmetic; over the integers, ~0.1 s.
        rng = random.Random(0)
        g = [Fraction(1)] + [Fraction(rng.randint(-8, 8), 8) for _ in range(80)]
        poly = [Fraction(0)] * 162
        for i, x in enumerate(g):
            for j, y in enumerate(g):
                poly[i + j] += x * y
                poly[i + j + 1] -= x * y
        alphas = ",".join(repr(float(-c)) for c in poly[1:])
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", f"--alphas={alphas}", "--format", "json")
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (EXIT_OK, "")
        record = json.loads(out)
        assert len(record["moduli"]) == 161 and record["zero_stable"] is False

    def test_sums_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "analyze", "--alphas", "0.0,1e+308,1e+308", "--strict")
        assert (code, err) == (EXIT_NOT_STABLE, "")
        assert kv(out)["sum_alpha"] == "inf"
        code, out, err = run(capsys, "analyze", "--alphas=0,0,1e308,0,-1e308")
        assert (code, err) == (EXIT_OK, "")
        assert kv(out)["moment"] == "inf"

    def test_real_roots_print_no_imaginary_part(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alphas", "0,4,0")
        assert code == EXIT_OK
        assert kv(out)["violations"] == (
            "root 2+0j has modulus 2 > 1;root -2+0j has modulus 2 > 1"
        )

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alphas", "1", "--beta", "1")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["zero_stable"] == "true"
        assert pairs["consistent"] == "true"

    def test_lambda_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "-1.8")
        assert code == EXIT_OK
        pairs = kv(out)
        alphas = [float(v) for v in pairs["alphas"].split(";")]
        assert [round(a, 4) for a in alphas] == [0.3333, 0.5556, 0.1111]
        assert round(float(pairs["beta"]), 4) == 1.7778

    @pytest.mark.parametrize("lam", [4.4e307, 4.5e307, 5e307, 6e307, 1e308, sys.float_info.max])
    def test_huge_lambda_keeps_the_limit(self, capsys, lam):
        # Past |lambda| ~ 4.5e307 4 lambda overflowed: alpha0 and alpha2 came
        # out 0 and the scheme inconsistent, and past ~6e307 not finite.
        for x in (lam, -lam):
            code, out, err = run(capsys, "analyze", f"--lambda={x!r}")
            assert (code, err) == (EXIT_OK, "")
            pairs = kv(out)
            alphas = pairs["alphas"].split(";")
            assert (alphas[0], alphas[2], pairs["beta"]) == ("0.75", "0.25", "1.5")
            assert math.isclose(float(alphas[1]), -1.0 / x, rel_tol=1e-9)
            assert pairs["moduli"] == "1;0.5;0.5"
            assert (pairs["zero_stable"], pairs["consistent"]) == ("true", "true")

    def test_strict_exit_code(self, capsys):
        code, _, _ = run(capsys, "analyze", "--alphas", "2", "--strict")
        assert code == EXIT_NOT_STABLE
        code, _, _ = run(capsys, "analyze", "--alphas", "1", "--strict")
        assert code == EXIT_OK

    def test_malformed_numbers(self, capsys):
        code, _, err = run(capsys, "analyze", "--alphas", "1,zap")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_alphas_and_lambda_exclusive(self, capsys):
        code, _, _ = run(capsys, "analyze", "--alphas", "1", "--lambda", "2")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "analyze")
        assert code == EXIT_USAGE

    def test_roots_past_the_monic_range(self, capsys):
        # In monic form |z|^3 overflows at the root 1e200; the factor scaled
        # by a power of two has its roots found.
        code, out, _ = run(capsys, "analyze", "--alphas", "1e200,1e200,1e200")
        assert code == EXIT_OK
        assert "moduli=1e+200;1;1\nzero_stable=false\n" in out

    @pytest.mark.parametrize("alphas", ["1e308,1e308", "1e300,-1e300,1", "1e300,1e300,1e300"])
    def test_root_finding_failure_is_usage_error(self, capsys, alphas):
        code, out, err = run(capsys, "analyze", "--alphas", alphas)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: root finding did not converge")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "alphas, moduli",
        [
            # r^3 - 1e4 r^2 + r - 0.5: the residual test scaled by |z|^n
            # accepts the root near 1e4.
            ("10000,-1,0.5", [9999.9999, 0.007071067847, 0.007071067847]),
            # r^3 - 1e-20 (r^2 + r + 1): roots of modulus about 1e-20^(1/3),
            # printed as the exact roots' moduli round to 10 digits.
            ("1e-20,1e-20,1e-20", [2.154434845e-07, 2.154434613e-07, 2.154434613e-07]),
        ],
    )
    def test_large_and_tiny_coefficients(self, capsys, alphas, moduli):
        code, out, _ = run(capsys, "analyze", "--alphas", alphas, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["moduli"] == moduli

    def test_json_csv_numeric_parity(self, capsys):
        _, json_out, _ = run(
            capsys, "analyze", "--alphas", "1,1,1", "--beta", "1", "--format", "json"
        )
        _, csv_out, _ = run(
            capsys, "analyze", "--alphas", "1,1,1", "--beta", "1", "--format", "csv"
        )
        blob = json.loads(json_out)
        rows = {r[0]: r[1] for r in csv.reader(io.StringIO(csv_out)) if r[0] != "key"}
        for i, m in enumerate(blob["moduli"]):
            assert float(rows["moduli"].split(";")[i]) == m
        assert float(rows["sum_alpha"]) == blob["sum_alpha"]
        assert float(rows["beta"]) == blob["beta"]

    @pytest.mark.parametrize(
        "argv",
        [("analyze", "--lambda", "-1.8", "--beta", "99"),
         ("integrate", "--lambda", "-1.8", "--beta", "1", "--h", "0.1", "--steps", "3"),
         ("propagate", "--lambda", "-1.8", "--beta", "2", "--noise", "none",
          "--depth", "2", "--width", "2", "--trials", "1")],
        ids=lambda argv: argv[0],
    )
    def test_beta_without_alphas_is_refused(self, capsys, argv):
        # The family fixes its own beta, so --beta would be ignored.
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: --beta is read only with --alphas\n")

    def test_beta_from_config_without_alphas_is_refused(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=99\n")
        code, out, err = run(capsys, "analyze", "--lambda", "-1.8", "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: --beta is read only with --alphas\n")


class TestLambdaScan:
    def test_argmin_summary(self, capsys):
        code, out, err = run(
            capsys, "lambda-scan", "--min", "-3", "--max", "0.5", "--step", "0.1"
        )
        assert code == EXIT_OK
        assert "argmin lambda=-1.8" in err
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "lambda"

    def test_all_stable_interval(self, capsys):
        code, out, _ = run(
            capsys, "lambda-scan", "--min", "0.34", "--max", "5", "--step", "0.1"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows and all(r[6] == "true" for r in rows)

    def test_no_stable_interval(self, capsys):
        code, out, err = run(
            capsys, "lambda-scan", "--min", "-0.99", "--max", "0.33", "--step", "0.1"
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows and all(r[6] == "false" for r in rows)
        assert "no zero-stable" in err

    @pytest.mark.parametrize(
        "bounds", [("--min=1e307", "--max=3e307"), ("--min=-3e307", "--max=-1e307")],
        ids=["positive", "negative"],
    )
    def test_huge_lambdas_keep_the_limit(self, capsys, bounds):
        # The closed form overflowed here: inf (and true) on the positive
        # side, nan on the negative one.  The limit is 1/2.
        code, out, err = run(capsys, "lambda-scan", *bounds, "--step=1e306")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 21 and all(r[5] == "0.5" and r[6] == "true" for r in rows)
        assert err.endswith(" max_modulus=0.5\n")

    @pytest.mark.parametrize(
        "bounds",
        [("--min=4e307", "--max=6e307", "--step=1e307"),
         ("--min=-6e307", "--max=-4e307", "--step=1e307"),
         ("--min=1.797693e308", f"--max={sys.float_info.max!r}", "--step=1e300"),
         (f"--min={-sys.float_info.max!r}", "--max=-1.797693e308", "--step=1e300")],
        ids=["positive", "negative", "to-max", "from-min"],
    )
    def test_huge_lambdas_keep_the_coefficients(self, capsys, bounds):
        # 4 lambda overflowed here: alpha0 and alpha2 were 0, and past ~6e307
        # the scan was a usage error.  The limits are 3/4, 1/4 and 3/2.
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "lambda-scan", *bounds, f"--format={fmt}")
            assert code == EXIT_OK
            assert err.endswith(" max_modulus=0.5\n")
            rows = (
                list(csv.DictReader(io.StringIO(out))) if fmt == "csv" else json.loads(out)
            )
            assert len(rows) >= 3
            for row in rows:
                assert (str(row["alpha0"]), str(row["alpha2"]), str(row["beta"])) == (
                    "0.75", "0.25", "1.5"
                )
                assert str(row["max_modulus"]) == "0.5"

    _MAX = sys.float_info.max
    _NEAR_MAX = _MAX * (1 - 1e-12)

    @pytest.mark.parametrize(
        "lam_min, lam_max, step, rows",
        [(1.7e308, _MAX, 1e306, 10),
         (-_MAX, -1.7e308, 1e306, 10),
         # lam_min / step is within 1e-9 of an integer k, and k * step overflows.
         (-_MAX, -1e308, _MAX / 16.9999999995, 8),
         (_NEAR_MAX, _MAX, _NEAR_MAX / 16.9999999995, 1)],
        ids=["past-max", "from-min", "on-grid-negative", "on-grid-positive"],
    )
    def test_grid_stays_in_the_float_range(self, capsys, lam_min, lam_max, step, rows):
        # A point that overflows to inf, past the end or at an on-grid start,
        # stays out of the grid, and the scan runs.  Every modulus is 1/2,
        # so the argmin is the first point, lam_min.
        code, out, err = run(
            capsys, "lambda-scan", f"--min={lam_min!r}", f"--max={lam_max!r}",
            f"--step={step!r}", "--format=json",
        )
        assert (code, err) == (EXIT_OK, f"argmin lambda={fmt(lam_min)} max_modulus=0.5\n")
        lambdas = [row["lambda"] for row in json.loads(out)]
        assert len(lambdas) == rows
        assert all(lam_min <= lam <= lam_max for lam in lambdas)

    def test_invalid_range(self, capsys):
        code, _, _ = run(
            capsys, "lambda-scan", "--min", "5", "--max", "1", "--step", "0.1"
        )
        assert code == EXIT_USAGE

    def test_grid_without_usable_lambdas(self, capsys):
        # Every grid point lies within the 1e-9 exclusion radius of -1.
        code, out, err = run(
            capsys, "lambda-scan", "--min", "-1", "--max", "-0.9999999999", "--step", "1e-11"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: scan grid contains no usable lambda values\n"

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--min=-inf", "--max=1", "--step=0.1"),
            ("--min=0.5", "--max=inf", "--step=0.1"),
            ("--min=0.5", "--max=1", "--step=1e-320"),
        ],
        ids=["min-inf", "max-inf", "step-subnormal"],
    )
    def test_non_finite_scan_is_usage_error(self, capsys, bounds):
        code, out, err = run(capsys, "lambda-scan", *bounds)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_json_matches_csv(self, capsys):
        args = ("lambda-scan", "--min", "0.4", "--max", "0.8", "--step", "0.1")
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--format", "json")
        rows = list(csv.reader(io.StringIO(csv_out)))[1:]
        blob = json.loads(json_out)
        assert len(rows) == len(blob)
        for row, obj in zip(rows, blob):
            assert float(row[0]) == obj["lambda"]
            assert float(row[5]) == obj["max_modulus"]


class TestTableVerify:
    def test_all_rows_pass(self, capsys):
        code, out, _ = run(capsys, "table-verify")
        assert code == EXIT_OK
        assert out.count("PASS") == 10
        assert "10/10 rows pass" in out

    def test_corrupted_row_fails(self, capsys, monkeypatch):
        rows = list(REFERENCE_ROWS)
        rows[2] = ReferenceRow(Scheme((-3.0, 5.0, -1.0), 4.0), (9.99, 1.00, 0.24), False)
        monkeypatch.setattr(table8, "REFERENCE_ROWS", tuple(rows))
        code, out, _ = run(capsys, "table-verify")
        assert code == EXIT_VERIFY_FAIL
        assert "row 3: FAIL" in out
        assert "9/10 rows pass" in out


class TestIntegrate:
    def test_decay_accuracy(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--lambda", "-1.8", "--preset", "decay",
            "--h", "0.01", "--steps", "100",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        final = float(rows[-1][2])
        t_final = float(rows[-1][1])
        assert abs(final - math.exp(-t_final)) < 1e-3

    def test_probe_divergence(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--alphas", "2", "--beta", "1", "--preset", "constant",
            "--h", "0.1", "--steps", "20", "--probe", "1e-3",
        )
        assert code == EXIT_OK
        assert "diverged" in err

    @staticmethod
    def _recur_calls(monkeypatch) -> list:
        """Record, per _recur call, the type and shape of its newest seed
        state and its step count."""
        calls = []
        recur = ivp._recur

        def recording(alphas, coef, history, depth, f):
            calls.append((type(history[-1]), np.shape(history[-1]), depth))
            return recur(alphas, coef, history, depth, f)

        monkeypatch.setattr(ivp, "_recur", recording)
        monkeypatch.setattr(ivp, "integrate", None)  # the probe integrates itself
        return calls

    def test_array_probe_is_one_recur_call(self, capsys, monkeypatch):
        # The written trajectory and its perturbed twin are the two rows of
        # one (2, dim) run.
        calls = self._recur_calls(monkeypatch)
        code, out, err = run(
            capsys,
            "integrate", "--lambda", "-1.8", "--preset", "oscillator",
            "--h", "0.01", "--steps", "100", "--probe", "1e-3",
        )
        assert code == EXIT_OK
        assert "probe amplification ratio=" in err
        assert calls == [(np.ndarray, (2, 2), 100)]
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + 103

    @pytest.mark.parametrize("problem", [("--preset", "decay"), ("--rhs", "sin(t) - y")],
                             ids=["preset", "rhs"])
    def test_float_probe_is_two_float_recur_calls(self, capsys, monkeypatch, problem):
        # Python floats do not stack: the clean run, then its twin.
        calls = self._recur_calls(monkeypatch)
        code, _, err = run(
            capsys,
            "integrate", "--lambda", "-1.8", *problem,
            "--h", "0.01", "--steps", "100", "--probe", "1e-3",
        )
        assert code == EXIT_OK
        assert "probe amplification ratio=" in err
        assert calls == [(float, (), 100), (float, (), 100)]

    def test_twin_rhs_failure_writes_nothing(self, capsys):
        # The clean run stays at -1; the twin, shifted by +2, takes log(-1).
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", "--rhs", "log(-y)", "--y0=-1",
            "--h", "0.1", "--steps", "3", "--probe", "2",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: --rhs 'log(-y)' failed at t=0: math domain error\n"

    def test_probe_shift_past_the_float_max_is_data(self, capsys):
        # The twin's seed overflows as it is shifted; the suite turns a
        # leaked overflow warning into an error.
        code, _, err = run(
            capsys, "integrate", "--alphas", "1", "--rhs", "y", "--y0", "1.7e308",
            "--h", "1e-300", "--steps", "2", "--probe", "1.7e308", "--seed", "1",
        )
        assert (code, err) == (EXIT_OK, "probe amplification ratio=inf (diverged)\n")

    def test_probe_that_shifts_no_seed_is_refused(self, capsys):
        # 1e-17 is below half an ulp of every decay seed: the twin would be
        # the clean run, and its ratio 0/0.  The oscillator's first seed,
        # (1, 0), keeps the shift in its 0.
        argv = ("integrate", "--lambda=-1.8", "--h", "0.01", "--steps", "100", "--probe", "1e-17")
        code, out, err = run(capsys, *argv, "--preset", "decay")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "usage error: eps=1e-17 shifts no seed state: the twin would be the clean run\n"
        )
        code, _, err = run(capsys, *argv, "--preset", "oscillator")
        assert (code, err) == (EXIT_OK, "probe amplification ratio=1.333333333\n")

    @pytest.mark.parametrize("probe", [(), ("--probe", "1e6")], ids=["alone", "probe"])
    def test_overflowing_rk4_seed_is_data(self, capsys, probe):
        # The RK4 seed of a 2-step scheme overflows; with --probe the twin's
        # does too, and the two give a gap of nan.
        code, out, err = run(
            capsys, "integrate", "--alphas", "1,0", "--rhs", "y", "--y0", "1.7e308",
            "--h", "0.5", "--steps", "5", *probe,
        )
        assert (code, out) == (EXIT_OK, "n,t,y0\n0,0,1.7e+308\n1,0.5,inf\n")
        ratio = ["probe amplification ratio=inf (diverged)"] if probe else []
        assert err.splitlines() == ["blow-up at step 2", *ratio]

    def test_orders_below_rounding(self, capsys):
        # Every run's error is 0, so no error is left to fit a slope to.
        code, _, err = run(
            capsys, "integrate", "--alphas", "1", "--h", "1e-300", "--steps", "3",
            "--orders", "1e-300,2e-300,3e-300",
        )
        assert (code, err) == (EXIT_OK, "convergence order=-inf (rounding-limited)\n")

    def test_orders(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--lambda", "-1.8", "--preset", "decay",
            "--h", "0.01", "--steps", "100", "--orders", "0.02,0.01,0.005",
        )
        assert code == EXIT_OK
        order = float(err.split("order=")[1].split()[0])
        assert 1.7 <= order <= 2.3

    def test_rhs_expression(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate", "--alphas", "1", "--beta", "1", "--rhs=-y",
            "--y0", "1", "--h", "0.1", "--steps", "1",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert float(rows[-1][2]) == 0.9

    def test_blow_up_is_one_stderr_line(self, capsys):
        # A subprocess, so that a numpy warning would reach stderr as it
        # does for a user rather than through the test's warning filter.
        argv = ("integrate", "--alphas", "10,10,10", "--h", "0.1", "--steps", "1000")
        env = dict(os.environ, PYTHONPATH=str(Path(zstab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "zstab.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == "blow-up at step 299\n"
        assert proc.stdout == run(capsys, *argv)[1]
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert len(rows) == 1 + 299 and rows[-1][0] == "298"

    def test_rhs_overflow_is_a_blow_up(self, capsys):
        # Float ** and math.exp raise OverflowError where y*y overflows to
        # inf; each ends the run as a blow-up, not as a usage error.
        argv = ("integrate", "--alphas", "3,-3,1", "--h", "0.05", "--steps", "2000")
        squared = run(capsys, *argv, "--rhs", "y**2")
        assert squared == run(capsys, *argv, "--rhs", "y*y")
        assert squared[0] == EXIT_OK and squared[2] == "blow-up at step 20\n"
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", "--rhs", "exp(y)", "--h", "1", "--steps", "100",
        )
        assert code == EXIT_OK and err == "blow-up at step 4\n"
        assert len(list(csv.reader(io.StringIO(out)))) == 1 + 4

    @pytest.mark.parametrize(
        "expr, reason",
        [
            ("().__class__.__base__.__subclasses__().__len__()*0 + 1", "may not call Attribute"),
            ("factorial(2**22)*0 + y", "may not call 'factorial'"),
            ("-" * 100_000 + "y", f"is longer than {cli.MAX_RHS_CHARS} characters"),
        ],
        ids=["attributes", "factorial", "long"],
    )
    def test_rhs_is_an_expression_not_code(self, capsys, expr, reason):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", f"--rhs={expr}", "--h", "0.1", "--steps", "3",
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: --rhs") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize(
        "expr",
        ["y % 2", "floor(y)", "sin", "t(1)", "sin(y=1)", "y if t else 1", "y < 1", "[y]",
         "True * y", "1j", "'1'", "x", "__import__('os')", "math.sin(y)", "(lambda: y)()"],
    )
    def test_rhs_outside_the_grammar(self, capsys, expr):
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", f"--rhs={expr}", "--h", "0.1", "--steps", "3",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_rhs_nested_past_the_compiler(self, capsys):
        # CPython 3.11's compiler refuses ~1000 levels, below the length
        # cap; the depth bound refuses them first, on every interpreter.
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", "--rhs=" + "-" * 1023 + "y",
            "--h", "0.1", "--steps", "3",
        )
        assert code == EXIT_USAGE and out == "" and err.count("\n") == 1
        assert err.endswith(f"is nested more than {cli.MAX_RHS_DEPTH} levels deep\n")

    def test_rhs_depth_bound_is_exact(self, capsys):
        # "-" * k + "y" has k + 3 levels: Expression, k UnaryOps, Name, Load.
        at = cli.MAX_RHS_DEPTH - 3
        argv = ("integrate", "--alphas", "1", "--h", "0.1", "--steps", "3")
        code, _, err = run(capsys, *argv, "--rhs=" + "-" * at + "y")
        assert code == EXIT_OK and err == ""
        code, out, err = run(capsys, *argv, "--rhs=" + "-" * (at + 1) + "y")
        assert code == EXIT_USAGE and out == "" and "nested more than" in err

    @pytest.mark.parametrize(
        "expr",
        ["sin(t) - y", "-y", "+y**2.5 / 3", "pi * e - tau", "hypot(t, y, 1)", "atan2(y, 1e400)",
         "1" * 400 + " * y", "9**9**9", "-" * 400 + "y", "exp(-t) * y"],
        ids=_short,
    )
    def test_rhs_grammar_gives_a_float(self, capsys, expr):
        code, _, err = run(
            capsys, "integrate", "--alphas", "1", f"--rhs={expr}", "--h", "0.1", "--steps", "3",
        )
        assert code == EXIT_OK and "usage error" not in err
        rhs = cli._problem_from_args(
            cli.build_parser().parse_args(["integrate", f"--rhs={expr}", "--h", "1", "--steps", "1"])
        ).rhs
        assert type(rhs(0.5, 2.0)) is float

    def test_unknown_preset(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--alphas", "1", "--preset", "nope", "--h", "0.1",
            "--steps", "5",
        )
        # argparse's own message for the sorted preset names.
        probe = argparse.ArgumentParser(exit_on_error=False)
        probe.add_argument("--preset", choices=sorted(ivp.PRESETS))
        with pytest.raises(argparse.ArgumentError) as caught:
            probe.parse_args(["--preset", "nope"])
        assert (code, err) == (EXIT_USAGE, f"usage error: {caught.value}\n")

    def test_preset_choices_are_the_presets(self, capsys):
        # cli writes the names out, so that building its parser loads no ivp.
        preset = cli.build_parser().commands["integrate"].flags["preset"]
        assert list(preset.choices) == sorted(ivp.PRESETS)
        with pytest.raises(SystemExit):
            main(["integrate", "--help"])
        assert "--preset {" + ",".join(sorted(ivp.PRESETS)) + "}" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "extra",
        [
            ("--steps", "0"),
            ("--h", "-0.01"),
            ("--h", "nan"),
            ("--rhs", "y/0"),
            ("--orders", "0.1,0.05,-0.01"),
            ("--orders", "0.1,0.1,0.1"),
            ("--h", "1e308"),  # the last state's time, 6e308 + 1e308, overflows
        ],
        ids=["steps-0", "h-negative", "h-nan", "rhs-division", "orders-negative",
             "orders-duplicate", "time-grid-overflow"],
    )
    def test_library_errors_are_usage_errors(self, capsys, extra):
        code, _, err = run(
            capsys,
            "integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "5", *extra,
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error:") and "Traceback" not in err

    # With --orders, whose small runs come first, the CLI itself must check --steps.
    @pytest.mark.parametrize("extra", [(), ("--orders", "0.5,0.25,0.125")],
                             ids=["alone", "with-orders"])
    def test_steps_over_budget(self, capsys, monkeypatch, extra):
        monkeypatch.setattr(ivp, "_recur", None)  # any integration would fail
        code, out, err, peak = run_traced(
            capsys, "integrate", "--lambda", "-1.8", "--h", "1e-9",
            "--steps", str(ivp.MAX_STEPS + 1), *extra,
        )
        assert_cheap_rejection(code, out, err, peak)

    def test_orders_run_over_budget(self, capsys, monkeypatch):
        # Euler over t in [0, 1]: the first h needs exactly MAX_STEPS + 1 steps.
        h = 1.0 / (ivp.MAX_STEPS + 1)
        assert round(1.0 / h) == ivp.MAX_STEPS + 1
        monkeypatch.setattr(ivp, "_recur", None)  # any integration would fail
        code, out, err, peak = run_traced(
            capsys, "integrate", "--alphas", "1", "--h", "1", "--steps", "1",
            "--orders", f"{h!r},0.5,0.25",
        )
        assert_cheap_rejection(code, out, err, peak)

    @pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
    def test_bad_probe_writes_nothing(self, capsys, eps):
        code, out, err = run(
            capsys, "integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "3",
            f"--probe={eps}",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize("y0", ["inf", "-inf", "nan"])
    def test_non_finite_y0_writes_nothing(self, capsys, y0):
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", "--rhs", "y", f"--y0={y0}",
            "--h", "0.1", "--steps", "3",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("y0", ["nan", "1", "2.5"])
    def test_y0_without_rhs_writes_nothing(self, capsys, y0):
        # The presets fix their own initial value, so --y0 would be ignored.
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", f"--y0={y0}", "--h", "0.1", "--steps", "2",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "usage error: --y0 is read only with --rhs\n"

    def test_y0_from_config_without_rhs_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("y0=2\n")
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", "--h", "0.1", "--steps", "2",
            "--config", str(cfg),
        )
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: --y0 is read only with --rhs\n")

    @pytest.mark.parametrize("given", [("--preset", "oscillator"), ("--config", "preset=decay")])
    def test_preset_with_rhs_is_refused(self, capsys, tmp_path, given):
        # Both name the problem; the preset was silently dropped.
        if given[0] == "--config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(given[1] + "\n")
            given = ("--config", str(cfg))
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", *given, "--rhs", "y", "--h", "0.1", "--steps", "2",
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: --preset and --rhs each name the problem; give one\n"

    @pytest.mark.parametrize("given", [("--seed", "5"), ("--config", "seed=5")])
    def test_seed_without_probe_is_refused(self, capsys, tmp_path, given):
        # Only the probe reads the seed; the run without one ignored it.
        if given[0] == "--config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(given[1] + "\n")
            given = ("--config", str(cfg))
        code, out, err = run(
            capsys, "integrate", "--alphas", "1", *given, "--h", "0.1", "--steps", "2",
        )
        assert (code, out, err) == (EXIT_USAGE, "", "usage error: --seed is read only with --probe\n")

    def test_orders_with_an_infinite_step_count(self, capsys):
        code, out, err, peak = run_traced(
            capsys, "integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "5",
            "--orders", "5e-324,0.1,0.05",
        )
        assert_cheap_rejection(code, out, err, peak)


class TestPropagate:
    def test_noise_help_names_every_kind(self, capsys):
        # cli writes the kinds out, so that building its parser loads no
        # propagation.
        specs = " | ".join(
            ":".join([kind, *map(str.upper, names)])
            for kind, names in propagation.NOISE_KINDS.items()
        )
        noise = cli.build_parser().commands["propagate"].flags["noise"]
        assert noise.help == f"noise spec: {specs} (repeatable)"
        with pytest.raises(SystemExit):
            main(["propagate", "--help"])
        assert f"noise spec: {specs} (repeatable)" in " ".join(capsys.readouterr().out.split())

    def test_noise_free_zero_gap(self, capsys):
        code, out, _ = run(
            capsys,
            "propagate", "--lambda", "-1.8", "--noise", "none",
            "--depth", "10", "--width", "8", "--trials", "1",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(float(r[6]) == 0.0 for r in rows)

    def test_table8_group_ordering(self, capsys):
        code, _, err = run(
            capsys,
            "propagate", "--table8", "--noise", "gaussian:0.02",
            "--depth", "30", "--width", "16", "--trials", "1",
        )
        assert code == EXIT_OK
        stable = float(err.split("zero-stable group mean gap=")[1].splitlines()[0])
        unstable = float(err.split("non-zero-stable group mean gap=")[1].splitlines()[0])
        assert stable < unstable or math.isinf(unstable)

    def test_group_mean_past_the_float_max_is_inf(self, capsys):
        # Two cells of 1.78e308 each: their sum overflows, as a cell's mean
        # may, and the group mean reads inf with no overflow warning.
        code, _, err = run(
            capsys,
            "propagate", "--alphas", "0,1e308,1e308", "--beta", "0", "--clip",
            "--noise", "gaussian:1", "--noise", "gaussian:1",
            "--depth", "1", "--width", "1", "--trials", "2", "--seed", "0",
        )
        assert (code, err) == (EXIT_OK, "non-zero-stable group mean gap=inf\n")

    def test_deterministic_constant_noise(self, capsys):
        args = (
            "propagate", "--alphas", "1,1,1", "--beta", "1",
            "--noise", "constant:0.3", "--clip",
            "--depth", "15", "--width", "8", "--trials", "2",
        )
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    @pytest.mark.parametrize(
        "flags",
        [("--alphas", "5"), ("--beta", "1"), ("--lambda", "2"), ("--alphas", "5", "--lambda", "2"),
         ("--alphas", "1", "--beta", "1")],
        ids=["alphas", "beta", "lambda", "alphas-lambda", "alphas-beta"],
    )
    def test_table8_refuses_scheme_flags(self, capsys, flags):
        code, out, err = run(
            capsys, "propagate", "--table8", *flags, "--noise", "none",
            "--depth", "2", "--width", "2", "--trials", "1",
        )
        assert (code, out, err) == (
            EXIT_USAGE, "", "usage error: --table8 takes no --alphas, --beta or --lambda\n"
        )

    @pytest.mark.parametrize("line", ["alphas=5", "beta=1", "lambda=2"])
    def test_table8_refuses_scheme_flags_from_config(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(
            capsys, "propagate", "--table8", "--noise", "none",
            "--depth", "2", "--width", "2", "--trials", "1", "--config", str(cfg),
        )
        assert (code, out, err) == (
            EXIT_USAGE, "", "usage error: --table8 takes no --alphas, --beta or --lambda\n"
        )

    def test_noise_required(self, capsys):
        code, _, _ = run(capsys, "propagate", "--lambda", "-1.8")
        assert code == EXIT_USAGE

    def test_bad_noise_spec(self, capsys):
        code, _, _ = run(
            capsys, "propagate", "--lambda", "-1.8", "--noise", "gaussian"
        )
        assert code == EXIT_USAGE
        code, _, _ = run(
            capsys, "propagate", "--lambda", "-1.8", "--noise", "salt:1"
        )
        assert code == EXIT_USAGE
        # A field too many, or one that is not a number, is not dropped.
        for spec in ("gaussian:0.1:7", "uniform:0:1:2", "constant:1:x", "none:junk"):
            code, out, err = run(
                capsys, "propagate", "--lambda", "-1.8", f"--noise={spec}",
                "--depth", "2", "--width", "2", "--trials", "1",
            )
            assert (code, out, err) == (
                EXIT_USAGE, "", f"usage error: malformed noise spec {spec!r}\n"
            )

    @pytest.mark.parametrize(
        "spec",
        ["uniform:0:inf", "uniform:-inf:0", "uniform:nan:1", "gaussian:inf",
         "gaussian:nan", "constant:nan", "constant:inf", "uniform:-1e308:1e308"],
    )
    def test_non_finite_noise_is_usage_error(self, capsys, spec):
        code, out, err = run(
            capsys, "propagate", "--alphas", "1", f"--noise={spec}",
            "--depth", "2", "--width", "2", "--trials", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, reason",
        [("gaussian:inf", "must be finite"), ("uniform:0.5:-0.5", "needs lo <= hi"),
         ("gaussian:-1", "needs sigma >= 0")],
    )
    def test_rejected_noise_names_the_reason(self, capsys, spec, reason):
        code, out, err = run(
            capsys, "propagate", "--alphas", "1", f"--noise={spec}",
            "--depth", "2", "--width", "2", "--trials", "1",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and reason in err
        assert "malformed" not in err and err.count("\n") == 1

    def test_bad_dimensions(self, capsys):
        code, _, _ = run(
            capsys,
            "propagate", "--lambda", "-1.8", "--noise", "none", "--depth", "0",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_bad_trials(self, capsys, trials):
        code, out, err = run(
            capsys,
            "propagate", "--lambda", "-1.8", "--noise", "none", "--trials", trials,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "size",
        [
            # depth x trials x width^2 = MAX_SWEEP_WEIGHTS + 1
            ("--depth", "1", "--trials", str(MAX_SWEEP_WEIGHTS + 1), "--width", "1"),
            ("--depth", str(MAX_SWEEP_WEIGHTS + 1), "--trials", "1", "--width", "1"),
            # the smallest width over the budget at depth 1, one trial
            ("--depth", "1", "--trials", "1", "--width", str(math.isqrt(MAX_SWEEP_WEIGHTS) + 1)),
            # within the weight budget, over the block budget (depth x trials)
            ("--depth", "1", "--trials", str(MAX_SWEEP_WEIGHTS), "--width", "1"),
            # within the other three, over the work budget by one spec: a sweep
            # that would run for minutes
            ("--table8", "--depth", "8192", "--trials", "1", "--width", "64",
             *["--noise", "none"] * (MAX_SWEEP_WORK // (8192 * 10 * (64 * 64 + 2**10)) - 1)),
        ],
        ids=["trials", "depth", "width", "blocks", "work"],
    )
    def test_sweep_over_budget(self, capsys, monkeypatch, size):
        monkeypatch.setattr(propagation, "_draw_weights", None)  # nothing may be drawn
        monkeypatch.setattr(propagation, "inject_noise", None)
        scheme = () if "--table8" in size else ("--lambda", "-1.8")
        code, out, err, peak = run_traced(
            capsys, "propagate", *scheme, "--noise", "none", *size,
        )
        assert_cheap_rejection(code, out, err, peak)
        if "--table8" in size:
            assert "units of work" in err

    def test_work_budget_is_reached_within_the_argument_cap(self, capsys):
        # The "work" case above needs ~670 tokens; the argument cap must let
        # it through to the sweep's own budget.
        argv = (
            "propagate", "--table8", "--depth", "8192",
            "--trials", "1", "--width", "64",
            *["--noise", "none"] * (MAX_SWEEP_WORK // (8192 * 10 * (64 * 64 + 2**10))),
        )
        assert len(argv) <= cli.MAX_ARGS
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and "units of work" in err

    def test_json_matches_csv(self, capsys):
        args = (
            "propagate", "--table8", "--noise", "gaussian:0.02", "--noise", "none",
            "--depth", "20", "--width", "8", "--trials", "2",
        )
        _, csv_out, _ = run(capsys, *args, "--format", "csv")
        _, json_out, _ = run(capsys, *args, "--format", "json")
        header, *rows = list(csv.reader(io.StringIO(csv_out)))
        objs = json.loads(json_out)
        assert [list(o) for o in objs] == [header] * len(rows)
        for row, obj in zip(rows, objs):
            assert int(row[0]) == obj["scheme_id"]
            assert [float(a) for a in row[1].split(";")] == obj["alphas"]
            assert row[3] == str(obj["zero_stable"]).lower()
            assert row[4] == obj["noise_kind"]
            assert [float(x) for x in (row[2], *row[5:])] == [
                obj[k] for k in (header[2], *header[5:])
            ]


class TestDoubleDashValue:
    """argparse before Python 3.13 drops the value of ``--flag=--`` and
    stores an empty list, which no type or choice check sees; it reached the
    commands as a list (a traceback, or CSV for ``--format=--``).  From 3.13
    on the value is the text ``--``, which each flag refuses in its own
    words."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--alphas=--"),
            ("analyze", "--alphas=1", "--beta=--"),
            ("analyze", "--alphas=1", "--format=--"),
            ("integrate", "--alphas=1", "--h=--", "--steps=1"),
            ("integrate", "--alphas=1", "--h=1", "--steps=--"),
            ("lambda-scan", "--min=0", "--max=1", "--step=--"),
            ("propagate", "--alphas=1", "--noise=none", "--noise=--", "--depth=1"),
        ],
    )
    def test_is_a_usage_error(self, capsys, argv):
        flag = next(token for token in argv if token.endswith("=--")).removesuffix("=--")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        if sys.version_info < (3, 13):
            assert err == f"usage error: argument {flag}: expected one argument\n"
        assert err.startswith("usage error: ") and err.count("\n") == 1

    def test_from_the_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alphas=--\n")
        code, out, err = run(capsys, "analyze", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        if sys.version_info < (3, 13):
            assert err == "usage error: argument --alphas: expected one argument\n"
        assert err.startswith("usage error: ") and err.count("\n") == 1


class TestNegativeValue:
    """argparse's negative-number pattern passes only "-1" and "-.5"; an
    exponent, a comma list or "-inf" was taken for a flag, so "--flag value"
    was refused where "--flag=value" ran."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--alphas", "-0.5,0.2"),
            ("analyze", "--lambda", "-1e-3"),
            ("lambda-scan", "--min", "-1e1", "--max", "1", "--step", "1"),
            ("analyze", "--alphas", "1", "--beta", "-1E2"),
        ],
    )
    def test_is_a_value(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and "usage error" not in err
        joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        assert run(capsys, argv[0], *joined) == (code, out, err)

    def test_minus_inf_reaches_the_library(self, capsys):
        code, out, err = run(capsys, "analyze", "--alphas", "1", "--beta", "-inf")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: scheme coefficients must be finite\n"


class TestArgumentCap:
    """argparse's time grows with the square of the flag count: 8000 flags
    took ~3.6 s to parse, so no parse may take more than ``MAX_ARGS``
    tokens."""

    SWEEP = ("propagate", "--alphas", "1", "--depth", "1", "--width", "1", "--trials", "1")

    @pytest.fixture
    def parse_sizes(self, monkeypatch):
        """The number of tokens each parse (and subcommand parse) takes."""
        sizes = []
        parse = cli._Parser.parse_known_args

        def recording(self, args=None, namespace=None):
            sizes.append(len(args))
            return parse(self, args, namespace)

        monkeypatch.setattr(cli._Parser, "parse_known_args", recording)
        return sizes

    def test_long_argv(self, capsys, parse_sizes):
        argv = self.SWEEP + ("--noise=none",) * (8000 - len(self.SWEEP))
        code, out, err, peak = run_traced(capsys, *argv)
        assert_cheap_rejection(code, out, err, peak)
        assert f"at most {cli.MAX_ARGS} arguments" in err
        assert parse_sizes == []

    def test_long_config(self, capsys, parse_sizes, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise=none\n" * 8000)
        code, out, err, peak = run_traced(capsys, *self.SWEEP, "--config", str(cfg))
        assert_cheap_rejection(code, out, err, peak)
        assert "flag lines" in err
        assert max(parse_sizes) == len(self.SWEEP) + 2

    def test_bound_is_inclusive(self, capsys, parse_sizes):
        argv = ("analyze", "--alphas", "1") + ("--beta=1",) * (cli.MAX_ARGS - 3)
        assert run(capsys, *argv)[0] == EXIT_OK
        assert max(parse_sizes) == cli.MAX_ARGS
        code, _, err = run(capsys, *argv, "--beta=1")
        assert code == EXIT_USAGE and "arguments" in err

    @pytest.mark.parametrize("size", [cli.MAX_CONFIG_BYTES + 1, 8 * cli.MAX_CONFIG_BYTES])
    def test_config_over_the_byte_cap(self, capsys, parse_sizes, tmp_path, size):
        # One comment line, which no flag-line bound counts.
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"#" * (size - 1) + b"\n")
        code, out, err, peak = run_traced(capsys, *self.SWEEP, "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert f"longer than {cli.MAX_CONFIG_BYTES} bytes" in err
        assert max(parse_sizes) == len(self.SWEEP) + 2
        assert peak < 2 * cli.MAX_CONFIG_BYTES  # read no further than past the cap

    def test_config_byte_cap_is_inclusive(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"beta=2\n" + b"#" * (cli.MAX_CONFIG_BYTES - 8) + b"\n")
        code, out, _ = run(capsys, "analyze", "--alphas", "1", "--config", str(cfg))
        assert code == EXIT_OK and kv(out)["beta"] == "2"


class TestOutputPlumbing:
    def test_out_file_byte_identical(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        args = (
            "lambda-scan", "--min", "0.4", "--max", "1.0", "--step", "0.1",
            "--out", str(target),
        )
        assert main(list(args)) == EXIT_OK
        first = target.read_bytes()
        assert main(list(args)) == EXIT_OK
        assert target.read_bytes() == first
        capsys.readouterr()

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ZSTAB_OUT_DIR", str(tmp_path))
        code, _, _ = run(
            capsys,
            "analyze", "--alphas", "1", "--out", "sub/report.txt",
        )
        assert code == EXIT_OK
        assert (tmp_path / "sub" / "report.txt").exists()

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep defaults\ndepth=12\nwidth=8\ntrials=1\n")
        code, out, _ = run(
            capsys,
            "propagate", "--lambda", "-1.8", "--noise", "none",
            "--config", str(cfg),
        )
        assert code == EXIT_OK
        assert out  # sweep ran with config-sized dimensions

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=2.0\n")
        code, out, _ = run(
            capsys, "analyze", "--lambda", "-1.8", "--config", str(cfg)
        )
        assert code == EXIT_OK
        assert round(float(kv(out)["beta"]), 4) == 1.7778

    def test_config_via_file_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=-1.8\n")
        code, out, _ = run(capsys, "analyze", "--config", str(cfg))
        assert code == EXIT_OK
        assert round(float(kv(out)["beta"]), 4) == 1.7778

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (("integrate", "--alphas", "1"), ("h=0.1", "steps=3")),
            (("lambda-scan",), ("min=0.4", "max=0.6", "step=0.1")),
            (("lambda-scan", "--max", "0.6"), ("min=0.4", "step=0.1")),
        ],
    )
    def test_required_flags_from_config(self, capsys, tmp_path, argv, lines):
        # Required flags are checked once the config has joined the command
        # line, so the file may supply them.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        got = run(capsys, *argv, "--config", str(cfg))
        flags = [token for line in lines for token in ("--" + line).split("=")]
        assert got == run(capsys, *argv, *flags)
        assert got[0] == EXIT_OK

    @pytest.mark.parametrize("config, missing", [(None, "--h, --steps"), ("h=0.1\n", "--steps")])
    def test_required_flag_given_nowhere(self, capsys, tmp_path, config, missing):
        argv = ["integrate", "--alphas", "1"]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert run(capsys, *argv) == (
            EXIT_USAGE, "", f"usage error: the following arguments are required: {missing}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--alphas", "1"),
            ("lambda-scan", "--min", "0.4", "--max", "0.6", "--step", "0.1"),
            ("table-verify",),
            ("integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "3"),
            ("propagate", "--lambda", "-1.8", "--noise", "none",
             "--depth", "2", "--width", "2", "--trials", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_under_a_file_is_usage_error(self, capsys, tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, *argv, "--out", str(blocker / "report"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: cannot write --out")

    def test_config_float_for_none_default(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=2\n")
        code, out, _ = run(capsys, "analyze", "--alphas", "1", "--config", str(cfg))
        assert code == EXIT_OK
        assert kv(out)["beta"] == "2"

    def test_config_probe(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe=1e-3\n")
        argv = ("integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "5")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert (out, err) == run(capsys, *argv, "--probe", "1e-3")[1:]

    def test_config_noise_appends(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise=gaussian:0.1\nnoise=none\nclip=true\n")
        argv = ("propagate", "--lambda", "-1.8", "--depth", "4", "--width", "4")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        flags = ("--noise", "gaussian:0.1", "--noise", "none", "--clip")
        assert (out, err) == run(capsys, *argv, *flags)[1:]

    def test_command_line_noise_replaces_config_noise(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise=gaussian:0.1\n")
        argv = ("propagate", "--lambda", "-1.8", "--depth", "4", "--width", "4",
                "--noise", "none")
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run(capsys, *argv)[1]

    @pytest.mark.parametrize("content, message", [
        (b"h 0.1\n", "config line 1 is not key=value: 'h 0.1'"),
        (b"h=0.1\xff\n", "config file {path!r} is not UTF-8 text"),
    ], ids=["no-equals", "not-utf8"])
    def test_config_file_refused(self, capsys, tmp_path, content, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        code, out, err = run(capsys, "integrate", "--alphas", "1", "--steps", "2",
                             "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: {message.format(path=str(cfg))}\n"

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=two\n")
        code, _, err = run(capsys, "analyze", "--alphas", "1", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "--beta" in err

    def test_parser_built_once_and_config_leaves_it_unchanged(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta=2\nstrict=true\n")
        assert cli._shared_parser() is cli._shared_parser()
        code, _, _ = run(capsys, "analyze", "--alphas", "2", "--config", str(cfg))
        assert code == EXIT_NOT_STABLE
        code, out, _ = run(capsys, "analyze", "--alphas", "2")
        assert code == EXIT_OK
        assert kv(out)["beta"] == "1"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zap=1\n")
        code, _, _ = run(capsys, "analyze", "--alphas", "1", "--config", str(cfg))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("key", ["lam", "help"])
    def test_config_keys_are_long_flag_names(self, capsys, tmp_path, key):
        # "lam" is the dest of --lambda and names no flag; "help" names one
        # that a config may not give.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=-1.8\n")
        code, out, err = run(capsys, "analyze", "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: config key '{key}' matches no flag\n"
        cfg.write_text("lambda=-1.8\n")
        assert run(capsys, "analyze", "--config", str(cfg)) == run(
            capsys, "analyze", "--lambda", "-1.8"
        )

    def test_missing_config(self, capsys):
        code, _, _ = run(capsys, "analyze", "--alphas", "1", "--config", "/nope.cfg")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--alphas", "1", "--seed", "5"),
            ("lambda-scan", "--min", "0.4", "--max", "0.6", "--step", "0.1",
             "--seed", "5"),
            ("table-verify", "--seed", "5"),
            ("table-verify", "--format", "json"),
        ],
        ids=["analyze-seed", "lambda-scan-seed", "table-verify-seed",
             "table-verify-format"],
    )
    def test_flags_a_command_ignores_are_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments")

    def test_seed_config_key_rejected_where_unread(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        code, out, err = run(capsys, "analyze", "--alphas", "1", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "'seed' matches no flag" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("integrate", "--lambda", "-1.8", "--preset", "oscillator",
             "--h", "0.1", "--steps", "20", "--probe", "1e-3"),
            ("propagate", "--lambda", "-1.8", "--noise", "gaussian:0.1",
             "--depth", "4", "--width", "4", "--trials", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_read_where_offered(self, capsys, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert (out, err) == run(capsys, *argv, "--seed", "7")[1:]
        assert (out, err) != run(capsys, *argv)[1:]  # the default seed is 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("propagate", "--alphas", "1", "--noise", "none", "--depth", "2",
             "--width", "2", "--trials", "1", "--seed", "-1"),
            ("integrate", "--alphas", "1", "--h", "0.1", "--steps", "3",
             "--probe", "1", "--seed", "-5"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_refused_before_anything_runs(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(propagation, "_draw_weights", None)  # nothing may be drawn
        monkeypatch.setattr(ivp, "startup_states", None)  # nothing may be seeded
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: seed must be non-negative, got {argv[-1]}\n"

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for text in ("0 success", "1 verification failure", "64 usage error"):
            assert text in out
