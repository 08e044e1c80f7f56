import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zstab
import zstab.cli as cli
from zstab.cli import EXIT_NOT_STABLE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, main
from zstab.table8 import REFERENCE_ROWS, verify_reference_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert pairs["zero_stable"] == "False"
        moduli = [round(float(v), 2) for v in pairs["moduli"].split(";")]
        assert moduli == [1.84, 0.74, 0.74]

    def test_euler(self, capsys):
        code, out, _ = run(capsys, "analyze", "--alphas", "1", "--beta", "1")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["zero_stable"] == "True"
        assert pairs["consistent"] == "True"

    def test_lambda_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--lambda", "-1.8")
        assert code == EXIT_OK
        pairs = kv(out)
        alphas = [float(v) for v in pairs["alphas"].split(";")]
        assert [round(a, 4) for a in alphas] == [0.3333, 0.5556, 0.1111]
        assert round(float(pairs["beta"]), 4) == 1.7778

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

    @pytest.mark.parametrize("alphas", ["1e308,1e308", "10000,-1,0.5"])
    def test_root_finding_failure_is_usage_error(self, capsys, alphas):
        code, out, err = run(capsys, "analyze", "--alphas", alphas)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: root finding did not converge")
        assert err.count("\n") == 1

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

    def test_invalid_range(self, capsys):
        code, _, _ = run(
            capsys, "lambda-scan", "--min", "5", "--max", "1", "--step", "0.1"
        )
        assert code == EXIT_USAGE

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
        bad = list(verify_reference_table())

        def broken():
            rows = list(REFERENCE_ROWS)
            rows[2] = type(rows[2])(
                rows[2].alphas, rows[2].beta, (9.99, 1.00, 0.24), rows[2].zero_stable
            )
            return verify_reference_table(tuple(rows))

        monkeypatch.setattr(cli, "verify_reference_table", broken)
        code, out, _ = run(capsys, "table-verify")
        assert code == EXIT_VERIFY_FAIL
        assert "row 3: FAIL" in out
        assert bad  # silence unused warning


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

    def test_unknown_preset(self, capsys):
        code, _, _ = run(
            capsys,
            "integrate", "--alphas", "1", "--preset", "nope", "--h", "0.1",
            "--steps", "5",
        )
        assert code == EXIT_USAGE


    @pytest.mark.parametrize(
        "extra",
        [
            ("--steps", "0"),
            ("--h", "-0.01"),
            ("--h", "nan"),
            ("--rhs", "y/0"),
            ("--orders", "0.1,0.05,-0.01"),
            ("--orders", "0.1,0.1,0.1"),
        ],
        ids=["steps-0", "h-negative", "h-nan", "rhs-division", "orders-negative",
             "orders-duplicate"],
    )
    def test_library_errors_are_usage_errors(self, capsys, extra):
        code, _, err = run(
            capsys,
            "integrate", "--lambda", "-1.8", "--h", "0.1", "--steps", "5", *extra,
        )
        assert code == EXIT_USAGE
        assert err.startswith("usage error:") and "Traceback" not in err


class TestPropagate:
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

    def test_deterministic_constant_noise(self, capsys):
        args = (
            "propagate", "--alphas", "1,1,1", "--beta", "1",
            "--noise", "constant:0.3", "--clip",
            "--depth", "15", "--width", "8", "--trials", "2",
        )
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

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

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for text in ("0 success", "1 verification failure", "64 usage error"):
            assert text in out
