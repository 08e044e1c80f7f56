#!/usr/bin/env python3
"""zstab end-to-end benchmark.

    python3 perfbench/run.py --workload root-batch --seed 1 --seconds 20 --trace 0

One closed-loop client calls ``zstab.cli.main([...])`` in this process, one
command after another, with stdout and stderr captured.  A run repeats
whole rounds of its workload's commands (see workloads.py) for at least
``--seconds`` and checks every output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead.  ``--workload all``
runs each workload in its own process.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os
import sys

# Hold BLAS to one thread before numpy loads: the matrices here are at most
# 64 x 64, where more threads only contend with each other.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# Per-layer metrics: name -> unit.  Counts are per round.
LAYER_UNITS = {
    "cli.analyze.self_us": "us",
    "cli.lambda_scan.self_ms": "ms",
    "cli.integrate.self_ms": "ms",
    "cli.propagate.self_ms": "ms",
    "polyroots.find_roots.calls": "count",
    "polyroots.find_roots.failed": "count",
    "polyroots.find_roots.us_simple": "us",
    "polyroots.find_roots.us_multiple": "us",
    "polyroots.find_roots.us_extreme": "us",
    "schemes.root_condition.self_us": "us",
    "schemes.consistency_check.us": "us",
    "table8.verify_reference_table.ms": "ms",
    "zerosnet.scan_region.us_per_point": "us",
    "zerosnet.to_csv.us_per_row": "us",
    "zerosnet.zerosnet_coeffs.per_row": "ratio",
    "ivp.integrate.calls": "count",
    "ivp.integrate.us_per_step": "us",
    "ivp.to_csv.us_per_row": "us",
    "ivp.zero_stability_probe.self_ms": "ms",
    "propagation.robustness_sweep.self_ms": "ms",
    "propagation.make_block.calls": "count",
    "propagation.make_block.us": "us",
    "propagation.propagate.calls": "count",
    "propagation.propagate.self_us_per_depth": "us",
    "propagation.block.calls": "count",
    "propagation.block.us": "us",
    "propagation.block.evals_per_trial": "ratio",
    "propagation.block.mflop_s": "MFLOP/s",
    "tracing.overhead_pct": "%",
}


def measure_setup() -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    zstab.cli and building its parser.  No timeout: with one, subprocess
    polls the child in steps of up to 50 ms, which would quantise it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import zstab.cli; zstab.cli.build_parser()"
    clock = calibrate.RefClock()
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        clock.add(i, time.perf_counter() - t0)
        clock.flush()
    return statistics.median(clock.done.values())


def invoke(main, argv):
    """Run one CLI command in-process; returns its Outcome and wall time."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
        error = None
    except Exception as exc:  # a traceback the CLI let through: the op failed
        rc, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return workloads.Outcome(rc, out.getvalue(), err.getvalue(), error), dt


def run_rounds(wl, main, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds for at least ``seconds``.  With a tracer, odd
    rounds are traced, and there are at least two rounds.  Operation times
    are kept in reference seconds."""
    memo: dict = {}
    rounds = []
    problems_by_op: dict[int, list[str]] = {}
    attempted = failed = 0
    clock = calibrate.RefClock()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        outcomes = []
        try:
            for i, op in enumerate(wl.ops):
                with (tracer.span("cli." + op.argv[0].replace("-", "_"), i) if traced
                      else contextlib.nullcontext()):
                    o, dt = invoke(main, op.argv)
                outcomes.append(o)
                clock.add(i, dt)
        finally:
            if traced:
                tracer.uninstall()
        clock.flush()
        key = tuple(outcomes)
        if key not in memo:
            try:
                memo[key] = wl.check(outcomes)
            except Exception as exc:  # a checker that cannot read the round fails it all
                memo[key] = [[f"round could not be checked: {type(exc).__name__}: {exc}"]] * len(outcomes)
        for i, problems in enumerate(memo[key]):
            attempted += 1
            if problems:
                failed += 1
                problems_by_op.setdefault(i, problems)
        per_kind: dict[str, list[float]] = {}
        for i, op in enumerate(wl.ops):
            acc = per_kind.setdefault(op.kind, [0.0, 0.0])
            acc[0] += op.work
            acc[1] += clock.done[i]
        rounds.append({"traced": traced, "seconds": sum(clock.done.values()), "kinds": per_kind})
        if time.perf_counter() - start >= seconds and (tracer is None or len(rounds) >= 2):
            break
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "problems": problems_by_op, "elapsed": time.perf_counter() - start}


def round_rates(rounds: list[dict]) -> dict[str, list[float]]:
    """Work per second of each kind of operation, one value per round."""
    return {k: [r["kinds"][k][0] / r["kinds"][k][1] for r in rounds] for k in rounds[0]["kinds"]}


def layer_metrics(tracer, wl, result) -> dict[str, float]:
    """Per-layer metrics from the traced rounds; 0 where a layer made no calls."""
    traced = [r for r in result["rounds"] if r["traced"]]
    plain = [r for r in result["rounds"] if not r["traced"]]
    n = len(traced)
    agg = tracer.aggregate()
    empty = {"calls": 0, "failed": 0, "total": 0, "self": 0, "items": []}

    def get(name):
        return agg.get(name, empty)

    def per_call(name, key, scale):
        a = get(name)
        return a[key] / a["calls"] / scale if a["calls"] else 0.0

    def per_unit(name, key, units, scale=1e3):
        return get(name)[key] / units / scale if units else 0.0

    def summed(name):
        return sum(info for _, info in get(name)["items"])

    roots = get("polyroots.find_roots")["items"]

    def roots_us(cls):
        durs = [d for d, coeffs in roots if wl.strata.get(coeffs, "simple") == cls]
        return sum(durs) / len(durs) / 1e3 if durs else 0.0

    scan_rows = sum(wl.ops[info].work for _, info in get("cli.lambda_scan")["items"])
    block = get("propagation.block")
    cells = sum(wl.ops[info].work for _, info in get("cli.propagate")["items"])
    flops = sum(2.0 * w * w for _, w in block["items"])
    overhead = 0.0
    if traced and plain:
        overhead = 100.0 * (statistics.median(r["seconds"] for r in traced)
                            / statistics.median(r["seconds"] for r in plain) - 1.0)
    m = {
        "cli.analyze.self_us": per_call("cli.analyze", "self", 1e3),
        "cli.lambda_scan.self_ms": per_call("cli.lambda_scan", "self", 1e6),
        "cli.integrate.self_ms": per_call("cli.integrate", "self", 1e6),
        "cli.propagate.self_ms": per_call("cli.propagate", "self", 1e6),
        "polyroots.find_roots.calls": len(roots) / n,
        "polyroots.find_roots.failed": get("polyroots.find_roots")["failed"] / n,
        "polyroots.find_roots.us_simple": roots_us("simple"),
        "polyroots.find_roots.us_multiple": roots_us("multiple"),
        "polyroots.find_roots.us_extreme": roots_us("extreme"),
        "schemes.root_condition.self_us": per_call("schemes.root_condition", "self", 1e3),
        "schemes.consistency_check.us": per_call("schemes.consistency_check", "total", 1e3),
        "table8.verify_reference_table.ms": per_call("table8.verify_reference_table", "total", 1e6),
        "zerosnet.scan_region.us_per_point": per_unit("zerosnet.scan_region", "total", summed("zerosnet.scan_region")),
        "zerosnet.to_csv.us_per_row": per_unit("zerosnet.to_csv", "total", summed("zerosnet.to_csv")),
        "zerosnet.zerosnet_coeffs.per_row": tracer.counts["zerosnet.zerosnet_coeffs"] / scan_rows if scan_rows else 0.0,
        "ivp.integrate.calls": get("ivp.integrate")["calls"] / n,
        "ivp.integrate.us_per_step": per_unit("ivp.integrate", "total", summed("ivp.integrate")),
        "ivp.to_csv.us_per_row": per_unit("ivp.to_csv", "total", summed("ivp.to_csv")),
        "ivp.zero_stability_probe.self_ms": per_call("ivp.zero_stability_probe", "self", 1e6),
        "propagation.robustness_sweep.self_ms": per_call("propagation.robustness_sweep", "self", 1e6),
        "propagation.make_block.calls": get("propagation.make_block")["calls"] / n,
        "propagation.make_block.us": per_call("propagation.make_block", "total", 1e3),
        "propagation.propagate.calls": get("propagation.propagate")["calls"] / n,
        "propagation.propagate.self_us_per_depth": per_unit("propagation.propagate", "self", summed("propagation.propagate")),
        "propagation.block.calls": block["calls"] / n,
        "propagation.block.us": per_call("propagation.block", "total", 1e3),
        "propagation.block.evals_per_trial": block["calls"] / cells if cells else 0.0,
        "propagation.block.mflop_s": flops / (block["total"] / 1e9) / 1e6 if block["total"] else 0.0,
        "tracing.overhead_pct": overhead,
    }
    return m


def run_all(args) -> int:
    """Each workload in its own process; a summary line per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zstab" / "cli.py").is_file():
        print(f"error: no zstab sources under {SRC}; run from a zstab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import zstab.cli

    setup_s = measure_setup()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    result = run_rounds(wl, zstab.cli.main, args.seconds, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = result["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    rates = round_rates(plain)
    by_fault: dict[str, int] = {}
    unexpected = []
    for i, problems in sorted(result["problems"].items()):
        op = wl.ops[i]
        print(f"failed operation ({op.fault or 'unexpected'}): {op.label}: {problems[0]}")
        if op.fault:
            by_fault[op.fault] = by_fault.get(op.fault, 0) + 1
        else:
            unexpected.append(op.label)
    per_round = len(wl.ops)
    print(f"workload {wl.name} seed {args.seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, {len(rounds)} rounds of {per_round} in {result['elapsed']:.1f} s")
    for fault, count in sorted(by_fault.items()):
        print(f"  known fault {fault}: {count} of {per_round} operations per round")
    print(f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")

    e2e = {"setup_s": (setup_s, "s"), "peak_rss_mib": (peak_rss_mib, "MiB")}
    for kind, generic in (("a", "work_a_per_s"), ("b", "work_b_per_s")):
        e2e[generic] = (statistics.median(rates[kind]), "1/s")
        name, unit = wl.rates[kind]
        print(f"{name} = {e2e[generic][0]:.6g} {unit} per reference second "
              f"(reported as {generic}; median of {len(rates[kind])} rounds)")
    print(f"setup_s = {setup_s:.6g} s")
    print(f"peak_rss_mib = {peak_rss_mib:.6g} MiB")

    if tracer is not None:
        layers = layer_metrics(tracer, wl, result)
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {LAYER_UNITS[name]}")
        out = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.tsv"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": not unexpected, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
