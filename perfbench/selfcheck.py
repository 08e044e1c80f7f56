#!/usr/bin/env python3
"""Self-check of the benchmark's checks.

    python3 perfbench/selfcheck.py

For each workload it runs one round, then feeds each checker a copy of a
real output with one deliberate error (a wrong modulus, verdict or row) and
confirms that the operation is counted as failed.  It also confirms that
the stdout captured in-process, with and without tracing, is byte-identical
to running the same command as ``python3 -m zstab.cli``.  Exits 1 if any
check does not hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import zstab.cli  # noqa: E402

SEED = 7


def _sub(pattern: str, repl, text: str) -> str:
    out, n = re.subn(pattern, repl, text, count=1)
    if n != 1:
        raise ValueError(f"mutation pattern {pattern!r} not found")
    return out


def _json_edit(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, indent=2) + "\n"


def _bump(x: float, rel: float) -> float:
    return x * (1.0 + rel) if x else rel


def _first(wl, pred) -> int:
    return next(i for i, op in enumerate(wl.ops) if pred(op))


def _real_double_root(wl) -> tuple[int, float]:
    """An analyze op whose scheme has a real double root of a modulus no
    other root shares, and that modulus as the CLI prints it."""
    for i, op in enumerate(wl.ops):
        if not op.label.startswith("analyze multiset") or op.fault:
            continue
        alphas = [float(a) for a in op.argv[1].split("=", 1)[1].split(",")]
        roots = oracles.exact_roots(oracles.char_coeffs(alphas))
        for z, m in roots:
            if m == 2 and z.imag == 0 and sum(abs(abs(w) - abs(z)) < 1e-9 for w, _ in roots) == 1:
                return i, float(f"{abs(z):.10g}")
    raise LookupError("no multiset op with a lone real double root in this round")


def mutations(wl) -> list[tuple[str, int, callable]]:
    """(description, op index, function from stdout/stderr Outcome to a wrong one)."""
    def out(f):
        return lambda o: dataclasses.replace(o, out=f(o.out))

    def err(f):
        return lambda o: dataclasses.replace(o, err=f(o.err))

    if wl.name == "root-batch":
        ordinary = _first(wl, lambda op: op.label.startswith("analyze ordinary") and "," in op.argv[1])
        multiset, double = _real_double_root(wl)
        table = _first(wl, lambda op: op.kind == "b")
        return [
            ("analyze: a modulus off by 1e-6", ordinary,
             out(lambda t: _json_edit(t, lambda o: o["moduli"].__setitem__(0, _bump(o["moduli"][0], 1e-6))))),
            ("analyze: verdict flipped", ordinary,
             out(lambda t: _json_edit(t, lambda o: o.__setitem__("zero_stable", not o["zero_stable"])))),
            ("analyze: a double root reported as two nearby roots", multiset,
             out(lambda t: _json_edit(t, lambda o: o["moduli"].__setitem__(
                 o["moduli"].index(double), double * (1 + 1e-9))))),
            ("table-verify: a computed modulus off by 0.01", table,
             out(lambda t: _sub(r"computed=\[1\.84", "computed=[1.85", t))),
            ("table-verify: a computed verdict flipped", table,
             out(lambda t: _sub(r"zs_computed=False", "zs_computed=True", t))),
        ]
    if wl.name == "lambda-scan":
        return [
            ("csv: one max_modulus off by 1e-6", 0,
             out(lambda t: _sub(r"\n(-5,[^\n]*),([0-9.]+),true\n",
                                lambda m: f"\n{m.group(1)},{float(m.group(2)) + 1e-6!r},true\n", t))),
            ("csv: one row dropped", 0, out(lambda t: _sub(r"\n-5,[^\n]*", "", t))),
            ("json: one zero_stable flipped", 1,
             out(lambda t: _json_edit(t, lambda rows: rows[5].__setitem__("zero_stable", not rows[5]["zero_stable"])))),
            ("json: argmin line names another lambda", 1,
             err(lambda t: _sub(r"argmin lambda=\S+", "argmin lambda=-1.801", t))),
        ]
    if wl.name == "robustness-sweep":
        return [
            ("csv: noise 'none' gives a non-zero gap", 0,
             out(lambda t: _sub(r"(,none,0,)0,", r"\g<1>1e-12,", t))),
            ("csv: a zero_stable cell flipped", 0,
             out(lambda t: _sub(r"\n0,1;1;1,1,false,", "\n0,1;1;1,1,true,", t))),
            ("json: an unstable gap below a stable one", 1,
             out(lambda t: _json_edit(t, lambda rows: rows[1].__setitem__("mean_gap", 1e-9)))),
        ]
    return [
        ("decay csv: final state off by 1e-6", 0,
         out(lambda t: _sub(r",([-0-9.e]+)\n$", lambda m: f",{float(m.group(1)) + 1e-6!r}\n", t))),
        ("probe json: final state off by 1e-3", 1,
         out(lambda t: _json_edit(t, lambda rows: rows[-1]["y"].__setitem__(0, rows[-1]["y"][0] + 1e-3)))),
        ("probe: amplification ratio 11", 1,
         err(lambda t: _sub(r"ratio=\S+", "ratio=11", t))),
    ]


def direct_stdout(argv) -> str:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run([sys.executable, "-m", "zstab.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    return proc.stdout.decode()


def main() -> int:
    ok = True

    def report(passed: bool, text: str):
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {text}")

    tracer = tracing.Tracer()
    for name, build in workloads.WORKLOADS.items():
        wl = build(SEED)
        outcomes = [run.invoke(zstab.cli.main, op.argv)[0] for op in wl.ops]
        baseline = wl.check(outcomes)
        unexpected = [wl.ops[i].label for i, p in enumerate(baseline) if p and not wl.ops[i].fault]
        report(not unexpected, f"{name}: one round passes its checks except known faults {unexpected or ''}")
        for text, i, mutate in mutations(wl):
            wrong = list(outcomes)
            wrong[i] = mutate(outcomes[i])
            flagged = wl.check(wrong)[i]
            report(bool(flagged), f"{name}: {text} -> counted as failed" + (f" ({flagged[0]})" if flagged else ""))

        # Byte identity: one op of each kind, in-process untraced and traced
        # against a fresh `python3 -m zstab.cli`.
        for kind in sorted({op.kind for op in wl.ops}):
            i = _first(wl, lambda op: op.kind == kind and not op.fault)
            direct = direct_stdout(wl.ops[i].argv)
            tracer.install()
            try:
                traced = run.invoke(zstab.cli.main, wl.ops[i].argv)[0].out
            finally:
                tracer.uninstall()
            report(outcomes[i].out == direct == traced,
                   f"{name}: stdout of '{wl.ops[i].label}' is byte-identical untraced, traced and direct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
