"""Spans around zstab's public entry points, recorded from outside the package.

``Tracer.install`` replaces every module-level binding of each traced
function in the zstab modules (``schemes`` binds its own ``find_roots``;
``cli``, ``table8`` and ``propagation`` each bind ``root_condition``), so a
call is seen whichever module makes it.  ``uninstall`` puts the originals
back, so rounds run without the wrappers pay nothing for tracing.  Spans live
in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module, attribute) of each traced entry point, its span name, and what
# the span records beside its times: a function of the call's arguments.
TRACED = (
    ("zstab.polyroots", "find_roots", "polyroots.find_roots",
     lambda a, k: tuple(c.real for c in a[0].coefficients)),
    ("zstab.schemes", "root_condition", "schemes.root_condition", None),
    ("zstab.schemes", "consistency_check", "schemes.consistency_check", None),
    ("zstab.table8", "verify_reference_table", "table8.verify_reference_table", None),
    ("zstab.zerosnet", "scan_region", "zerosnet.scan_region",
     lambda a, k: round((a[1] - a[0]) / a[2]) + 1),
    ("zstab.ivp", "integrate", "ivp.integrate", lambda a, k: a[3] if len(a) > 3 else k["n_steps"]),
    ("zstab.ivp", "zero_stability_probe", "ivp.zero_stability_probe", None),
    ("zstab.propagation", "robustness_sweep", "propagation.robustness_sweep", None),
    ("zstab.propagation", "make_block", "propagation.make_block", None),
    ("zstab.propagation", "propagate", "propagation.propagate",
     lambda a, k: a[3] if len(a) > 3 else k["depth"]),
)
# Methods: (module, class, method, span name, recorded value).
TRACED_METHODS = (
    ("zstab.zerosnet", "RegionScan", "to_csv", "zerosnet.to_csv", lambda a, k: len(a[0].grid)),
    ("zstab.ivp", "Trajectory", "to_csv", "ivp.to_csv", lambda a, k: len(a[0].states)),
    ("zstab.propagation", "BlockMap", "__call__", "propagation.block", lambda a, k: a[0].width),
)
# Called tens of thousands of times per command for a few microseconds
# each: counted, not timed, so the count does not distort its callers.
COUNTED = (("zstab.zerosnet", "zerosnet_coeffs", "zerosnet.zerosnet_coeffs"),)


class Tracer:
    def __init__(self):
        # Each span: [id, parent id, name, start ns, end ns, info, failed].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        """A span opened by the benchmark itself, around one CLI command."""
        span = self._open(name, info)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(span, failed)

    def _open(self, name, info):
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                perf_counter_ns(), 0, info, False]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span, failed):
        span[4] = perf_counter_ns()
        span[6] = failed
        self._stack.pop()

    def _wrap(self, fn, name, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, extract(args, kwargs) if extract else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, True)
                raise
            tracer._close(span, False)
            return result

        return traced

    def _count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("zstab") and m]
        replacements = {}
        for mod, attr, name, extract in TRACED:
            orig = getattr(sys.modules[mod], attr)
            replacements[id(orig)] = (orig, self._wrap(orig, name, extract))
        for mod, attr, name in COUNTED:
            orig = getattr(sys.modules[mod], attr)
            replacements[id(orig)] = (orig, self._count(orig, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, cls_name, method, name, extract in TRACED_METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            orig = cls.__dict__[method]
            self._restore.append((cls, method, orig))
            setattr(cls, method, self._wrap(orig, name, extract))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries --------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, failed calls, total and self time (ns), and
        the spans themselves as (duration, info) pairs."""
        child = defaultdict(int)
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        out: dict = defaultdict(lambda: {"calls": 0, "failed": 0, "total": 0, "self": 0, "items": []})
        for s in self.spans:
            dur = s[4] - s[3]
            agg = out[s[2]]
            agg["calls"] += 1
            agg["failed"] += s[6]
            agg["total"] += dur
            agg["self"] += dur - child[s[0]]
            agg["items"].append((dur, s[5]))
        return out

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line: id, parent, name,
        start ns, end ns, failed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tfailed\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\t{int(s[6])}\n")

