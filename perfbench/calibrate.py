"""Reference seconds: wall time corrected for how fast the machine runs now.

On a shared machine the same command can take twice as long for seconds
to minutes at a time, in CPU time as well as wall time, because of other
tenants.  A fixed kernel of Python arithmetic, a 64x64 matrix-vector
product, a polynomial evaluation and float formatting (the mix the zstab
commands run) slows down by the same factor.  ``RefClock`` times that
kernel between operations and scales each operation's wall time by
``K_REF / kernel time``, giving the time the operation would take on a
machine where the kernel takes ``K_REF`` seconds.
"""

from __future__ import annotations

import math
import time

import numpy as np

K_REF = 0.02  # seconds; roughly the kernel's time on an idle 2.1 GHz Xeon core
CALIBRATE_EVERY = 0.2  # seconds of measured work between kernel runs

_M = np.random.default_rng(0).standard_normal((64, 64))
_V = np.ones(64)
_C = np.arange(1.0, 9.0)


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += math.sqrt(i + 1.0) * 0.5
        acc += float(np.polyval(_C, 0.3 + i * 1e-4)) + float((_M @ _V)[0])
        acc += len(f"{acc:.10g},{i}")
    return time.perf_counter() - t0


class RefClock:
    """Collects wall times and hands them back in reference seconds.

    ``add`` records a measured duration under a key; once ``CALIBRATE_EVERY``
    seconds have been added (or on ``flush``) the kernel runs, and every
    pending duration is scaled by K_REF over the mean of the kernel times
    just before and just after it.
    """

    def __init__(self):
        self._before = kernel()
        self._pending: list[tuple[object, float]] = []
        self._since = 0.0
        self.done: dict = {}

    def add(self, key, seconds: float) -> None:
        self._pending.append((key, seconds))
        self._since += seconds
        if self._since >= CALIBRATE_EVERY:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = kernel()
        scale = K_REF / ((self._before + after) / 2.0)
        for key, seconds in self._pending:
            self.done[key] = seconds * scale
        self._before = after
        self._pending.clear()
        self._since = 0.0
