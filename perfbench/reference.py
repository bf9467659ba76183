"""A fixed reference kernel that measures the machine's current speed.

The tested machine is a small share of a host whose other tenants change
its speed by up to 2x for stretches of seconds to minutes, so even the 10th
percentile of raw op times of the same code spreads by a third across runs.
The benchmark runs this kernel between ops and divides each op's time by
the mean of the kernel times on either side of it.  Contention slows the op and its neighbouring
kernel runs alike, so the ratio keeps the op's cost and drops most of the
machine's drift.

The kernel mixes the two kinds of work the workloads do: an interpreted
float loop, and small dense NumPy calls on a 16x16 matrix (products,
eigenvalues, row normalisation).  It uses nothing from slicekit, so a change
to the program never changes the kernel.  Its inputs are fixed.  Its median
time on the tested machine (2 vCPUs of an Intel Xeon at 2.0 GHz, shared) is
8-11 ms, close to ``REF_MS``, so scaled op times read close to raw ones
there.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# A ratio of op time to kernel time is reported as milliseconds on a machine
# where the kernel takes exactly this long.
REF_MS = 10.0

_LOOP = 20_000
_MATRIX_ROUNDS = 40
_MATRIX = np.random.default_rng(20141225).random((16, 16))


def reference_seconds() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(1, _LOOP):
        acc += math.log(i) * 0.5 + (i % 7)
    a = _MATRIX
    for _ in range(_MATRIX_ROUNDS):
        acc += float(np.abs(np.linalg.eigvals(a)).max())
        a = a @ _MATRIX
        a = a / a.sum(axis=1, keepdims=True)
    t1 = perf_counter()
    if not math.isfinite(acc):  # consumes the result; never true
        raise ArithmeticError("reference kernel produced a non-finite value")
    return t1 - t0


class Scaler:
    """Scales intervals timed between kernel runs to reference speed.

    Call ``scale(seconds)`` right after timing an interval: it runs the
    kernel once more and divides the interval by the mean of this kernel
    time and the previous one, which ran just before the interval.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = [reference_seconds()]

    def scale(self, seconds: float) -> float:
        self.kernel_s.append(reference_seconds())
        around = (self.kernel_s[-2] + self.kernel_s[-1]) / 2
        return seconds / around * (REF_MS / 1e3)
