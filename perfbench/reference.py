"""Fixed reference kernel that is timed between operations to cancel drift.

The speed of a shared host drifts by tens of percent within a minute, and
interpreted Python slows more than memory-bound numpy.  Every timing the
benchmark reports is therefore divided by the time of this kernel measured
next to it, and multiplied by NOMINAL_S: it reads as the time on a host
where the kernel takes exactly NOMINAL_S.

The kernel mixes the kinds of work the workloads' operations are made of
at their input sizes: scalar float code with calls and small tuples (the
program's scalar paths), numpy calls on a few hundred elements (what an
array kernel over one grid window or one fit does) and one small
least-squares solve (what `fit_boundary` does through LAPACK).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.005


def corrected(dt: float, *refs: float) -> float:
    """`dt` as on a host where the kernel takes NOMINAL_S.

    `refs` are the kernel times taken next to `dt`: the one before and the
    one after an operation, or those right after a set-up.
    """
    return dt * NOMINAL_S / statistics.median(refs)


def _scalar(n: int) -> float:
    acc = 0.0
    pair = (0.5, 1.5)
    for k in range(1, n):
        x = k * 1e-3
        acc += math.sqrt(x + pair[k & 1]) * math.log1p(x) - acc / (k + 1.0)
    return acc


class Reference:
    """The kernel's fixed inputs and its timer."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20261018)
        self._x = rng.uniform(0.0, 2.0, 225)
        self._z = rng.uniform(0.0, 1.0, 225)
        self._design = rng.standard_normal((58, 25))
        self._rhs = rng.standard_normal(58)

    def kernel(self) -> float:
        acc = _scalar(8000)
        x, z = self._x, self._z
        for _ in range(80):
            R = np.sqrt(x * x + 3.0 * z * z)
            s = 3.0 * z / R
            acc += float(np.sum(s * (1.0 - s * s / 9.0) * R))
        for _ in range(4):
            acc += float(np.linalg.lstsq(self._design, self._rhs, rcond=None)[0][0])
        return acc

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0
