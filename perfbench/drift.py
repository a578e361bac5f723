"""How well the reference kernel cancels host drift, per kind of work.

    python3 perfbench/drift.py [--seconds 200]

Runs five probes in turn for --seconds, each bracketed by the reference
kernel: two real operations of the program (one grid-map op and one
expansion op, Python-bound today) and three numpy probes (array code over
one grid window, a fit-sized least-squares solve, and a memory-bound
kernel on arrays far larger than any input of the benchmark).  Over
20-second windows it prints, per probe, the spread of the window medians
(max - min over their median) of the raw time and of the time corrected
as run.py corrects it.  A corrected spread well below the raw
one shows the drift cancelled for that kind of work.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
WINDOW_S = 20.0
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
from reference import Reference, corrected  # noqa: E402
from worker import expansion_round, grid_round  # noqa: E402


def probes(tmpdir: str) -> dict:
    from sosharmonics import cli, coords, harmonic

    (_, grid_op, _), *_ = grid_round(inputs.make("grid-map", 1), tmpdir, cli)
    (_, expansion_op, _), *_ = expansion_round(inputs.make("expansion", 1), coords, harmonic)
    rng = np.random.default_rng(1)
    x, z = rng.uniform(0.0, 2.0, 225), rng.uniform(0.0, 1.0, 225)
    design, rhs = rng.standard_normal((100, 50)), rng.standard_normal(100)
    big = rng.standard_normal(2_000_000)  # 16 MB per array

    def numpy_window():
        for _ in range(60):
            R = np.sqrt(x * x + 3.0 * z * z)
            s = 3.0 * z / R
            p0, p1 = np.ones_like(s), s / 3.0
            acc = p0 + p1
            for n in range(1, 8):
                p0, p1 = p1, (2 * n + 1) / (n + 1) * s * p1 / 3.0 - n / (n + 1) * (1 - 2 * s * s / 9) * p0
                acc += p1 * R**n

    def lstsq():
        for _ in range(40):
            np.linalg.lstsq(design, rhs, rcond=None)

    def memory_bound():
        np.sqrt(big * big + 1.0) * 0.5 - big

    return {
        "grid-map op": lambda: grid_op(os.path.join(tmpdir, "probe.csv")),
        "expansion op": lambda: expansion_op(None),
        "numpy, one window": numpy_window,
        "lstsq, fit size": lstsq,
        "numpy, memory-bound": memory_bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=200.0)
    args = parser.parse_args()
    tmpdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", f"drift-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    ref = Reference()
    todo = probes(tmpdir)
    samples = {name: [] for name in todo}  # (time, raw s, corrected s)
    t_start = time.perf_counter()
    before = ref.seconds()
    while time.perf_counter() - t_start < args.seconds:
        for name, fn in todo.items():
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            after = ref.seconds()
            samples[name].append((t0 - t_start, dt, corrected(dt, before, after)))
            before = after
    for f in os.listdir(tmpdir):
        os.remove(os.path.join(tmpdir, f))
    os.rmdir(tmpdir)

    print(f"# {args.seconds:.0f} s, windows of {WINDOW_S:.0f} s; spread = (max - min) / median of window medians")
    print(f"{'probe':22s} {'raw p50 ms':>11s} {'raw spread':>11s} {'corrected spread':>17s}")
    for name, rows in samples.items():
        windows = {}
        for t, raw, corr in rows:
            windows.setdefault(int(t // WINDOW_S), []).append((raw, corr))
        full = [w for w in windows.values() if len(w) >= 3]
        raw_m = [statistics.median(r for r, _ in w) for w in full]
        cor_m = [statistics.median(c for _, c in w) for w in full]

        def spread(v):
            return (max(v) - min(v)) / statistics.median(v)

        print(f"{name:22s} {statistics.median(r for _, r, _ in rows) * 1e3:11.3f} "
              f"{spread(raw_m):11.3f} {spread(cor_m):17.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
