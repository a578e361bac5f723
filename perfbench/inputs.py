"""Seeded inputs of the three workloads.

`make(workload, seed)` returns a JSON-serializable spec: everything the
worker needs to run one round of operations, plus the oracle values the
outputs are checked against.  The same seed gives the same spec.  The
program never sees the seed, only the files and values made from it.

Each workload's round is built so that its operations cost the same from
seed to seed: the seed moves values (scales, coefficients, mu, sample and
evaluation points), never the amount or the kind of work.
"""

from __future__ import annotations

import math
import random

import oracle

# --- grid-map ---------------------------------------------------------------

GRID_MU = 2.0
GRID_DEGREE = 8
GRID_SECOND_KIND = 3  # b_0..b_2
GRID_NX = 15
GRID_NZ = 15
# z extent / x extent.  Every window starts at the origin, and s (hence W,
# the series region and the series cost) depends only on the direction of a
# cell, so a window scaled by any factor has the same region mix and cost.
GRID_ASPECT = 0.5
GRID_WINDOWS = 5  # windows (ops) per round
GRID_SCALE = (0.5, 2.5)  # x extent, units of R0, drawn log-uniformly

# --- expansion --------------------------------------------------------------

EXP_MU_MAX = 20.0
EXP_N_MU = 8  # mu values per round, 0 included; also the batch ops per round
# (degree, second-kind terms b_0..b_{k-1} of the known expansion)
EXP_JOBS = ((6, 3), (12, 0), (24, 0))
EXP_POINTS = 30  # interior evaluation points per job
# The known-fault slice: power-basis cancellation at degree 60, mu = 0.
# Its inputs do not depend on the seed, so it fails the same way in every run.
FAULT_DEGREE = 60
FAULT_SEED = 60
FAULT_LABEL = "fault-deg60"

# --- certify ----------------------------------------------------------------

CERT_MU = 2.0
CERT_R0 = (0.5, 4.0)  # drawn log-uniformly


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _grid(seed: int) -> dict:
    rng = random.Random(seed)
    a = [rng.uniform(-1.0, 1.0) for _ in range(GRID_DEGREE + 1)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(GRID_SECOND_KIND)]
    windows = []
    for _ in range(GRID_WINDOWS):
        x_max = _log_uniform(rng, *GRID_SCALE)
        z_max = GRID_ASPECT * x_max
        cells = []
        for j in range(GRID_NZ):
            z = z_max * j / (GRID_NZ - 1)
            for i in range(GRID_NX):
                x = x_max * i / (GRID_NX - 1)
                cells.append(oracle.cell_potential(a, b, x, z, GRID_MU))
        windows.append({"x_max": x_max, "z_max": z_max, "oracle": cells})
    return {
        "config": {"mu": GRID_MU, "R0": 1.0},
        "coeffs": {"mu": GRID_MU, "R0": 1.0, "convention": "R_over_R0", "a": a, "b": b},
        "nx": GRID_NX,
        "nz": GRID_NZ,
        "windows": windows,
    }


def _job(rng: random.Random, mu: float, degree: int, n_b: int) -> dict:
    """A fit-and-evaluate job on a known expansion with oracle values.

    Boundary samples sit at Chebyshev nodes in s on the reference spheroid
    (R = R0 = 1, s = sqrt(1+mu) sin(nu)), twice as many as coefficients.
    """
    a = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(n_b)]
    lim = math.sqrt(1.0 + mu)
    n_cols = (degree + 1) * (2 if n_b else 1)
    m = 2 * n_cols + 8
    samples = []
    for k in range(m):
        nu = math.asin(0.999 * math.cos(math.pi * (k + 0.5) / m))
        samples.append([nu, oracle.potential(a, b, 1.0, lim * math.sin(nu), mu)[0]])
    points = []
    oracle_v = []
    for _ in range(EXP_POINTS):
        R = rng.uniform(0.3, 1.0)
        s = rng.uniform(-0.95, 0.95) * lim
        points.append([R, s])
        oracle_v.append(oracle.potential(a, b, R, s, mu)[0])
    return {
        "mu": mu,
        "degree": degree,
        "second_kind": bool(n_b),
        "a": a,
        "b": b + [0.0] * (degree + 1 - n_b) if n_b else [],
        "samples": samples,
        "points": points,
        "oracle": oracle_v,
    }


def _expansion(seed: int) -> dict:
    rng = random.Random(seed)
    mus = [0.0] + [rng.uniform(0.0, EXP_MU_MAX) for _ in range(EXP_N_MU - 1)]
    # each degree visits every mu once per round, in its own seeded order
    orders = [rng.sample(range(EXP_N_MU), EXP_N_MU) for _ in EXP_JOBS]
    ops = []
    for k in range(EXP_N_MU):
        jobs = [
            _job(rng, mus[order[k]], degree, n_b)
            for order, (degree, n_b) in zip(orders, EXP_JOBS)
        ]
        ops.append({"label": "batch", "jobs": jobs})
    fault = _job(random.Random(FAULT_SEED), 0.0, FAULT_DEGREE, 0)
    ops.append({"label": FAULT_LABEL, "jobs": [fault]})
    return {"mus": mus, "ops": ops}


def _certify(seed: int) -> dict:
    rng = random.Random(seed)
    return {"config": {"mu": CERT_MU, "R0": _log_uniform(rng, *CERT_R0)}}


MAKERS = {"grid-map": _grid, "expansion": _expansion, "certify": _certify}


def make(workload: str, seed: int) -> dict:
    return MAKERS[workload](seed)


def grid_region_shares() -> dict:
    """Share of grid-map cells per series region, the same for every window.

    Classified from outside: s = (1+mu) z / R, W from the closed inversion
    W^2 = t / (1-t)^(1+mu) with t = s^2/(1+mu), then the program's
    `series.region_of`.  The z = 0 row has W = 0 and counts as small-nu.
    """
    from sosharmonics.series import region_of

    mu = GRID_MU
    counts = {}
    for j in range(GRID_NZ):
        z = GRID_ASPECT * j / (GRID_NZ - 1)
        for i in range(GRID_NX):
            x = i / (GRID_NX - 1)
            if x == 0.0:
                key = "origin" if z == 0.0 else "axis"
            else:
                t = ((1.0 + mu) * z) ** 2 / (x * x + (1.0 + mu) * z * z) / (1.0 + mu)
                key = region_of(math.sqrt(t) * (1.0 - t) ** (-(1.0 + mu) / 2.0), mu).value
            counts[key] = counts.get(key, 0) + 1
    return {k: v / (GRID_NX * GRID_NZ) for k, v in counts.items()}


if __name__ == "__main__":
    # Summary of the inputs of one seed:  python3 perfbench/inputs.py [SEED]
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    shares = grid_region_shares()
    print("grid-map cells per window:", GRID_NX * GRID_NZ, "region shares:",
          ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items())))
    print("grid-map x extents:", ", ".join(f"{w['x_max']:.4f}" for w in _grid(seed)["windows"]))
    exp = _expansion(seed)
    print("expansion mu values:", ", ".join(f"{mu:.4f}" for mu in exp["mus"]))
    for op in exp["ops"]:
        print(f"  {op['label']:12s}", "; ".join(
            f"degree {j['degree']}{' +Q' if j['second_kind'] else ''} mu {j['mu']:.3f} "
            f"({len(j['samples'])} samples, {len(j['points'])} points)" for j in op["jobs"]))
    print("certify R0:", _certify(seed)["config"]["R0"])
