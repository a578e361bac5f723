"""Interior axisymmetric harmonic expansion in SOS coordinates.

    V(R, s) = sum_n a_n (R/R0)^n P_n(s) + sum_n b_n (R/R0)^n Q_n(s)

with the generalized Legendre functions P_n, Q_n of the legendre module.
Each term is the classical solid harmonic (r/R0)^n P_n^cl(z/r) or
(r/R0)^n Q_n^cl(z/r) at the point's meridional (z, rho), and V is summed
there (`solid_V`: Clenshaw's pass `legendre.solid_sum` over floats or
arrays), with no mu and no s: a Cartesian point gives z and hypot(x, y),
an SOS point its closed (z, rho) (`coords.meridional`), and `fit_boundary`
takes the basis from `legendre.solid_values`.  `eval_V`/`sum_V` form z and
r^2 from s, which near the axis has already lost the digits of rho.
Degrees are dense 0..N.  Coefficients multiply the dimensionless (R/R0)^n,
in memory and in the JSON coefficient file alike ({"mu", "R0", "convention":
"R_over_R0", "a", "b"}); the radial factor rides inside the recursion, so a
term is finite wherever it is representable.

The point entries (`s_at_point`, `eval_V_at`, `eval_V_cartesian`) take
floats or arrays, a point record of arrays included.  The (z, rho) of a point
come from one numpy body (`coords.closed_solve`, with no metric, or
`_cartesian_meridional`), and a float call is one element of the array call
(`trig._point_kernel`), so each element has the bits and the exceptions of
its float call.  The Legendre sums stay on floats for a float point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import legendre
from .coords import (
    CartesianPoint,
    SosPoint,
    SystemConfig,
    _is_number,
    closed_solve,
    config_from_dict,
    meridional,
)
from .errors import DegenerateOriginError, RankDeficientError
from .trig import _point_kernel, s_limit

FILE_CONVENTION = "R_over_R0"


@dataclass(frozen=True)
class HarmonicSolution:
    """Expansion coefficients; a[n], b[n] multiply (R/R0)^n P_n(s), (R/R0)^n Q_n(s)."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    cfg: SystemConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if not all(math.isfinite(v) for v in self.a + self.b):
            raise ValueError("coefficients must be finite")

    @cached_property
    def terms(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """a and b without their trailing zeros: what `sum_V` sums."""
        return _trimmed(self.a), _trimmed(self.b)

    @property
    def has_second_kind(self) -> bool:
        return bool(self.terms[1])


def _trimmed(c: tuple[float, ...]) -> tuple[float, ...]:
    n = len(c)
    while n and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


@dataclass(frozen=True)
class FitDiagnostics:
    residual_norm: float
    condition: float
    rank: int
    n_params: int


def s_at_point(R, nu, cfg: SystemConfig):
    """Signed s at (R, nu), the poles included (`closed_solve`); floats or arrays."""
    return closed_solve(R, nu, cfg)[0]


def eval_V(sol: HarmonicSolution, R: float, s: float) -> float:
    """Potential at radial coordinate R and angular argument s (`sum_V`)."""
    if not (math.isfinite(R) and math.isfinite(s)):
        raise ValueError("R and s must be finite")
    if abs(s) > s_limit(sol.cfg.mu) * (1.0 + 1e-12):
        raise ValueError("s outside [-sqrt(1+mu), sqrt(1+mu)]")
    if R <= 0.0:
        raise ValueError("R must be positive")
    return sum_V(sol, R, s)


def sum_V(sol: HarmonicSolution, R, s):
    """The expansion's sum at R and s, floats or numpy arrays of one shape:
    `legendre.solid_sum` at z = r s/(1+mu) and r^2 = r (r (1 - mu s^2/(1+mu)^2)),
    r = R/R0 (nothing overflows before r^2 does); near the axis s has
    already lost the digits of rho, which `solid_V` keeps.

    No range checks (`eval_V` makes them for a point); the second-kind terms
    raise PoleDivergenceError if some s lies in the pole band of `legendre.q0`.
    """
    a, b = sol.terms
    mu, r = sol.cfg.mu, R / sol.cfg.R0
    e, q0_r = 1.0 + mu, None
    if b:
        q0, r1 = legendre.q0_meridional(*legendre.s_to_zrho(s, mu))
        q0_r = q0, r * r1
    return legendre.solid_sum(a, b, r * s / e, r * (r * (1.0 - mu * s * s / (e * e))), q0_r)


def solid_V(sol: HarmonicSolution, z, rho):
    """The expansion at meridional z, rho (length units), floats or arrays, each
    element with the float sum's bits; with b terms rho = 0 raises PoleDivergenceError."""
    a, b = sol.terms
    z, rho = z / sol.cfg.R0, rho / sol.cfg.R0
    return legendre.solid_sum(a, b, z, z * z + rho * rho, legendre.q0_meridional(z, rho) if b else None)


def eval_V_at(sol: HarmonicSolution, p: SosPoint):
    """Potential at an SOS point (of floats or arrays), at its closed (z, rho)
    (`coords.meridional`)."""
    return solid_V(sol, *meridional(p.R, p.nu, sol.cfg))


@_point_kernel
def _cartesian_meridional(c: CartesianPoint):
    """(z, rho) of a Cartesian point (of floats or arrays), rho = hypot(x, y).
    A non-finite coordinate raises ValueError, the origin
    DegenerateOriginError."""
    rho = np.hypot(c.x, c.y)
    if not (np.isfinite(rho) & np.isfinite(c.z)).all():
        raise ValueError("x, y and z must be finite")
    if ((rho == 0.0) & (c.z == 0.0)).any():
        raise DegenerateOriginError("the origin has no SOS image")
    return c.z, rho


def eval_V_cartesian(sol: HarmonicSolution, c: CartesianPoint):
    """Potential at a Cartesian point (of floats or arrays), at its
    `_cartesian_meridional` (z, rho): each element has the bits of its float call."""
    return solid_V(sol, *_cartesian_meridional(c))


def fit_boundary(
    samples,
    N: int,
    cfg: SystemConfig,
    include_second_kind: bool = False,
) -> tuple[HarmonicSolution, FitDiagnostics]:
    """Least-squares fit of boundary values on the reference spheroid.

    samples: sequence of (nu, V) pairs at R = R0, z/R0 = sin(nu)/sqrt(1+mu)
    and rho/R0 = cos(nu).  The generalized Legendre functions are not
    orthogonal, so the coefficients come from an orthogonal-factorization
    least-squares solve of the dense design matrix; the 2-norm residual and
    the design-matrix condition number are reported.  A column is
    P_n(s_j) = (r_j/R0)^n P_n^cl(z_j/r_j) with r_j/R0 in [(1+mu)^(-1/2), 1],
    so the condition grows exponentially in N, the faster the larger mu.
    """
    if N < 0:
        raise ValueError("degree must be non-negative")
    data = np.asarray(list(samples), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or not np.isfinite(data).all():
        raise ValueError("samples must be finite (nu, V) pairs")
    nus = data[:, 0]
    vals = data[:, 1]
    n_cols = (N + 1) * (2 if include_second_kind else 1)
    if len(nus) < n_cols:
        raise RankDeficientError(
            f"{len(nus)} samples cannot determine {n_cols} coefficients"
        )
    if np.any(np.abs(nus) > math.pi / 2):
        raise ValueError("nu must lie in [-pi/2, pi/2]")
    rho = np.where(np.abs(nus) == math.pi / 2, 0.0, np.cos(nus))
    p, q = legendre.solid_values(N, np.sin(nus) / math.sqrt(1.0 + cfg.mu), rho, include_second_kind)
    design = np.column_stack(p + q)

    coef, _, rank, sv = np.linalg.lstsq(design, vals, rcond=None)
    if rank < n_cols:
        raise RankDeficientError(
            f"design matrix rank {rank} < {n_cols}; samples cannot distinguish degrees"
        )
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
    residual_norm = float(np.linalg.norm(design @ coef - vals))

    sol = HarmonicSolution(a=tuple(coef[: N + 1]), b=tuple(coef[N + 1 :]), cfg=cfg)
    diag = FitDiagnostics(
        residual_norm=residual_norm, condition=condition, rank=int(rank), n_params=n_cols
    )
    return sol, diag


# --- coefficient file -------------------------------------------------------


def solution_to_dict(sol: HarmonicSolution) -> dict:
    """JSON payload; the coefficients are stored as they are held."""
    return {
        "mu": sol.cfg.mu,
        "R0": sol.cfg.R0,
        "convention": FILE_CONVENTION,
        "a": list(sol.a),
        "b": list(sol.b),
    }


def solution_from_dict(payload) -> HarmonicSolution:
    if not isinstance(payload, dict):
        raise ValueError("coefficient payload must be a JSON object")
    required = {"mu", "R0", "convention", "a", "b"}
    missing = required - payload.keys()
    if missing:
        raise ValueError(f"coefficient payload missing fields: {sorted(missing)}")
    if payload["convention"] != FILE_CONVENTION:
        raise ValueError(f"unknown coefficient convention {payload['convention']!r}")
    for key in ("a", "b"):
        if not isinstance(payload[key], list) or not all(map(_is_number, payload[key])):
            raise ValueError(f"field {key!r} must be an array of numbers")
    return HarmonicSolution(a=tuple(payload["a"]), b=tuple(payload["b"]), cfg=config_from_dict(payload))


def save_solution(sol: HarmonicSolution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_dict(sol), fh, indent=2)
        fh.write("\n")


def load_solution(path) -> HarmonicSolution:
    with open(path, encoding="utf-8") as fh:
        return solution_from_dict(json.load(fh))
