"""Similar oblate spheroidal (SOS) coordinates (R, nu, lambda).

R-surfaces are the similar oblate spheroids x^2 + y^2 + (1+mu) z^2 = R^2,
nu-surfaces are rotated power functions z ~ rho^(1+mu), and lambda is the
usual longitude.  The dimensionless cone parameter

    W = (R/R0)^mu * sin(nu) / cos(nu)^(1+mu)

carries the whole angular dependence: every metric quantity is a function
of W alone times explicit R and dW/dnu factors.  Negative latitudes map by
mirror symmetry (W odd in nu, all metric quantities even).  Each input
kind has one closed body, `closed_solve` for (R, nu) and `cartesian_closed`
for (x, y, z); each solves the closed inversion once, in log W
(`trig.solve_logit`).  Only `closed_point` and `cartesian_point` add the
metrics (one h_nu/J tail), and raise where one leaves the float range, but
J and J/h_R^2 overflow to inf with no raise.  Each kernel forms
mu log(R/R0) once (`_log_scale`), so none depends on the size of R0.  An
(R, nu) point has one prologue, `_log_cone`, whose log|W| `closed_solve`
solves and `compute_W` exponentiates; `dW_dnu` sums the same logs.  Each
of the two is within a few u T of its exact value (u the unit roundoff,
T = |mu log(R/R0)| + (2+mu)(1 + |log cos nu|) + |log sin nu| + 4, the
conditioning of W), and inf only where that value overflows.  The poles
are a closed case of the prologue; only `compute_W` and `dW_dnu` refuse
them.  `closed_meridional` is the one meridional map.

The point kernels take floats or numpy arrays that broadcast together, and
each has one numpy body (`trig._point_kernel`).  A float call is one element
of the array call, returned as Python floats: it has that element's bits and
raises its exception (ValueError, PoleLimitError, DegenerateOriginError, a
metric's OverflowError or ZeroDivisionError), and an array raises where any
element would.  The records (`SosPoint`, `CartesianPoint`, `MetricBundle`)
hold floats, or arrays from array calls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOriginError, PoleLimitError
from .trig import _point_kernel, _softplus, closed_trig, s_limit, solve_logit

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class SystemConfig:
    """Spheroid family: oblateness mu and reference equatorial radius R0.

    Every member spheroid has semi-axis ratio (1+mu)^(-1/2); mu = 0 is the
    spherical limit.
    """

    mu: float
    R0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.mu >= 0.0 and math.isfinite(self.mu)):
            raise ValueError("mu must be finite and non-negative")
        if not (self.R0 > 0.0 and math.isfinite(self.R0)):
            raise ValueError("R0 must be finite and positive")


def _is_number(v) -> bool:
    """Whether v is a JSON number in the float range: an int or a float, not a bool."""
    return isinstance(v, float) or isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def config_from_dict(payload) -> SystemConfig:
    """The SystemConfig of a JSON object's "mu" and "R0", each a number
    (`_is_number`): KeyError where one is missing, ValueError where one is
    not a number or is out of range."""
    for key in ("mu", "R0"):
        if not _is_number(payload[key]):
            raise ValueError(f"field {key!r} must be a number")
    return SystemConfig(mu=float(payload["mu"]), R0=float(payload["R0"]))


@dataclass(frozen=True)
class SosPoint:
    """Position (R, nu, lam): member-spheroid equatorial radius, parametric
    latitude in [-pi/2, pi/2], longitude."""

    R: float
    nu: float
    lam: float = 0.0

    def __post_init__(self) -> None:
        _check_chart(self.R, self.nu)


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class MetricBundle:
    """Scale factors and Jacobian ratios at one point."""

    h_R: float
    h_nu: float
    jacobian: float
    jac_over_hR2: float
    jac_over_hnu2: float


def _check_chart(R, nu) -> None:
    """ValueError unless 0 < R < inf and |nu| <= pi/2 (so neither is NaN),
    for floats or arrays."""
    if not np.all((R > 0.0) & (R < math.inf)):
        raise ValueError("R must be finite and positive")
    if not np.all(abs(nu) <= _HALF_PI):
        raise ValueError("nu must lie in [-pi/2, pi/2]")


def _log_cone(R, nu, cfg: SystemConfig):
    """(R, nu, sin|nu|, cos nu, mu log(R/R0), log|W|) of (R, nu) broadcast;
    cos nu is 0 at the poles, where log|W| = +inf.  ValueError off the chart."""
    _check_chart(R, nu)
    R, nu = np.broadcast_arrays(R, nu)
    sn = np.sin(abs(nu))
    cs = np.where(abs(nu) < _HALF_PI, np.cos(nu), 0.0)  # cos(pi/2) rounds to 6e-17
    log_scale = _log_scale(R, cfg)
    return R, nu, sn, cs, log_scale, log_scale - (1.0 + cfg.mu) * np.log(cs) + np.log(sn)


def _off_pole(R, nu, cfg: SystemConfig):
    """`_log_cone`, with PoleLimitError at |nu| = pi/2, where W diverges."""
    cone = _log_cone(R, nu, cfg)
    if (cone[3] == 0.0).any():
        raise PoleLimitError("W diverges at |nu| = pi/2; use the pole closed forms")
    return cone


@_point_kernel
def compute_W(R, nu, cfg: SystemConfig):
    """Cone parameter W = e^(log|W|) with the sign of nu (`_log_cone`), odd in
    nu; floats or arrays."""
    _, nu, *_, log_w = _off_pole(R, nu, cfg)
    return np.copysign(np.exp(log_w), nu)


@_point_kernel
def dW_dnu(R, nu, cfg: SystemConfig):
    """dW/dnu = (R/R0)^mu (1 + mu sin^2 nu)/cos^(2+mu) nu > 0 as the exp of its
    log, mu log(R/R0) + log1p(mu sin^2 nu) - (2+mu) log cos nu; floats or arrays."""
    _, _, sn, cs, log_scale, _ = _off_pole(R, nu, cfg)
    return np.exp(log_scale + np.log1p(cfg.mu * sn * sn) - (2.0 + cfg.mu) * np.log(cs))


def _log_scale(R, cfg: SystemConfig):
    """mu log(R/R0), floats or arrays: one log of the ratio R/R0 where it is
    a normal float, so the result does not depend on the size of R0;
    log R - log R0 where the ratio overflows or is subnormal."""
    ratio = R / cfg.R0
    normal = (sys.float_info.min <= ratio) & (ratio < math.inf)
    return cfg.mu * np.where(normal, np.log(ratio), np.log(R) - math.log(cfg.R0))


def _metrics(R, s, f_C, h_R, sn, cs, log_scale, cfg: SystemConfig) -> MetricBundle:
    """Metrics from |s|, f_C, h_R, sn = sin|nu|, cs = cos nu and
    log_scale = mu log(R/R0) (`_log_scale`).

    (dW/dnu)/W = (1 + mu sn^2)/(sn cs) gives h_nu = R (1 + mu sn^2) f_C (s/sn)
    / ((1+mu) cs) and J = R h_nu f_C.  Where s is below the normal range
    (the equator, or an s whose digits underflowed) s/sn is its limit
    sqrt(1+mu) (R/R0)^mu / cs^(1+mu), as W = s/sqrt(1+mu) there.  The pole
    cs = 0 has h_nu = R (R0/R)^(mu/(1+mu)) and J = 0, and f_C = 0 gives it
    zero ratios.  Any element raises OverflowError where that limit
    overflows, and ZeroDivisionError where sn underflows to 0 at a normal s
    or h_nu underflows.
    """
    mu, e = cfg.mu, 1.0 + cfg.mu
    pole, tiny = cs == 0.0, s < sys.float_info.min
    log_lift = log_scale - e * np.log(np.where(tiny, cs, 1.0))
    lift = np.exp(np.where(tiny, log_lift, 0.0))
    if np.isinf(lift).any():
        raise OverflowError("math range error")
    s_over_sn = np.where(tiny, math.sqrt(e) * lift, s / np.where(tiny, 1.0, sn))
    h_nu = R * (1.0 + mu * sn * sn) * f_C * s_over_sn / (e * np.where(pole, 1.0, cs))
    # R h_nu may overflow at the pole, and J is 0 there
    h_nu = np.where(pole, R ** (1.0 / e) * cfg.R0 ** (mu / e), h_nu)
    jac = np.where(pole, 0.0, R * h_nu * f_C)
    if ((h_nu == 0.0) | (sn == 0.0) & (s >= sys.float_info.min)).any():
        raise ZeroDivisionError("float division by zero")
    return MetricBundle(
        h_R=h_R,
        h_nu=h_nu,
        jacobian=jac,
        jac_over_hR2=jac / h_R**2,
        jac_over_hnu2=R * f_C / h_nu,
    )


def _solve(R, nu, cfg: SystemConfig):
    """`closed_solve`, then R, sin|nu|, cos nu and mu log(R/R0) for `_metrics`."""
    R, nu, sn, cs, log_scale, log_w = _log_cone(R, nu, cfg)
    h_R, f_C, s = closed_trig(solve_logit(log_w, cfg.mu), cfg.mu)
    return np.where(nu < 0.0, -s, s), f_C, h_R, log_w, R, sn, cs, log_scale


@_point_kernel
def closed_solve(R, nu, cfg: SystemConfig):
    """(s, f_C, h_R, log|W|) at R > 0, |nu| <= pi/2, with no metric formed:
    log|W| = mu log(R/R0) - (1+mu) log cos nu + log sin|nu| is solved for the
    logit of t = s^2/(1+mu) (`trig.solve_logit`); it is +inf at the poles,
    which get s = +-sqrt(1+mu) and f_C = 0.  s is odd in nu, the rest even.
    R and nu are floats, or arrays that broadcast together."""
    return _solve(R, nu, cfg)[:4]


@_point_kernel
def closed_point(R, nu, cfg: SystemConfig):
    """(s, f_C, metrics, log|W|): `closed_solve` and the metrics (`_metrics`)."""
    s, f_C, h_R, log_w, R, sn, cs, log_scale = _solve(R, nu, cfg)
    return s, f_C, _metrics(R, abs(s), f_C, h_R, sn, cs, log_scale, cfg), log_w


def metrics_at(R: float, nu: float, cfg: SystemConfig) -> MetricBundle:
    """Scale factors h_R, h_nu, the Jacobian and its h^2 ratios (`closed_point`)."""
    return closed_point(R, nu, cfg)[2]


def closed_meridional(R, s, f_C, h_R, mu: float):
    """The meridional (z, rho) = (R s/(1+mu), R f_C/h_R) of a closed point's
    R, s, f_C and h_R; floats or arrays."""
    return R * s / (1.0 + mu), R * f_C / h_R


def meridional(R, nu, cfg: SystemConfig):
    """(z, rho) from `closed_solve` (`closed_meridional`), poles included;
    floats or arrays."""
    s, f_C, h_R, _ = closed_solve(R, nu, cfg)
    return closed_meridional(R, s, f_C, h_R, cfg.mu)


@_point_kernel
def sos_to_cartesian(p: SosPoint, cfg: SystemConfig) -> CartesianPoint:
    """Forward transform from the point's `meridional` (z, rho), with no
    metric formed; a point of floats or of arrays that broadcast together."""
    R, nu, lam = np.broadcast_arrays(p.R, p.nu, p.lam)
    z, rho = meridional(R, nu, cfg)
    return CartesianPoint(x=rho * np.cos(lam), y=rho * np.sin(lam), z=z)


@_point_kernel
def cartesian_R_s(x, y, z, mu: float):
    """R and s = (1+mu) z / R of Cartesian points, in closed form.

    R comes from the member-spheroid equation x^2 + y^2 + (1+mu) z^2 = R^2,
    as m sqrt((x/m)^2 + (y/m)^2 + (sqrt(1+mu) z/m)^2) with m the largest of
    |x|, |y|, sqrt(1+mu)|z|, so it neither overflows nor underflows; no nu
    root finding and no series are involved.  Axis points get the exact
    endpoint +-sqrt(1+mu), and rounding elsewhere is clamped into
    [-sqrt(1+mu), sqrt(1+mu)].

    x, y, z are floats, or floats and numpy arrays that broadcast together.
    An origin raises DegenerateOriginError.
    """
    lim = s_limit(mu)
    u, v, w = abs(x), abs(y), abs(lim * z)
    m = np.maximum(np.maximum(u, v), w)
    if (m == 0.0).any():
        raise DegenerateOriginError("the origin has no SOS image")
    u, v, w = u / m, v / m, w / m
    R = m * np.sqrt(u * u + v * v + w * w)
    s = np.clip((1.0 + mu) * z / R, -lim, lim)
    return R, np.where((x == 0.0) & (y == 0.0), np.copysign(lim, z), s)


@_point_kernel
def cartesian_closed(x, y, z, mu: float):
    """(R, s, h_R, f_C, log|W|) of Cartesian points, closed, with no solve.

    R and s are `cartesian_R_s`'s, h_R = (1 + mu t)^(-1/2) and
    f_C = h_R rho/R, with t = s^2/(1+mu) and rho the axis distance.  The
    logit of t is x_t = log1p(mu) + 2 log(|z|/rho), and log|W| =
    ((1+mu) softplus(x_t) - softplus(-x_t))/2 forms neither W, nor (1+mu) z,
    nor a log(R/rho) near 0 to be multiplied by 1+mu.  A |z|/rho beyond the
    normal range takes log|z| - log rho.  log|W| is -inf on the
    equator and +inf on the axis.  Floats or arrays, as `cartesian_R_s`.
    """
    R, s = cartesian_R_s(x, y, z, mu)
    e = 1.0 + mu
    rho = np.hypot(x, y)
    r = abs(z) / rho
    normal = (sys.float_info.min <= r) & (r < math.inf)
    x_t = math.log1p(mu) + 2.0 * np.where(normal, np.log(r), np.log(abs(z)) - np.log(rho))
    log_w = 0.5 * (e * np.logaddexp(0.0, x_t) - np.logaddexp(0.0, -x_t))
    h_R = np.sqrt(e / (e + mu * s * s))
    return R, s, h_R, rho / R * h_R, log_w


def _solve_nu(x, y, z, log_w, log_scale, mu: float):
    """(nu, lam, sin|nu|, cos nu): t = log tan^2 nu solves
    t/2 + (mu/2) log(1 + e^t) = log W - log_scale (`trig.solve_logit`), with
    log_scale = mu log(R/R0) (`_log_scale`), and sin^2 nu, cos^2 nu are the
    logistic function of t and of -t."""
    t = solve_logit(log_w - log_scale, mu)
    sp, sp_neg = _softplus(t)
    sn, cs = np.exp(-0.5 * sp_neg), np.exp(-0.5 * sp)
    return np.copysign(np.arctan2(sn, cs), z), np.arctan2(y, x), sn, cs


@_point_kernel
def cartesian_R_nu(x, y, z, cfg: SystemConfig):
    """(R, nu, lam) of Cartesian points, floats or arrays that broadcast
    together: the inverse transform, R and log|W| from `cartesian_closed`
    and nu from one logit solve.  The origin raises DegenerateOriginError."""
    R, _, _, _, log_w = cartesian_closed(x, y, z, cfg.mu)
    return (R, *_solve_nu(x, y, z, log_w, _log_scale(R, cfg), cfg.mu)[:2])


def cartesian_to_sos(c: CartesianPoint, cfg: SystemConfig) -> SosPoint:
    """Inverse transform: `cartesian_R_nu` as a point."""
    return SosPoint(*cartesian_R_nu(c.x, c.y, c.z, cfg))


@_point_kernel
def cartesian_point(
    c: CartesianPoint, cfg: SystemConfig
) -> tuple[SosPoint, float, float, MetricBundle, float]:
    """(point, s, f_C, metrics, log|W|) at a Cartesian point: R, s, h_R, f_C
    and log|W| from `cartesian_closed`, nu, h_nu and J from one logit solve;
    no float nu is inverted.  The axis gets the closed pole metrics."""
    R, s, h_R, f_C, log_w = cartesian_closed(c.x, c.y, c.z, cfg.mu)
    log_scale = _log_scale(R, cfg)
    nu, lam, sn, cs = _solve_nu(c.x, c.y, c.z, log_w, log_scale, cfg.mu)
    return SosPoint(R, nu, lam), s, f_C, _metrics(R, abs(s), f_C, h_R, sn, cs, log_scale, cfg), log_w
