"""Similar oblate spheroidal (SOS) coordinates (R, nu, lambda).

R-surfaces are the similar oblate spheroids x^2 + y^2 + (1+mu) z^2 = R^2,
nu-surfaces are rotated power functions z ~ rho^(1+mu), and lambda is the
usual longitude.  The dimensionless cone parameter

    W = (R/R0)^mu * sin(nu) / cos(nu)^(1+mu)

carries the whole angular dependence: every metric quantity is a function
of W alone times explicit R and dW/dnu factors.  Negative latitudes map by
mirror symmetry (W odd in nu, all metric quantities even).  Each input
kind has one closed body, `closed_point` for (R, nu) and `cartesian_closed`
for (x, y, z); each solves the closed inversion once, in log W
(`trig.solve_logit`), and both share one h_nu/J tail.  The poles are a
closed case of it; only `compute_W` refuses them.

The point kernels take floats or numpy arrays that broadcast together, and
each has one numpy body (`trig._point_kernel`).  A float call is one element
of the array call, returned as Python floats: it has that element's bits and
raises its exception (ValueError, OverflowError, ZeroDivisionError,
DegenerateOriginError), and an array raises where any element would.  The
records (`SosPoint`, `CartesianPoint`, `MetricBundle`) hold floats, or
arrays from array calls.
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


@dataclass(frozen=True)
class SosPoint:
    """Position (R, nu, lam): member-spheroid equatorial radius, parametric
    latitude in [-pi/2, pi/2], longitude."""

    R: float
    nu: float
    lam: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.R).all():
            raise ValueError("R must be finite and positive")
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
    """ValueError unless R > 0 and |nu| <= pi/2 (so not NaN), for floats or
    arrays."""
    if not np.all(R > 0.0):
        raise ValueError("R must be positive")
    if not np.all(abs(nu) <= _HALF_PI):
        raise ValueError("nu must lie in [-pi/2, pi/2]")


def _cone(R, nu, cfg: SystemConfig):
    """(W, R, sin nu, cos nu, (R/R0)^mu), R and nu broadcast: the body of
    `compute_W` and `dW`.  Raises ZeroDivisionError where cos^(1+mu) nu
    underflows, then OverflowError where (R/R0)^mu overflows."""
    _check_chart(R, nu)
    if np.any(abs(nu) >= _HALF_PI):
        raise PoleLimitError("W diverges at |nu| = pi/2; use the pole closed forms")
    R, nu = np.broadcast_arrays(R, nu)
    sn, cs = np.sin(nu), np.cos(nu)
    cos_w = np.power(cs, 1.0 + cfg.mu)
    if not cos_w.all():
        raise ZeroDivisionError("float division by zero")
    scale = np.power(R / cfg.R0, cfg.mu)
    if np.isinf(scale).any():
        raise OverflowError("math range error")
    return scale * sn / cos_w, R, sn, cs, scale


@_point_kernel
def compute_W(R, nu, cfg: SystemConfig):
    """Cone parameter W; odd in nu, divergent at the poles.  Floats or arrays."""
    return _cone(R, nu, cfg)[0]


@_point_kernel
def dW(R, nu, cfg: SystemConfig):
    """(dW/dnu, dW/dR, d2W/dnu2, d2W/dR2), all in closed form; floats or arrays.

    dW/dnu = (R/R0)^mu (1 + mu sin^2 nu)/cos^(2+mu) nu   (always positive)
    dW/dR  = mu W / R
    d2W/dnu2 = W (2 + 3 mu + mu^2 sin^2 nu)/cos^2 nu
    d2W/dR2  = mu (mu - 1) W / R / R

    An entry beyond the float range is inf, as d2W/dR2 is at R = 0.5e-163,
    R0 = 1e-163.  It raises `compute_W`'s errors, and ZeroDivisionError
    where cos^(2+mu) nu underflows.
    """
    mu = cfg.mu
    W, R, sn, cs, scale = _cone(R, nu, cfg)
    cos_dw = np.power(cs, 2.0 + mu)
    if not cos_dw.all():
        raise ZeroDivisionError("float division by zero")
    dw_dnu = scale * (1.0 + mu * sn * sn) / cos_dw
    dw_dR = mu * W / R
    d2w_dnu2 = W * (2.0 + 3.0 * mu + mu * mu * sn * sn) / (cs * cs)
    d2w_dR2 = mu * (mu - 1.0) * W / R / R
    return dw_dnu, dw_dR, d2w_dnu2, d2w_dR2


def _metrics(R, s, f_C, h_R, sn, cs, cfg: SystemConfig) -> MetricBundle:
    """Metrics from |s|, f_C, h_R, sn = sin|nu| and cs = cos nu.

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
    log_lift = mu * (np.log(R) - math.log(cfg.R0)) - e * np.log(np.where(tiny, cs, 1.0))
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


@_point_kernel
def closed_point(R, nu, cfg: SystemConfig):
    """(s, f_C, metrics, log|W|) at R > 0, |nu| <= pi/2: the SOS point kernel.

    log|W| = mu (log R - log R0) - (1+mu) log cos nu + log sin|nu| is solved
    for the logit of t = s^2/(1+mu) (`trig.solve_logit`); it is +inf at the poles,
    which get s = +-sqrt(1+mu) and f_C = 0.  s is odd in nu, the rest even.
    R and nu are floats, or arrays that broadcast together.
    """
    _check_chart(R, nu)
    mu = cfg.mu
    R, nu = np.broadcast_arrays(R, nu)
    sn = np.sin(abs(nu))
    cs = np.where(abs(nu) < _HALF_PI, np.cos(nu), 0.0)  # cos(pi/2) rounds to 6e-17
    log_w = mu * (np.log(R) - math.log(cfg.R0)) - (1.0 + mu) * np.log(cs) + np.log(sn)
    h_R, f_C, s = closed_trig(solve_logit(log_w, mu), mu)
    return np.where(nu < 0.0, -s, s), f_C, _metrics(R, s, f_C, h_R, sn, cs, cfg), log_w


def metrics_at(R: float, nu: float, cfg: SystemConfig) -> MetricBundle:
    """Scale factors h_R, h_nu, the Jacobian and its h^2 ratios (`closed_point`)."""
    return closed_point(R, nu, cfg)[2]


def meridional(R, nu, cfg: SystemConfig):
    """(z, rho) = (R s/(1+mu), R f_C/h_R) from `closed_point`, poles included;
    floats or arrays."""
    s, f_C, mb, _ = closed_point(R, nu, cfg)
    return R * s / (1.0 + cfg.mu), R * f_C / mb.h_R


@_point_kernel
def sos_to_cartesian(p: SosPoint, cfg: SystemConfig) -> CartesianPoint:
    """Forward transform from the point's `meridional` (z, rho); a point of
    floats or of arrays that broadcast together."""
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


def _solve_nu(x, y, z, R, log_w, cfg: SystemConfig):
    """(nu, lam, sin|nu|, cos nu): t = log tan^2 nu solves
    t/2 + (mu/2) log(1 + e^t) = log W - mu (log R - log R0) (`trig.solve_logit`),
    and sin^2 nu, cos^2 nu are the logistic function of t and of -t."""
    mu = cfg.mu
    t = solve_logit(log_w - mu * (np.log(R) - math.log(cfg.R0)), mu)
    sp, sp_neg = _softplus(t)
    sn, cs = np.exp(-0.5 * sp_neg), np.exp(-0.5 * sp)
    return np.copysign(np.arctan2(sn, cs), z), np.arctan2(y, x), sn, cs


@_point_kernel
def cartesian_R_nu(x, y, z, cfg: SystemConfig):
    """(R, nu, lam) of Cartesian points, floats or arrays that broadcast
    together: the inverse transform, R and log|W| from `cartesian_closed`
    and nu from one logit solve.  The origin raises DegenerateOriginError."""
    R, _, _, _, log_w = cartesian_closed(x, y, z, cfg.mu)
    return (R, *_solve_nu(x, y, z, R, log_w, cfg)[:2])


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
    nu, lam, sn, cs = _solve_nu(c.x, c.y, c.z, R, log_w, cfg)
    return SosPoint(R, nu, lam), s, f_C, _metrics(R, abs(s), f_C, h_R, sn, cs, cfg), log_w
