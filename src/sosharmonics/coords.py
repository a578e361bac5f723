"""Similar oblate spheroidal (SOS) coordinates (R, nu, lambda).

R-surfaces are the similar oblate spheroids x^2 + y^2 + (1+mu) z^2 = R^2,
nu-surfaces are rotated power functions z ~ rho^(1+mu), and lambda is the
usual longitude.  The dimensionless cone parameter

    W = (R/R0)^mu * sin(nu) / cos(nu)^(1+mu)

carries the whole angular dependence: every metric quantity is a function
of W alone times explicit R and dW/dnu factors.  Negative latitudes map by
mirror symmetry (W odd in nu, all metric quantities even).  The point
kernel and the inverse transform both solve the closed inversion with
`trig.solve_logit`, in log W, so W is never formed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOriginError, PoleLimitError
from .trig import closed_trig, s_limit, solve_logit

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
        if not (self.R > 0.0 and math.isfinite(self.R)):
            raise ValueError("R must be finite and positive")
        if not abs(self.nu) <= _HALF_PI:
            raise ValueError("nu must lie in [-pi/2, pi/2]")


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


def _check_off_pole(R: float, nu: float) -> None:
    if R <= 0.0:
        raise ValueError("R must be positive")
    if abs(nu) > _HALF_PI:
        raise ValueError("nu must lie in [-pi/2, pi/2]")
    if abs(nu) >= _HALF_PI:
        raise PoleLimitError("W diverges at |nu| = pi/2; use the pole closed forms")


def compute_W(R: float, nu: float, cfg: SystemConfig) -> float:
    """Cone parameter W; odd in nu, divergent at the poles."""
    _check_off_pole(R, nu)
    c = math.cos(nu)
    return (R / cfg.R0) ** cfg.mu * math.sin(nu) / c ** (1.0 + cfg.mu)


def dW(R: float, nu: float, cfg: SystemConfig) -> tuple[float, float, float, float]:
    """(dW/dnu, dW/dR, d2W/dnu2, d2W/dR2), all in closed form.

    dW/dnu = (R/R0)^mu (1 + mu sin^2 nu)/cos^(2+mu) nu   (always positive)
    dW/dR  = mu W / R
    d2W/dnu2 = W (2 + 3 mu + mu^2 sin^2 nu)/cos^2 nu
    d2W/dR2  = mu (mu - 1) W / R^2
    """
    mu = cfg.mu
    W = compute_W(R, nu, cfg)
    sn = math.sin(nu)
    cs = math.cos(nu)
    dw_dnu = (R / cfg.R0) ** mu * (1.0 + mu * sn * sn) / cs ** (2.0 + mu)
    dw_dR = mu * W / R
    d2w_dnu2 = W * (2.0 + 3.0 * mu + mu * mu * sn * sn) / (cs * cs)
    d2w_dR2 = mu * (mu - 1.0) * W / (R * R)
    return dw_dnu, dw_dR, d2w_dnu2, d2w_dR2


def closed_point(
    R: float, nu: float, cfg: SystemConfig
) -> tuple[float, float, MetricBundle]:
    """(s, f_C, metrics) at R > 0, |nu| < pi/2: the closed-form point kernel.

    log W = mu log(R/R0) + log sin nu - (1+mu) log cos nu is solved for the
    logit of t = s^2/(1+mu) (`trig.solve_logit`), so W itself is never
    formed.  With (dW/dnu)/W = (1 + mu sin^2 nu)/(sin nu cos nu),

        h_nu = R (1 + mu sin^2 nu) f_C (s/sin nu) / ((1+mu) cos nu),
        J = R h_nu f_C,

    where s/sin nu takes its limit sqrt(1+mu) (R/R0)^mu on the equator.
    s is odd in nu; f_C and the metrics are even.
    """
    _check_off_pole(R, nu)
    mu = cfg.mu
    sn = math.sin(abs(nu))
    cs = math.cos(nu)
    log_w_over_sn = mu * math.log(R / cfg.R0) - (1.0 + mu) * math.log(cs)
    x = solve_logit(log_w_over_sn + math.log(sn) if sn > 0.0 else -math.inf, mu)
    h_R, f_C, s = closed_trig(x, mu)
    s_over_sn = s / sn if sn > 0.0 else math.sqrt(1.0 + mu) * math.exp(log_w_over_sn)
    h_nu = R * (1.0 + mu * sn * sn) * f_C * s_over_sn / ((1.0 + mu) * cs)
    jac = R * h_nu * f_C
    metrics = MetricBundle(
        h_R=h_R,
        h_nu=h_nu,
        jacobian=jac,
        jac_over_hR2=jac / h_R**2,
        jac_over_hnu2=R * f_C / h_nu,
    )
    return (-s if nu < 0.0 else s), f_C, metrics


def metrics_at(R: float, nu: float, cfg: SystemConfig) -> MetricBundle:
    """Scale factors h_R, h_nu, the Jacobian and its h^2 ratios (`closed_point`)."""
    return closed_point(R, nu, cfg)[2]


def sos_to_cartesian(p: SosPoint, cfg: SystemConfig) -> CartesianPoint:
    """Forward transform; the poles take closed endpoint values.

    z = R s/(1+mu) and the axis distance is rho = R f_C/h_R.
    """
    mu = cfg.mu
    if abs(p.nu) >= _HALF_PI:
        rho = 0.0
        z = math.copysign(p.R / math.sqrt(1.0 + mu), p.nu)
    else:
        s, f_C, mb = closed_point(p.R, p.nu, cfg)
        z = p.R * s / (1.0 + mu)
        rho = p.R * f_C / mb.h_R
    return CartesianPoint(x=rho * math.cos(p.lam), y=rho * math.sin(p.lam), z=z)


def cartesian_R_s(x, y, z, mu: float):
    """R and s = (1+mu) z / R of Cartesian points, in closed form.

    R comes from the member-spheroid equation x^2 + y^2 + (1+mu) z^2 = R^2,
    as m sqrt((x/m)^2 + (y/m)^2 + (sqrt(1+mu) z/m)^2) with m the largest of
    |x|, |y|, sqrt(1+mu)|z|, so it neither overflows nor underflows; no nu
    root finding and no series are involved.  Axis points get the exact
    endpoint +-sqrt(1+mu), and rounding elsewhere is clamped into
    [-sqrt(1+mu), sqrt(1+mu)].

    x, y, z are floats, or floats and numpy arrays that broadcast together.
    Both take only correctly rounded operations, so an array gives the same
    bits as its elements one by one.  A float origin raises
    DegenerateOriginError; in an array the origin gets R = 0, for the
    caller to mask.
    """
    lim = s_limit(mu)
    u, v, w = abs(x), abs(y), abs(lim * z)
    array = isinstance(u + v + w, np.ndarray)
    if array:
        m = np.maximum(np.maximum(u, v), w)
        m = np.where(m == 0.0, 1.0, m)  # the origin: R = 0 below
    else:
        m = max(u, v, w)
        if m == 0.0:
            raise DegenerateOriginError("the origin has no SOS image")
    u, v, w = u / m, v / m, w / m
    R = m * (np.sqrt if array else math.sqrt)(u * u + v * v + w * w)
    if not array:
        if x == 0.0 and y == 0.0:
            return R, math.copysign(lim, z)
        return R, max(-lim, min(lim, (1.0 + mu) * z / R))
    axis = (x == 0.0) & (y == 0.0)
    with np.errstate(invalid="ignore"):  # 0/0 at the origin, an axis cell
        s = np.clip((1.0 + mu) * z / R, -lim, lim)
    return R, np.where(axis, np.copysign(lim, z), s)


def cartesian_to_sos(c: CartesianPoint, cfg: SystemConfig) -> SosPoint:
    """Inverse transform.

    R comes from `cartesian_R_s`.  With sqrt(t) = sqrt(1+mu)|z|/R and
    sqrt(1-t) = rho/R, t = s^2/(1+mu),

        log W = log sqrt(t) + (1+mu) log(R/rho),

    so W is never formed, and log sqrt(t) = log(|z|/R) + log1p(mu)/2 never
    forms (1+mu) z, which rounds at the subnormal spacing; where |z|/R is
    itself subnormal, log|z| - log R takes its place.  The logit
    x = log tan^2 nu solves x/2 + (mu/2) log(1 + e^x) = log W - mu log(R/R0),
    the equation `trig.solve_logit` inverts, and nu = atan(e^(x/2)).  Points on the
    rotation axis map to nu = +-pi/2 with lam = 0.
    """
    mu = cfg.mu
    R = cartesian_R_s(c.x, c.y, c.z, mu)[0]
    if c.x == 0.0 and c.y == 0.0:
        return SosPoint(R=R, nu=math.copysign(_HALF_PI, c.z), lam=0.0)
    if c.z == 0.0:
        log_sqrt_t = -math.inf
    else:
        q = abs(c.z) / R
        log_q = math.log(q) if q >= sys.float_info.min else math.log(abs(c.z)) - math.log(R)
        log_sqrt_t = log_q + 0.5 * math.log1p(mu)
    log_w = log_sqrt_t + (1.0 + mu) * math.log(R / math.hypot(c.x, c.y))
    x = solve_logit(log_w - mu * math.log(R / cfg.R0), mu)
    # atan(e^(x/2)), split so that neither exponential overflows
    nu = math.atan2(math.exp(min(x, 0.0) / 2.0), math.exp(-max(x, 0.0) / 2.0))
    return SosPoint(R=R, nu=math.copysign(nu, c.z), lam=math.atan2(c.y, c.x))
