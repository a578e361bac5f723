"""Similar oblate spheroidal (SOS) coordinates (R, nu, lambda).

R-surfaces are the similar oblate spheroids x^2 + y^2 + (1+mu) z^2 = R^2,
nu-surfaces are rotated power functions z ~ rho^(1+mu), and lambda is the
usual longitude.  The dimensionless cone parameter

    W = (R/R0)^mu * sin(nu) / cos(nu)^(1+mu)

carries the whole angular dependence: every metric quantity is a function
of W alone times explicit R and dW/dnu factors.  Negative latitudes map by
mirror symmetry (W odd in nu, all metric quantities even).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateOriginError, PoleLimitError
from .series import DEFAULT_TOL, Region, eval_series, quantity_series, region_of
from .trig import trig_auto, trig_from_W_robust, w_from_s

_HALF_PI = math.pi / 2
# Newton stops on a step below this share of nu.  For tiny nu the log-form
# residual carries rounding noise of about eps * |target|, so the share
# grows with |target| there.
_NU_STEP_RTOL = 1e-15
_NU_MAX_ITER = 80
# Below this log target sin(nu) ~ nu and cos(nu) ~ 1, so exp(target) seeds
# Newton next to the root however small nu is
_SMALL_NU_LOG = math.log(1e-3)


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


def compute_W(R: float, nu: float, cfg: SystemConfig) -> float:
    """Cone parameter W; odd in nu, divergent at the poles."""
    if R <= 0.0:
        raise ValueError("R must be positive")
    if abs(nu) > _HALF_PI:
        raise ValueError("nu must lie in [-pi/2, pi/2]")
    if abs(nu) >= _HALF_PI:
        raise PoleLimitError("W diverges at |nu| = pi/2; use the pole closed forms")
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


def metrics_at(
    R: float, nu: float, cfg: SystemConfig, tol: float = DEFAULT_TOL
) -> MetricBundle:
    """Scale factors h_R, h_nu, the Jacobian and its h^2 ratios.

    Uses the region-appropriate series; inside the border guard band all
    members are rebuilt from the robust bundle, with h_nu obtained from

        h_R h_nu (1+mu) = f_C f_S (R/W) dW/dnu
    """
    mu = cfg.mu
    W = compute_W(R, nu, cfg)
    w = abs(W)
    dw_dnu = dW(R, nu, cfg)[0]
    sq = math.sqrt(1.0 + mu)

    region = region_of(w, mu)
    if region is Region.NEAR_BORDER:
        tb = trig_from_W_robust(w, mu)
        h_R = tb.h_R
        h_nu = R * dw_dnu * tb.f_S * tb.f_C / ((1.0 + mu) * w * h_R)
        h_lam = R * tb.f_C / h_R
        jac = h_R * h_nu * h_lam
        return MetricBundle(
            h_R=h_R,
            h_nu=h_nu,
            jacobian=jac,
            jac_over_hR2=jac / h_R**2,
            jac_over_hnu2=jac / h_nu**2,
        )

    h_R = math.sqrt(eval_series(quantity_series("hR2", mu, region), w, tol).value)
    s_nu = eval_series(quantity_series("Snu", mu, region), w, tol).value
    h_nu = R / sq * dw_dnu * math.sqrt(s_nu)
    jac = R * R / sq * dw_dnu * eval_series(
        quantity_series("jac", mu, region), w, tol
    ).value
    jac_hR2 = R * R / sq * dw_dnu * eval_series(
        quantity_series("jac_hR2", mu, region), w, tol
    ).value
    jac_hnu2 = sq / dw_dnu * eval_series(
        quantity_series("jac_hnu2", mu, region), w, tol
    ).value
    return MetricBundle(
        h_R=h_R,
        h_nu=h_nu,
        jacobian=jac,
        jac_over_hR2=jac_hR2,
        jac_over_hnu2=jac_hnu2,
    )


def sos_to_cartesian(
    p: SosPoint, cfg: SystemConfig, tol: float = DEFAULT_TOL
) -> CartesianPoint:
    """Forward transform; pole and equator use closed endpoint values.

    z = R s/(1+mu) and the axis distance is rho = R f_C/h_R.
    """
    mu = cfg.mu
    if abs(p.nu) >= _HALF_PI:
        rho = 0.0
        z = math.copysign(p.R / math.sqrt(1.0 + mu), p.nu)
    elif p.nu == 0.0:
        rho = p.R
        z = 0.0
    else:
        W = compute_W(p.R, abs(p.nu), cfg)
        tb = trig_auto(W, mu, tol)
        z = math.copysign(p.R * tb.s / (1.0 + mu), p.nu)
        rho = p.R * tb.f_C / tb.h_R
    return CartesianPoint(x=rho * math.cos(p.lam), y=rho * math.sin(p.lam), z=z)


def cartesian_to_sos(c: CartesianPoint, cfg: SystemConfig) -> SosPoint:
    """Inverse transform.

    R comes from the member-spheroid equation, s = (1+mu) z / R, W from the
    closed inversion of s, and nu from 1-D root finding on the strictly
    increasing W(nu) (bisection bracket, Newton polish).  Points on the
    rotation axis map to nu = +-pi/2 with lam = 0.
    """
    mu = cfg.mu
    R = math.sqrt(c.x * c.x + c.y * c.y + (1.0 + mu) * c.z * c.z)
    if R == 0.0:
        raise DegenerateOriginError("the origin has no SOS image")
    if c.x == 0.0 and c.y == 0.0:
        return SosPoint(R=R, nu=math.copysign(_HALF_PI, c.z), lam=0.0)
    lam = math.atan2(c.y, c.x)
    if c.z == 0.0:
        return SosPoint(R=R, nu=0.0, lam=lam)
    s = (1.0 + mu) * abs(c.z) / R
    W = w_from_s(s, mu)
    if W == 0.0:  # s so small that the inversion underflows
        return SosPoint(R=R, nu=math.copysign(0.0, c.z), lam=lam)
    nu = _invert_nu(W, R, cfg)
    return SosPoint(R=R, nu=math.copysign(nu, c.z), lam=lam)


def _invert_nu(W: float, R: float, cfg: SystemConfig) -> float:
    """Solve (R/R0)^mu sin(nu)/cos(nu)^(1+mu) = W for nu in (0, pi/2).

    Solved in log form: monotone with derivative
    (1 + mu sin^2 nu)/(sin nu cos nu).  Newton, kept inside a bracket that
    every residual narrows, starts from exp(target) for tiny nu and from
    a bisection otherwise, and stops on a relative step.
    """
    mu = cfg.mu
    target = math.log(W) - mu * math.log(R / cfg.R0)

    def g(nu: float) -> float:
        return math.log(math.sin(nu)) - (1.0 + mu) * math.log(math.cos(nu)) - target

    lo, hi = 0.0, _HALF_PI
    if target < _SMALL_NU_LOG:
        nu = math.exp(target)
        if nu == 0.0:
            return 0.0  # below the smallest positive float
    else:
        # bisect on the open interval: g -> -inf at 0+, +inf at pi/2-
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        nu = 0.5 * (lo + hi)
    tol = _NU_STEP_RTOL * max(1.0, -target)
    for _ in range(_NU_MAX_ITER):
        gv = g(nu)
        if gv > 0.0:
            hi = nu
        else:
            lo = nu
        sn = math.sin(nu)
        cs = math.cos(nu)
        step = gv * sn * cs / (1.0 + mu * sn * sn)
        if abs(step) <= tol * nu:
            return nu - step
        nu -= step
        if not lo < nu < hi:
            nu = 0.5 * (lo + hi)
    return nu
