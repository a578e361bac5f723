"""Pólya–Szegő power series with generalized binomial coefficients.

Every analytic quantity of the similar oblate spheroidal (SOS) coordinate
system (metric scale factors, Jacobian, generalized sine/cosine) is one of
two series families in the dimensionless cone parameter W:

    S_A = sum_k  C(a + b*k, k) * x^k
    S_C = sum_k  a/(a + b*k) * C(a + b*k, k) * x^k

where C is the generalized binomial coefficient.  The small-nu region uses
b = -mu and x = W^2; the large-nu region uses b = mu/(1+mu) and
x = W^(-2/(1+mu)), together with the leading W-power prefactors that make
the returned value the full physical quantity:

    S_A(large) = W^(2a)/(1+mu) * sum(...),   S_C(large) = W^(2a) * sum(...)

Convergence switches sides at W_border = sqrt(mu^mu / (1+mu)^(1+mu)), and a
guard band around the border is refused.  Every evaluation path takes the
closed forms of the trig and coords modules; these series are the witness
that `verify` checks those closed forms against.

Each term costs O(1), whatever k.  C(alpha, k) = Gamma(p)/(Gamma(K+1) Gamma(q))
with p = q + K, and its log is taken in the grouped Stirling form

    (q - 1/2) log1p(K/q) + K log(p/(K+1)) - log(K+1)/2 + 1 - log(2 pi)/2
        + w(p) - w(K+1) - w(q)

where w is the Binet remainder of Stirling's formula (DLMF §5.11), so no two
large log-gammas are subtracted.  alpha > k-1 takes (q, K) = (alpha-k+1, k);
alpha < 0 the reflection C(alpha, k) = (-1)^k C(k-alpha-1, k); and
0 <= alpha <= k-1 the sine-reflected form, which is an exact 0 at integer
alpha.  The S_C term is (a/k) C(a+bk-1, k-1) x^k.

The sum stops when a bound on its whole tail is below tol*|sum|: the largest
of the last three term envelopes times r/(1-r).  The envelope is |term| with
the sine factor set to 1, which is smooth in k; r is the limiting term ratio,
(W/W_border)^2 on the small-nu side and (W_border/W)^(2/(1+mu)) on the
large-nu side, or the envelope's own last ratio where that is larger.
`est_rel_error` is that tail bound plus a running bound on the rounding error
of the terms and of their correctly rounded sum (`math.fsum`), relative to
the value: a bound on the true relative error, not a guess at it.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import NonConvergentError, RegionViolationError

#: Guard factor defining the refused band [gamma*W_border, W_border/gamma].
BORDER_GUARD = 0.9

#: Hard cap on summed terms before giving up.
TERM_CAP = 20000

#: Default relative truncation tolerance.
DEFAULT_TOL = 1e-14

# Unit roundoff, and the factor by which each term's rounding bound covers
# the roundings of the logs, the exp and the sine that form it.
_U = sys.float_info.epsilon / 2
_ROUNDING_FACTOR = 4.0

_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_CONST = 1.0 - _HALF_LOG_2PI  # the constant of the grouped form

# Below this the Binet remainder is lgamma minus Stirling's main part, whose
# rounding error is a few units of roundoff of lgamma(10) ~ 13 per argument;
# the scale below covers the two or three small arguments of one ratio.
_STIRLING_FROM = 10.0
_SMALL_Z_SCALE = 32.0


class Region(enum.Enum):
    """Convergence region of the series in W."""

    SMALL_NU = "SmallNu"
    LARGE_NU = "LargeNu"
    NEAR_BORDER = "NearBorder"


class SeriesKind(enum.Enum):
    SA = "SA"
    SC = "SC"


@dataclass(frozen=True)
class SeriesSpec:
    """One member of the series family.

    The pair (epsilon, b) is fixed by the region and the family constant mu;
    it is never user-settable.
    """

    a: float
    mu: float
    region: Region
    kind: SeriesKind

    def __post_init__(self) -> None:
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if self.region is Region.NEAR_BORDER:
            raise ValueError("a series cannot be evaluated in the guard band")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    est_rel_error: float


def gen_binom(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for real alpha.

    C(alpha, k) = prod_{j=0}^{k-1} (alpha - j) / k!, with C(alpha, 0) = 1.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    out = 1.0
    for j in range(k):
        out *= (alpha - j) / (j + 1.0)
    return out


def w_border(mu: float) -> float:
    """Border value of W separating the two convergence regions."""
    if mu == 0.0:
        return 1.0
    # sqrt(mu^mu/(1+mu)^(1+mu)) in a form that cannot overflow
    return math.exp(-0.5 * mu * math.log1p(1.0 / mu)) / math.sqrt(1.0 + mu)


def region_of(W: float, mu: float, guard: float = BORDER_GUARD) -> Region:
    """Classify |W| against the convergence border with a guard band."""
    border = w_border(mu)
    w = abs(W)
    if w < guard * border:
        return Region.SMALL_NU
    if w > border / guard:
        return Region.LARGE_NU
    return Region.NEAR_BORDER


def _binet(z: float) -> float:
    """Binet remainder lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), z > 0.

    From z = 10 on it is the Stirling series, cut where the next term is
    below 1e-17; below that, lgamma minus Stirling's main part.
    """
    r = 1.0 / (z * z)
    if z >= 600.0:
        return (1.0 / 12.0 - r / 360.0) / z
    if z >= 90.0:
        return (1.0 / 12.0 + r * (-1.0 / 360.0 + r / 1260.0)) / z
    if z >= _STIRLING_FROM:
        # B_2j / (2j (2j-1)) for j = 1..7
        return (
            1.0 / 12.0
            + r * (-1.0 / 360.0
            + r * (1.0 / 1260.0
            + r * (-1.0 / 1680.0
            + r * (1.0 / 1188.0
            + r * (-691.0 / 360360.0
            + r / 156.0)))))
        ) / z
    return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI


def _log_gamma_ratio(q: float, K: float) -> tuple[float, float]:
    """log(Gamma(q+K) / (Gamma(K+1) Gamma(q))) for q > 0, K >= 0, and its scale.

    The scale is the sum of the magnitudes of the pieces; the value's
    rounding error is a few units of roundoff times it.
    """
    p = q + K
    lead = (q - 0.5) * math.log1p(K / q)
    mid = K * math.log(p / (K + 1.0))
    half = 0.5 * math.log1p(K)
    value = lead + mid - half + _STIRLING_CONST + _binet(p) - _binet(K + 1.0) - _binet(q)
    scale = abs(lead) + abs(mid) + half + 1.0
    if q < _STIRLING_FROM or K + 1.0 < _STIRLING_FROM:  # p is the largest
        scale += _SMALL_Z_SCALE
    return value, scale


def _kernel(
    a: float, b: float, bm1: float, log_x: float, k: int, cauchy: bool
) -> tuple[float, float, float]:
    """k-th term (k >= 1), its smooth envelope and a bound on its rounding error.

    The term is C(alpha, m) x^k with alpha = a + b k and m = k, or in the S_C
    family (a/k) C(alpha, m) x^k with alpha = a + b k - 1 and m = k - 1.
    gap = alpha - m + 1 is the same for both; it is formed from bm1 = b - 1
    so that k does not cancel against alpha.  The error bound is a few
    roundoffs times the magnitudes of the logs summed into the term, plus
    the effect of the rounding of gap where the term depends on it sharply.
    """
    gap = (a + 1.0) + bm1 * k
    log_env = k * log_x
    scale = abs(log_env) + 2.0
    sign = 1.0
    if cauchy:
        if a == 0.0:
            return 0.0, 0.0, 0.0
        if a < 0.0:
            sign = -1.0
        lead = math.log(abs(a) / k)
        log_env += lead
        scale += abs(lead)
        alpha, m = (a - 1.0) + b * k, k - 1
        if m == 0:
            env = math.exp(log_env)
            return sign * env, env, _ROUNDING_FACTOR * _U * scale * env
    else:
        alpha, m = a + b * k, k
    if alpha < 0.0:  # C(alpha, m) = (-1)^m C(m - alpha - 1, m)
        lg, sc = _log_gamma_ratio(-alpha, float(m))
        env = math.exp(log_env + lg)
        if m & 1:
            sign = -sign
        return sign * env, env, _ROUNDING_FACTOR * _U * (scale + sc) * env
    d_gap = 2.0 * _U * (abs(a + 1.0) + abs(bm1 * k))
    if gap > 0.0:  # alpha > m - 1
        lg, sc = _log_gamma_ratio(gap, float(m))
        env = math.exp(log_env + lg)
        # 1/Gamma(gap) moves by about (log1p(m/gap) + 1/gap) per unit of gap
        sc += (math.log1p(m / gap) + 1.0 / gap) * d_gap / _U
        return sign * env, env, _ROUNDING_FACTOR * _U * (scale + sc) * env
    # 0 <= alpha <= m - 1: C = sin(pi gap) Gamma(alpha+1) Gamma(1-gap) / (pi m!)
    n = round(gap)
    sine = math.sin(math.pi * (gap - n))
    if n & 1:
        sine = -sine
    lg, sc = _log_gamma_ratio(alpha + 1.0, -gap)
    log_m = math.log(m)
    env = math.exp(log_env - _LOG_PI - log_m - lg)
    term = sign * sine * env
    err = _ROUNDING_FACTOR * _U * (scale + sc + log_m + 2.0) * abs(term)
    return term, env, err + math.pi * d_gap * env


def _term(a: float, b: float, x: float, k: int, cauchy: bool) -> float:
    """k-th term of the S_A (or, with cauchy, S_C) series at x > 0."""
    if k == 0:
        return 1.0
    return _kernel(a, b, b - 1.0, math.log(x), k, cauchy)[0]


def eval_series(spec: SeriesSpec, W: float, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Sum of the series at parameter W >= 0, truncated by its tail bound.

    For the large-nu region the leading W-power prefactors are included, so
    the returned value is the full quantity.  Raises RegionViolationError if
    W is on the wrong side of the border and NonConvergentError if the tail
    bound does not fall below tol * |sum| within the term cap.
    """
    if W < 0:
        raise ValueError("W must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu = spec.mu
    border = w_border(mu)
    log_w = math.log(W) if W > 0.0 else -math.inf
    log_border = math.log(border)
    if spec.region is Region.SMALL_NU:
        if W >= border:
            raise RegionViolationError(
                f"W={W} is not inside the small-nu region (border {border})"
            )
        b, bm1 = -mu, -(1.0 + mu)
        log_x = 2.0 * log_w
        log_rho = 2.0 * (log_w - log_border)
    else:
        if W <= border:
            raise RegionViolationError(
                f"W={W} is not inside the large-nu region (border {border})"
            )
        b, bm1 = mu / (1.0 + mu), -1.0 / (1.0 + mu)
        log_x = -2.0 * log_w / (1.0 + mu)
        log_rho = 2.0 * (log_border - log_w) / (1.0 + mu)
    rho = math.exp(log_rho)

    a = spec.a
    cauchy = spec.kind is SeriesKind.SC
    kept = [1.0]  # k = 0 term of both families
    rounding = tail = 0.0
    if log_x != -math.inf:
        partial = 1.0
        # the tail test can pass only once an envelope is below cut * |partial|
        cut = tol * (1.0 - rho) / rho if rho > 0.0 else math.inf
        e1 = e2 = e3 = 0.0  # envelopes of the last three terms
        for k in range(1, TERM_CAP + 1):
            t, env, err = _kernel(a, b, bm1, log_x, k, cauchy)
            kept.append(t)
            partial += t
            rounding += err
            e1, e2, e3 = e2, e3, env
            if k < 3 or env > cut * abs(partial):
                continue
            if env <= rho * e2:
                r = rho
            else:
                r = env / e2 if e2 > 0.0 else math.inf
            if r < 1.0:
                tail = max(e1, e2, e3) * r / (1.0 - r)
                if tail <= tol * abs(partial):
                    break
        else:
            raise NonConvergentError(
                f"no convergence within {TERM_CAP} terms (a={a}, mu={mu}, W={W})"
            )
    total = math.fsum(kept)

    # the correctly rounded sum and the large-nu prefactor add a few roundings
    ops = 1.0
    if spec.region is Region.LARGE_NU:
        pref = W ** (2.0 * a)
        if spec.kind is SeriesKind.SA:
            pref /= 1.0 + mu
        value = pref * total
        ops += 3.0
    else:
        value = total

    terms = len(kept)
    if terms == 1:
        est = 0.0
    elif total == 0.0:
        est = math.inf
    else:
        est = (tail + rounding) / abs(total) + ops * _U
    return SeriesResult(value=value, terms_used=terms, est_rel_error=est)


def _region_a(a_small: float, mu: float, region: Region) -> float:
    """Series parameter for a quantity: a is (1+mu)-times smaller in the large region."""
    if region is Region.SMALL_NU:
        return a_small
    return a_small / (1.0 + mu)


_QUANTITY_TABLE = {
    # name: (small-region a, kind); the large region divides a by (1+mu)
    "hR2": (lambda mu: 0.0, SeriesKind.SA),
    "fC2": (lambda mu: -1.0, SeriesKind.SA),
    "fS2": (lambda mu: -(1.0 + mu), SeriesKind.SA),
    "Snu": (lambda mu: -(mu + 2.0), SeriesKind.SA),
    "jac": (lambda mu: -(mu + 3.0) / 2.0, SeriesKind.SA),
    "jac_hR2": (lambda mu: -(mu + 3.0) / 2.0, SeriesKind.SC),
    "jac_hnu2": (lambda mu: (mu + 1.0) / 2.0, SeriesKind.SC),
}


def quantity_series(name: str, mu: float, region: Region) -> SeriesSpec:
    """Series family member behind a named SOS quantity.

      hR2       h_R^2                      S_A, a = 0
      fC2       f_C^2                      S_A, a = -1
      fS2       f_S^2 / ((1+mu) W^2)       S_A, a = -(1+mu)
      Snu       squared h_nu part          S_A, a = -(mu+2)
      jac       Jacobian part              S_A, a = -(mu+3)/2
      jac_hR2   (J/h_R^2) part             S_C, a = -(mu+3)/2
      jac_hnu2  (J/h_nu^2) part            S_C, a = (mu+1)/2

    External prefactors ((1+mu) W^2 for fS2, the R and dW/dnu factors of the
    metric quantities) are applied by the consuming modules.
    """
    a_small, kind = _QUANTITY_TABLE[name]
    return SeriesSpec(a=_region_a(a_small(mu), mu, region), mu=mu, region=region, kind=kind)
