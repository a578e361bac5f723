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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NonConvergentError, RegionViolationError

#: Guard factor defining the refused band [gamma*W_border, W_border/gamma].
BORDER_GUARD = 0.9

#: Hard cap on summed terms before giving up.
TERM_CAP = 20000

#: Default relative truncation tolerance.
DEFAULT_TOL = 1e-14

# Stop only after this many consecutive negligible terms; protects against
# transient small terms from sign-alternating coefficients.
_CONSECUTIVE_SMALL = 3

# Partial products are rescaled via frexp outside this magnitude window.
_RESCALE_HI = 1e200
_RESCALE_LO = 1e-200


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


def _term(a: float, b: float, x: float, k: int, cauchy: bool) -> float:
    """k-th series term, computed by a running product of bounded factors.

    For the S_C family the a/(a+bk) factor is folded in analytically
    (a * falling(a+bk-1, k-1) / k!), so a+bk passing through zero is safe.
    Partial products are frexp-rescaled to survive deep-k evaluations.
    """
    alpha = a + b * k
    m = 1.0
    shift = 0
    for j in range(k):
        if cauchy and j == 0:
            m *= a * x
        else:
            m *= (alpha - j) * x / (j + 1.0)
        if m == 0.0:
            return 0.0
        am = abs(m)
        if am > _RESCALE_HI or am < _RESCALE_LO:
            m, e = math.frexp(m)
            shift += e
    return math.ldexp(m, shift)


def eval_series(spec: SeriesSpec, W: float, tol: float = DEFAULT_TOL) -> SeriesResult:
    """Adaptively truncated sum of the series at parameter W >= 0.

    For the large-nu region the leading W-power prefactors are included, so
    the returned value is the full quantity.  Raises RegionViolationError if
    W is on the wrong side of the border and NonConvergentError if the
    stopping rule is not met within the term cap.
    """
    if W < 0:
        raise ValueError("W must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu = spec.mu
    border = w_border(mu)
    if spec.region is Region.SMALL_NU:
        if W >= border:
            raise RegionViolationError(
                f"W={W} is not inside the small-nu region (border {border})"
            )
        b = -mu
        x = W * W
    else:
        if W <= border:
            raise RegionViolationError(
                f"W={W} is not inside the large-nu region (border {border})"
            )
        b = mu / (1.0 + mu)
        x = W ** (-2.0 / (1.0 + mu))

    cauchy = spec.kind is SeriesKind.SC
    total = 1.0  # k = 0 term of both families
    small_run = 0
    last = 0.0  # x = 0 keeps only the exact k = 0 term
    terms = 1
    if x != 0.0:
        for k in range(1, TERM_CAP + 1):
            t = _term(spec.a, b, x, k, cauchy)
            total += t
            terms = k + 1
            last = t
            if abs(t) <= tol * abs(total):
                small_run += 1
                if small_run == _CONSECUTIVE_SMALL:
                    break
            else:
                small_run = 0
        else:
            raise NonConvergentError(
                f"no convergence within {TERM_CAP} terms (a={spec.a}, mu={mu}, W={W})"
            )

    if spec.region is Region.LARGE_NU:
        pref = W ** (2.0 * spec.a)
        if spec.kind is SeriesKind.SA:
            pref /= 1.0 + mu
        value = pref * total
    else:
        value = total

    est = abs(last) / abs(total) if total != 0.0 else 0.0
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
