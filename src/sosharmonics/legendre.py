"""Generalized Legendre functions for the SOS interior harmonics.

First-kind functions P_n are polynomials in s = f_S/h_R built by the
Bonnet-like three-term recursion

    P_(n+1) = (2n+1)/(n+1) * s P_n/(1+mu) - n/(n+1) * (1 - mu s^2/(1+mu)^2) P_(n-1)

seeded with P_0 = 1, P_1 = s/(1+mu).  Second-kind functions compose as

    Q_n(s) = P_n(s) Q_0(s) - T_n(s) * sqrt((1+mu)^2 - mu s^2)

where T_n follows the same recursion from T_0 = 0, T_1 = 1/(1+mu), and Q_0
is a logarithm with a singularity on the rotation axis |s| = sqrt(1+mu).
At mu = 0 everything reduces to the classical Legendre P_n and Q_n.

Closed reference forms for n <= 6 (exact bracket polynomials in mu with
rational normalizers) are kept separate from the recursion so the two can
certify each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import PoleDivergenceError

_POLE_MARGIN = 1e-12


@dataclass(frozen=True)
class GenLegendrePoly:
    """Polynomial in s: coeffs[j] multiplies s^j, length degree+1."""

    degree: int
    coeffs: tuple[float, ...]
    mu: float


@dataclass(frozen=True)
class SecondKindFn:
    """Q_n as the pair (P_n, T_n) entering the log/sqrt composition."""

    degree: int
    p_part: GenLegendrePoly
    t_part: GenLegendrePoly
    mu: float


# Keyed on float mu, so a scan over many mu needs the bound; 1024 entries
# hold P_n and T_n of degrees 0..24 for 20 values of mu at once.
@lru_cache(maxsize=1024)
def _recursion_coeffs(n: int, mu: float, t_seed: bool) -> tuple[float, ...]:
    if n == 0:
        return (0.0,) if t_seed else (1.0,)
    if n == 1:
        return (1.0 / (1.0 + mu), 0.0) if t_seed else (0.0, 1.0 / (1.0 + mu))
    prev2 = _recursion_coeffs(n - 2, mu, t_seed)
    prev1 = _recursion_coeffs(n - 1, mu, t_seed)
    m = n - 1
    out = [0.0] * (n + 1)
    c_s = (2.0 * m + 1.0) / (m + 1.0) / (1.0 + mu)
    c_0 = m / (m + 1.0)
    c_2 = c_0 * mu / (1.0 + mu) ** 2
    for j, c in enumerate(prev1):
        out[j + 1] += c_s * c
    for j, c in enumerate(prev2):
        out[j] -= c_0 * c
        out[j + 2] += c_2 * c
    return tuple(out)


def p_poly(n: int, mu: float) -> GenLegendrePoly:
    """First-kind polynomial P_n by the three-term recursion."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return GenLegendrePoly(degree=n, coeffs=_recursion_coeffs(n, mu, False), mu=mu)


def t_poly(n: int, mu: float) -> GenLegendrePoly:
    """Polynomial part T_n of the second-kind composition (same recursion)."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    return GenLegendrePoly(degree=n, coeffs=_recursion_coeffs(n, mu, True), mu=mu)


def second_kind(n: int, mu: float) -> SecondKindFn:
    return SecondKindFn(degree=n, p_part=p_poly(n, mu), t_part=t_poly(n, mu), mu=mu)


def eval_poly(p: GenLegendrePoly, s: float) -> float:
    """Horner evaluation."""
    v = 0.0
    for c in reversed(p.coeffs):
        v = v * s + c
    return v


def eval_poly_deriv(p: GenLegendrePoly, s: float, order: int = 1) -> float:
    """Analytic derivative by coefficient shift, order 1 or 2."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    v = 0.0
    if order == 1:
        for j in range(len(p.coeffs) - 1, 0, -1):
            v = v * s + j * p.coeffs[j]
    else:
        for j in range(len(p.coeffs) - 1, 1, -1):
            v = v * s + j * (j - 1) * p.coeffs[j]
    return v


def _check_q_domain(s: float, mu: float) -> None:
    if abs(s) >= math.sqrt(1.0 + mu) * (1.0 - _POLE_MARGIN):
        raise PoleDivergenceError(
            "second-kind functions diverge on the rotation axis |s| = sqrt(1+mu)"
        )


def q0(s: float, mu: float) -> float:
    """Zeroth second-kind function.

    q0(s) = 1/2 ln( [s + sqrt((1+mu)^2 - mu s^2)]^2 / ((1+mu)((1+mu) - s^2)) )

    Odd in s; reduces to 1/2 ln((1+s)/(1-s)) at mu = 0.  Evaluated through
    log1p of the exact increment 2|s|(|s| + g)/((1+mu)((1+mu) - s^2)), which
    keeps small-s accuracy and exact parity.
    """
    _check_q_domain(s, mu)
    a = abs(s)
    g = math.sqrt((1.0 + mu) ** 2 - mu * a * a)
    inc = 2.0 * a * (a + g) / ((1.0 + mu) * ((1.0 + mu) - a * a))
    return math.copysign(0.5 * math.log1p(inc), s)


def dq0_ds(s: float, mu: float) -> float:
    """First derivative of q0: (1+mu)/(((1+mu)-s^2) sqrt((1+mu)^2 - mu s^2))."""
    _check_q_domain(s, mu)
    g = math.sqrt((1.0 + mu) ** 2 - mu * s * s)
    return (1.0 + mu) / (((1.0 + mu) - s * s) * g)


def d2q0_ds2(s: float, mu: float) -> float:
    """Second derivative of q0."""
    _check_q_domain(s, mu)
    g2 = (1.0 + mu) ** 2 - mu * s * s
    num = (1.0 + mu) * s * ((3.0 * mu + 2.0) * (1.0 + mu) - 3.0 * mu * s * s)
    return num / (((1.0 + mu) - s * s) ** 2 * g2 * math.sqrt(g2))


def eval_q(n: int, s: float, mu: float) -> float:
    """Second-kind function Q_n(s) via the P/T composition."""
    _check_q_domain(s, mu)
    fn = second_kind(n, mu)
    g = math.sqrt((1.0 + mu) ** 2 - mu * s * s)
    return eval_poly(fn.p_part, s) * q0(s, mu) - eval_poly(fn.t_part, s) * g


def eval_q_derivs(n: int, s: float, mu: float) -> tuple[float, float, float]:
    """(Q_n, Q_n', Q_n'') by the product rule with analytic q0 derivatives."""
    _check_q_domain(s, mu)
    fn = second_kind(n, mu)
    g2 = (1.0 + mu) ** 2 - mu * s * s
    g = math.sqrt(g2)
    dg = -mu * s / g
    d2g = -mu / g - mu * mu * s * s / (g2 * g)
    P = eval_poly(fn.p_part, s)
    dP = eval_poly_deriv(fn.p_part, s, 1)
    d2P = eval_poly_deriv(fn.p_part, s, 2)
    T = eval_poly(fn.t_part, s)
    dT = eval_poly_deriv(fn.t_part, s, 1)
    d2T = eval_poly_deriv(fn.t_part, s, 2)
    q = q0(s, mu)
    dq = dq0_ds(s, mu)
    d2q = d2q0_ds2(s, mu)
    Q = P * q - T * g
    dQ = dP * q + P * dq - dT * g - T * dg
    d2Q = d2P * q + 2.0 * dP * dq + P * d2q - d2T * g - 2.0 * dT * dg - T * d2g
    return Q, dQ, d2Q


def ode_residual(
    F: float, dF: float, d2F: float, s: float, K_d: float, mu: float
) -> float:
    """Residual of the generalized Legendre equation at one point.

    [(1+mu)-s^2][(1+mu)^2-mu s^2] F''
      + s[-(3mu+2)(1+mu) + 2mu(1+mu)K_d + mu(3-2K_d)s^2] F'
      + K_d[(K_d-2)mu s^2 + (1+mu)K_d + (1+mu)^2] F

    Zero iff (F, F', F'') is sampled from a solution of degree K_d.  K_d is
    accepted as a real so non-integer separation constants can be probed.
    """
    one = 1.0 + mu
    t2 = (one - s * s) * (one * one - mu * s * s) * d2F
    t1 = s * (-(3.0 * mu + 2.0) * one + 2.0 * mu * one * K_d + mu * (3.0 - 2.0 * K_d) * s * s) * dF
    t0 = K_d * ((K_d - 2.0) * mu * s * s + one * K_d + one * one) * F
    return t2 + t1 + t0


# --- closed reference forms (independent of the recursion) ------------------


def _bracket_poly(n: int, mu: float, t_form: bool) -> tuple[tuple[int, float], ...]:
    """(power, coefficient) pairs of the bracket polynomial for n <= 6.

    The full function is the bracket divided by (1+mu)^n and the power-of-two
    normalizer baked into the coefficients below.
    """
    m = mu
    e = 1.0 + mu
    if not t_form:
        table = {
            0: ((0, 1.0),),
            1: ((1, 1.0),),
            2: ((2, (m + 3.0) / 2.0), (0, -(e**2) / 2.0)),
            3: ((3, (3.0 * m + 5.0) / 2.0), (1, -3.0 * e**2 / 2.0)),
            4: (
                (4, (3.0 * m * m + 30.0 * m + 35.0) / 8.0),
                (2, -6.0 * (m + 5.0) * e**2 / 8.0),
                (0, 3.0 * e**4 / 8.0),
            ),
            5: (
                (5, (15.0 * m * m + 70.0 * m + 63.0) / 8.0),
                (3, -10.0 * (3.0 * m + 7.0) * e**2 / 8.0),
                (1, 15.0 * e**4 / 8.0),
            ),
            6: (
                (6, (5.0 * m**3 + 105.0 * m * m + 315.0 * m + 231.0) / 16.0),
                (4, -5.0 * (3.0 * m * m + 42.0 * m + 63.0) * e**2 / 16.0),
                (2, 15.0 * (m + 7.0) * e**4 / 16.0),
                (0, -5.0 * e**6 / 16.0),
            ),
        }
    else:
        table = {
            0: (),
            1: ((0, 1.0),),
            2: ((1, 3.0 / 2.0),),
            3: ((2, (4.0 * m / 3.0 + 5.0) / 2.0), (0, -(4.0 / 3.0) * e**2 / 2.0)),
            4: (
                (3, (55.0 * m / 3.0 + 35.0) / 8.0),
                (1, -(55.0 / 3.0) * e**2 / 8.0),
            ),
            5: (
                (4, (64.0 * m * m / 15.0 + 49.0 * m + 63.0) / 8.0),
                (2, -(128.0 * m / 15.0 + 49.0) * e**2 / 8.0),
                (0, (64.0 / 15.0) * e**4 / 8.0),
            ),
            6: (
                (5, (231.0 * m * m / 5.0 + 238.0 * m + 231.0) / 16.0),
                (3, -(462.0 * m / 5.0 + 238.0) * e**2 / 16.0),
                (1, (231.0 / 5.0) * e**4 / 16.0),
            ),
        }
    return table[n]


def _reference_poly(n: int, mu: float, t_form: bool) -> GenLegendrePoly:
    if not 0 <= n <= 6:
        raise ValueError("closed reference forms exist for n <= 6 only")
    coeffs = [0.0] * (n + 1)
    norm = (1.0 + mu) ** n
    for power, coef in _bracket_poly(n, mu, t_form):
        coeffs[power] = coef / norm
    return GenLegendrePoly(degree=n, coeffs=tuple(coeffs), mu=mu)


def p_reference(n: int, mu: float) -> GenLegendrePoly:
    """Closed form of P_n for n <= 6; the recursion's independent witness."""
    return _reference_poly(n, mu, t_form=False)


def t_reference(n: int, mu: float) -> GenLegendrePoly:
    """Closed form of T_n for n <= 6."""
    return _reference_poly(n, mu, t_form=True)
