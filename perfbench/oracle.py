"""Independent mpmath oracle for the interior SOS expansion.

V(R, s) = sum a_n R^n P_n(s) + sum b_n R^n Q_n(s) is evaluated here by the
three-term value recursion of P_n and T_n in 30-digit arithmetic, with
Q_n = P_n q0 - T_n sqrt((1+mu)^2 - mu s^2), and with R and s taken from the
closed forms R = sqrt(x^2 + (1+mu) z^2), s = (1+mu) z / R.  None of the
program's evaluation paths (power-basis coefficients, nu root finding, the
Polya-Szego series) is used.

All coefficients here multiply plain R^n with R0 = 1, the convention of
every input the benchmark makes.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30


def _pt_values(n_max: int, s, mu) -> tuple[list, list]:
    """P_0..P_n_max and T_0..T_n_max at s by the Bonnet-like recursion."""
    e = 1 + mu
    p = [mp.mpf(1), s / e]
    t = [mp.mpf(0), 1 / e]
    damp = 1 - mu * s * s / (e * e)
    for m in range(1, n_max):
        c1 = mp.mpf(2 * m + 1) / (m + 1) * s / e
        c0 = mp.mpf(m) / (m + 1) * damp
        p.append(c1 * p[m] - c0 * p[m - 1])
        t.append(c1 * t[m] - c0 * t[m - 1])
    return p, t


def potential(a, b, R: float, s: float, mu: float) -> tuple[float, float]:
    """(V, scale) at (R, s); scale is the sum of the absolute terms.

    The scale bounds the size of the partial sums, so an error relative to
    it measures the evaluation, not the cancellation between terms.
    """
    s_ = mp.mpf(s)
    mu_ = mp.mpf(mu)
    R_ = mp.mpf(R)
    n_max = max(len(a), len(b), 2) - 1
    p, t = _pt_values(n_max, s_, mu_)
    value = mp.mpf(0)
    scale = mp.mpf(0)
    rn = mp.mpf(1)
    for n, an in enumerate(a):
        term = an * rn * p[n]
        value += term
        scale += abs(term)
        rn *= R_
    if b:
        e = 1 + mu_
        g = mp.sqrt(e * e - mu_ * s_ * s_)
        q0 = mp.log((s_ + g) ** 2 / (e * (e - s_ * s_))) / 2
        rn = mp.mpf(1)
        for n, bn in enumerate(b):
            term = bn * rn * (p[n] * q0 - t[n] * g)
            value += term
            scale += abs(term)
            rn *= R_
    return float(value), float(scale)


def cell_potential(a, b, x: float, z: float, mu: float) -> tuple[float, float] | None:
    """Oracle value of a meridional grid cell, or None where V has no value.

    The origin has no SOS image, and second-kind terms diverge on the axis.
    """
    R = math.sqrt(x * x + (1.0 + mu) * z * z)
    if R == 0.0:
        return None
    if x == 0.0 and any(v != 0.0 for v in b):
        return None
    s = (1.0 + mu) * z / R
    return potential(a, b, R, s, mu)
