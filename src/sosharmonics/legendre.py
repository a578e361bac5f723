"""Generalized Legendre functions for the SOS interior harmonics.

The paper's P_n are polynomials in s = f_S/h_R from the Bonnet-like step
P_(n+1) = (2n+1)/(n+1) s P_n/(1+mu) - n/(n+1) (1 - mu s^2/(1+mu)^2) P_(n-1),
P_0 = 1, P_1 = s/(1+mu); Q_n = P_n Q_0 - T_n sqrt((1+mu)^2 - mu s^2) with T_n
from the same step (T_0 = 0, T_1 = 1/(1+mu)), Q_0 logarithmic on the axis
|s| = sqrt(1+mu).  At every mu, R^n P_n(s) = r^n P_n^cl(z/r) and
R^n Q_n(s) = r^n Q_n^cl(z/r) at the point's meridional (z, rho),
r^2 = z^2 + rho^2 (DLMF 14.10), so evaluation runs the classical solid step
u_(n+1) = ((2n+1) z u_n - n r^2 u_(n-1))/(n+1): no mu enters, and r^2 is a
sum that does not cancel near the axis.  `solid_values` gives the basis and
`solid_sum` a whole expansion (Clenshaw); `values`/`eval_q` run the same
forward loop at R = R0, z = s/(1+mu), r^2 = 1 - mu s^2/(1+mu)^2, where the
damped step in s has the same coefficients; `q0` forms z and rho from s
(`s_to_zrho`), which near the axis has already lost the digits of rho.
The damped step in s stays only where it certifies the paper's recursion:
`value_derivs`/`q_derivs` (the ODE residual) and the power-basis witness
`p_poly`/`t_poly` (entry j multiplies s^j), checked against closed
reference forms for n <= 6.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleDivergenceError

_POLE_MARGIN = 1e-12
_AXIS = "second-kind functions diverge on the rotation axis"


def _step_tables(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(A, B) with A[m] = (2m+1)/(m+1) and B[m] = m/(m+1) for m < n at least.

    Growing at least doubles the pair and replaces it whole; each caller
    gets the pair it checked or built, long enough for it even while other
    threads grow the shared one."""
    global _STEPS
    steps = _STEPS
    if len(steps[0]) < n:
        size = range(max(n, 2 * len(steps[0])))
        steps = (
            tuple((2.0 * m + 1.0) / (m + 1.0) for m in size),
            tuple(m / (m + 1.0) for m in size),
        )
        _STEPS = steps
    return steps


_STEPS: tuple[tuple[float, ...], tuple[float, ...]] = ((), ())
_step_tables(64)


def _sqrt(s):
    """np.sqrt for an array s, math.sqrt for a float."""
    return np.sqrt if isinstance(s, np.ndarray) else math.sqrt


def s_to_zrho(s, mu: float):
    """(z, rho) = (s/(1+mu), sqrt(((1+mu) - s^2)/(1+mu))) at R = R0 and
    argument s, floats or numpy arrays; an s in the pole band raises
    PoleDivergenceError.  Near the axis a rounded s has already lost the
    digits of rho, so the s entry points gain nothing there."""
    _check_q_domain(s, mu)
    e = 1.0 + mu
    return s / e, _sqrt(s)((e - s * s) / e)


def solid_values(N: int, z, rho, second_kind: bool = False) -> tuple[list, list]:
    """([r^n P_n^cl(z/r)], [r^n Q_n^cl(z/r)]) for n = 0..N at floats or
    arrays z, rho, by the forward solid step (`_forward`); the Q list is
    empty unless second_kind, and then rho = 0 raises PoleDivergenceError."""
    if N < 0:
        raise ValueError("degree must be non-negative")
    q_r = q0_meridional(z, rho) if second_kind else None
    return _forward(N, z, z * z + rho * rho, 0.0 * (z + rho), q_r)


def values(N: int, s, mu: float, second_kind: bool = False) -> tuple[list, list]:
    """([P_n(s)], [Q_n(s)]) for n = 0..N: the forward solid step (`_forward`)
    at R = R0, z = s/(1+mu) and r^2 = 1 - mu s^2/(1+mu)^2, where the paper's
    damped step in s has the same coefficients.  The Q list, seeded from
    `q0_meridional` at `s_to_zrho`(s), is empty unless second_kind, and then
    an s in the pole band raises PoleDivergenceError; P is defined for every
    s.  s is a float or a numpy array; every value has its type and shape."""
    if N < 0:
        raise ValueError("degree must be non-negative")
    e = 1.0 + mu
    q_r = q0_meridional(*s_to_zrho(s, mu)) if second_kind else None
    return _forward(N, s / e, 1.0 - mu * s * s / (e * e), 0.0 * s, q_r)


def _forward(N: int, z, r2, zero, q_r) -> tuple[list, list]:
    """([r^n P_n^cl(z/r)], [r^n Q_n^cl(z/r)]) for n = 0..N by the forward
    solid step u_(n+1) = ((2n+1) z u_n - n r^2 u_(n-1))/(n+1) at z and
    r2 = r^2; zero (0.0, or an array of zeros) gives the P seeds their shape.
    The Q list, seeded with Q_0 = q0 and r Q_1 = z q0 - r from
    q_r = (q0, r), is empty if q_r is None."""
    kinds = [[zero + 1.0, zero + z]]
    if q_r is not None:
        q, r = q_r
        kinds.append([q, z * q - r])
    A, B = _step_tables(N)
    for m in range(1, N):
        u, v = A[m] * z, B[m] * r2
        for f in kinds:
            f.append(u * f[m] - v * f[m - 1])
    return kinds[0][: N + 1], (kinds[1][: N + 1] if q_r is not None else [])


def solid_sum(a, b, z, r2, q0_r):
    """sum_n a[n] r^n P_n^cl(z/r) + b[n] r^n Q_n^cl(z/r) at floats or arrays
    z and r2 = r^2, by Clenshaw's backward pass (MTAC 9 (1955) 118-120) over
    the solid step: y_k = c_k + A_k z y_(k+1) - B_(k+1) r^2 y_(k+2), closed
    by F_0 y_0 + (F_1 - z F_0) y_1, which is y_0 for P and q0 y_0 - r y_1 for
    Q, with (q0, r) = q0_r (`q0_meridional`), needed only if b is nonempty.

    A nonempty a or b must end in a nonzero entry (a trailing zero could
    meet an overflowed factor and give NaN).  Arrays take the operations of
    floats in the same order, so an element has the bits of the float sum;
    at arrays the sum is an array of their shape, whatever the degree."""
    if len(a) > 1:
        total = _backward(a, z, r2)[0]
    else:  # a constant: a_0, or 0
        total = a[0] if a else 0.0
    points = z + r2
    # a constant, or degree 1 (which never meets r2) at a float z
    if isinstance(points, np.ndarray) and np.shape(total) != points.shape:
        total = np.full(points.shape, total)
    if b:
        q, r = q0_r
        y0, y1 = _backward(b, z, r2)
        total = total + q * y0
        if len(b) > 1:
            total = total - r * y1
    return total


def _backward(c, z, r2):
    """(y_0, y_1) of the backward pass over c.

    y_(n+1) = 0 is left out of the first step rather than multiplied by an
    overflowed r^2."""
    n = len(c) - 1
    A, B = _step_tables(n + 1)
    y1, y2 = c[n], 0.0
    if n:
        y1, y2 = c[n - 1] + A[n - 1] * z * y1, y1
    for k in range(n - 2, -1, -1):
        y1, y2 = c[k] + A[k] * z * y1 - B[k + 1] * r2 * y2, y1
    return y1, y2


def q0_meridional(z, rho):
    """(q0, r) = (atanh(z/r), |(z, rho)|) at floats or arrays z, rho:
    q0 = copysign(log1p((|z|/rho)(1 + |z|/(r + rho))), z), as r - rho =
    z^2/(r + rho), and r = m sqrt((z/m)^2 + (rho/m)^2), m = max(|z|, rho),
    neither cancel nor under- or overflow.  numpy's log1p serves floats too
    (math's rounds differently), so an array has the bits of its elements.
    rho = 0, or a |z|/rho beyond the float range (q0 = inf), raises
    PoleDivergenceError, at a float and at any element of an array."""
    array = isinstance(z + rho, np.ndarray)
    if np.any(rho == 0.0) if array else rho == 0.0:
        raise PoleDivergenceError(_AXIS)
    if array:
        with np.errstate(over="ignore"):  # |z|/rho overflows to the raise below
            q, r = _q0_r(z, rho, True)
    else:
        q, r = _q0_r(z, rho, False)
    if np.any(q == math.inf) if array else q == math.inf:
        raise PoleDivergenceError(_AXIS)
    return (np.copysign if array else math.copysign)(q, z), r


def _q0_r(z, rho, array: bool):
    """(|q0|, r) of `q0_meridional` at rho > 0, unchecked (|q0| = inf where
    |z|/rho leaves the float range), on numpy's functions if array."""
    u = abs(z)
    m = np.maximum(u, rho) if array else max(u, rho)
    r = m * (np.sqrt if array else math.sqrt)((u / m) * (u / m) + (rho / m) * (rho / m))
    return np.log1p(u / rho * (1.0 + u / (r + rho))), r


def value_derivs(N: int, s, mu: float) -> tuple[list, list]:
    """(F, F', F'') triples of P_0..P_N and of T_0..T_N at s, by the paper's
    damped step in s differentiated once and twice; s is a float or an
    array, whose elements have the bits of the float run."""
    if N < 0:
        raise ValueError("degree must be non-negative")
    e = 1.0 + mu
    # the damping factor of the step and its first two s-derivatives
    damp = 1.0 - mu * s * s / (e * e)
    damp1, damp2 = -2.0 * mu * s / (e * e), -2.0 * mu / (e * e)
    A, B = _step_tables(N)

    def run(f):
        for m in range(1, N):
            c_s, c_0 = A[m] / e, B[m]
            (f0, df0, d2f0), (f1, df1, d2f1) = f[m - 1], f[m]
            f.append((
                c_s * s * f1 - c_0 * damp * f0,
                c_s * (f1 + s * df1) - c_0 * (damp * df0 + damp1 * f0),
                c_s * (2.0 * df1 + s * d2f1) - c_0 * (damp * d2f0 + 2.0 * damp1 * df0 + damp2 * f0),
            ))
        return f[: N + 1]

    return run([(1.0, 0.0, 0.0), (s / e, 1.0 / e, 0.0)]), run([(0.0,) * 3, (1.0 / e, 0.0, 0.0)])


def _witness(n: int, mu: float, prev: list, cur: list) -> tuple[float, ...]:
    """Power-basis coefficients of the degree-n member seeded with prev, cur."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    A, B = _step_tables(n)
    for m in range(1, n):
        c_s, c_0 = A[m] / (1.0 + mu), B[m]
        c_2 = c_0 * mu / (1.0 + mu) ** 2
        nxt = [0.0] * (m + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += c_s * c
        for j, c in enumerate(prev):
            nxt[j] -= c_0 * c
            nxt[j + 2] += c_2 * c
        prev, cur = cur, nxt
    return tuple(cur if n else prev)


def p_poly(n: int, mu: float) -> tuple[float, ...]:
    """Power-basis witness of P_n, for the closed-table checks."""
    return _witness(n, mu, [1.0], [0.0, 1.0 / (1.0 + mu)])


def t_poly(n: int, mu: float) -> tuple[float, ...]:
    """Power-basis witness of T_n, the polynomial part of Q_n."""
    return _witness(n, mu, [0.0], [1.0 / (1.0 + mu), 0.0])


def _check_q_domain(s, mu: float) -> None:
    """Refuse an s (a float or an array) in the pole band, |s| within a
    relative 1e-12 of the axis value sqrt(1+mu), where the second-kind
    functions are not evaluated."""
    band = abs(s) >= math.sqrt(1.0 + mu) * (1.0 - _POLE_MARGIN)
    if band.any() if isinstance(band, np.ndarray) else band:
        raise PoleDivergenceError(_AXIS + " |s| = sqrt(1+mu)")


def q0(s, mu: float):
    """q0(s) = 1/2 ln([s + sqrt((1+mu)^2 - mu s^2)]^2 / ((1+mu)((1+mu) - s^2))),
    odd, 1/2 ln((1+s)/(1-s)) at mu = 0: `q0_meridional` at `s_to_zrho`(s).
    s is a float or an array; one in the pole band raises PoleDivergenceError."""
    return q0_meridional(*s_to_zrho(s, mu))[0]


def eval_q(n: int, s: float, mu: float) -> float:
    """Second-kind function Q_n(s), from `values`."""
    return values(n, s, mu, True)[1][n]


def q_derivs(N: int, s, mu: float) -> tuple[list, list]:
    """((F, F', F'') of P_0..P_N, (F, F', F'') of Q_0..Q_N) at s, floats or
    arrays with the bits of the floats: one `value_derivs` run, each Q_n
    from its P_n and T_n triples by the product rule with analytic q0
    derivatives.  An s in the pole band raises PoleDivergenceError."""
    # q0 first: it refuses an s in the pole band before g is formed
    q = q0(s, mu)
    p, t = value_derivs(N, s, mu)
    g2 = (1.0 + mu) ** 2 - mu * s * s
    g = _sqrt(s)(g2)
    # q0' = (1+mu)/(((1+mu) - s^2) g) and q0'', g = sqrt((1+mu)^2 - mu s^2)
    dq = (1.0 + mu) / (((1.0 + mu) - s * s) * g)
    num = (1.0 + mu) * s * ((3.0 * mu + 2.0) * (1.0 + mu) - 3.0 * mu * s * s)
    d2q = num / (((1.0 + mu) - s * s) ** 2 * g2 * g)
    dg = -mu * s / g
    d2g = -mu / g - mu * mu * s * s / (g2 * g)
    return p, [
        (
            P * q - T * g,
            dP * q + P * dq - dT * g - T * dg,
            d2P * q + 2.0 * dP * dq + P * d2q - d2T * g - 2.0 * dT * dg - T * d2g,
        )
        for (P, dP, d2P), (T, dT, d2T) in zip(p, t)
    ]


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


def _reference_poly(n: int, mu: float, t_form: bool) -> tuple[float, ...]:
    if not 0 <= n <= 6:
        raise ValueError("closed reference forms exist for n <= 6 only")
    coeffs = [0.0] * (n + 1)
    norm = (1.0 + mu) ** n
    for power, coef in _bracket_poly(n, mu, t_form):
        coeffs[power] = coef / norm
    return tuple(coeffs)


def p_reference(n: int, mu: float) -> tuple[float, ...]:
    """Closed form of P_n for n <= 6; the recursion's independent witness."""
    return _reference_poly(n, mu, t_form=False)


def t_reference(n: int, mu: float) -> tuple[float, ...]:
    """Closed form of T_n for n <= 6."""
    return _reference_poly(n, mu, t_form=True)
