"""Generalized sine/cosine of the SOS system and the s = f_S/h_R argument.

f_S and f_C depend on position only through the cone parameter W and reduce
to sin(nu), cos(nu) in the spherical limit mu = 0 (where W = tan(nu)).  The
ratio s = f_S/h_R is the argument of the harmonic angular functions; it runs
from 0 on the equator to sqrt(1+mu) on the rotation axis and satisfies the
closed inversion

    W^2 = t / (1 - t)^(1+mu),   t = s^2/(1+mu)

Every member of the bundle follows from its one root, which `solve_logit`
finds in log space for every W, the border band included.  The
Polya-Szego series of h_R^2, f_C^2 and f_S^2 are the witness that `verify`
checks these closed forms against: `verify` sums their rows with the series
engine and forms one series bundle of arrays from their values.

The closed kernel (`solve_logit`, `closed_trig`, `trig_from_W_robust`,
`s_on_reference`, `w_from_s`) has one numpy body (`_point_kernel`), for
floats or numpy arrays.  A float call is one element of the array call: it
runs the body on 0-d values and returns Python floats, with the same bits
and the same exceptions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, is_dataclass

import numpy as np

from .errors import PoleLimitError


@dataclass(frozen=True)
class TrigBundle:
    """Jointly consistent (W, h_R, f_S, f_C, s) on one cone surface."""

    W: float
    h_R: float
    f_S: float
    f_C: float
    s: float
    mu: float


_LOG_2 = math.log(2.0)


def _point_kernel(body):
    """A point kernel from its numpy body, which raises its own exceptions
    and so runs with numpy's floating-point warnings off.

    A float call, with no numpy array or scalar among its arguments or their
    record fields, runs the body on 0-d values and gets its results back as
    Python floats, in the same tuples and records: it is one element of the
    array call.
    """

    @functools.wraps(body)
    def kernel(*args, **kwargs):
        with np.errstate(all="ignore"):
            result = body(*args, **kwargs)
        return result if _has_numpy((*args, *kwargs.values())) else _walk(result, float)

    return kernel


def _has_numpy(values) -> bool:
    """Whether a value, or a field of a record among them, is numpy's."""
    return any(
        isinstance(v, (np.ndarray, np.generic)) or (is_dataclass(v) and _has_numpy(vars(v).values()))
        for v in values
    )


def _walk(v, leaf):
    """v with leaf applied to each of its values, through tuples and records:
    `float` gives a kernel's float results, a slice one call's part of a
    joined array call (`verify`)."""
    if isinstance(v, tuple):
        return tuple(_walk(f, leaf) for f in v)
    if is_dataclass(v):
        return type(v)(*(_walk(f, leaf) for f in vars(v).values()))
    return leaf(v)


def s_limit(mu: float) -> float:
    """Upper limit sqrt(1+mu) of s, attained on the rotation axis."""
    return math.sqrt(1.0 + mu)


@_point_kernel
def s_on_reference(nu, mu: float):
    """Closed form of s on the reference spheroid: sqrt(1+mu) * sin(nu);
    floats or arrays."""
    if np.any(abs(nu) > math.pi / 2):
        raise ValueError("nu must lie in [-pi/2, pi/2]")
    return math.sqrt(1.0 + mu) * np.sin(nu)


@_point_kernel
def w_from_s(s, mu: float):
    """Invert s back to the cone parameter W; strictly increasing in s.
    Floats or arrays; raises OverflowError where W overflows."""
    if not np.all(s >= 0.0):
        raise ValueError("s must be non-negative")
    if np.any(s >= s_limit(mu)):
        raise PoleLimitError("W diverges as s approaches sqrt(1+mu)")
    t = s * s / (1.0 + mu)
    W = np.sqrt(t) * np.power(1.0 - t, -(1.0 + mu) / 2.0)
    if np.isinf(W).any():
        raise OverflowError("math range error")
    return W


def _softplus(x):
    """(softplus(x), softplus(-x)), softplus(x) = log(1 + e^x), without
    overflow or cancellation.  The two share log1p(e^-|x|)."""
    tail = np.log1p(np.exp(-abs(x)))
    return np.maximum(x, 0.0) + tail, np.maximum(-x, 0.0) + tail


@_point_kernel
def solve_logit(log_w, mu: float):
    """Logit x = log(t/(1-t)) of t = s^2/(1+mu) at W = exp(log_w), floats or arrays.

    In x the closed inversion reads F(x) = x/2 + (mu/2) log(1 + e^x) = log W.
    F is convex and increasing, so F lies above each of its tangents: the
    lines x/2 and (1+mu) x/2 (its asymptotes) and its tangent at x = 0,
    (mu/2) log 2 + (2+mu) x/4.  The least of their roots is the seed, right
    of F's root, so plain Newton descends monotonically; it stops when
    rounding stalls the descent, and an array element stops where its own
    descent stalls.  A step forms softplus(x) = log(1 + e^x) once, and F's
    slope (1 + mu t)/2 from t = exp(x - softplus(x)).
    log W = -inf gives x = -inf (the equator), +inf gives +inf (the axis).
    """
    log_w, half_mu = np.asarray(log_w, dtype=float), 0.5 * mu
    seeds = 2.0 * log_w, 2.0 * log_w / (1.0 + mu), (log_w - half_mu * _LOG_2) / (0.5 + 0.5 * half_mu)
    x = np.minimum.reduce(seeds)
    while True:
        sp = np.logaddexp(0.0, x)
        nxt = x - (0.5 * x + half_mu * sp - log_w) / (0.5 + half_mu * np.exp(x - sp))
        descends = nxt < x  # False where rounding stalls, and at +-inf
        if not descends.any():
            return x
        x = np.where(descends, nxt, x)


@_point_kernel
def closed_trig(x, mu: float):
    """(h_R, f_C, s) at logit x, floats or arrays.

    h_R = (1 + mu t)^(-1/2), f_C = sqrt((1-t)/(1 + mu t)) and
    s = sqrt((1+mu) t), taken from log t = -softplus(-x) and
    log(1-t) = -softplus(x), so without cancellation at the equator or the
    axis.
    """
    sp, sp_neg = _softplus(x)
    log_t = -sp_neg
    h_R = 1.0 / np.sqrt(1.0 + mu * np.exp(log_t))
    f_C = np.exp(-0.5 * sp) * h_R
    s = math.sqrt(1.0 + mu) * np.exp(0.5 * log_t)
    return h_R, f_C, s


@_point_kernel
def trig_from_W_robust(W, mu: float) -> TrigBundle:
    """Series-free bundle from the closed inversion, for every W >= 0; W is
    a float or an array, and every field of the bundle has its type."""
    if not np.all(W >= 0):
        raise ValueError("W must be non-negative")
    h_R, f_C, s = closed_trig(solve_logit(np.log(W), mu), mu)
    return TrigBundle(W=W, h_R=h_R, f_S=s * h_R, f_C=f_C, s=s, mu=mu)


# --- analytic W-derivatives of bundle members -------------------------------
#
# Every right-hand side is a short monomial in (h_R, f_S, f_C), so they are
# exposed as functions of an evaluated bundle rather than of raw W.


def d_hR2_dW(tb: TrigBundle) -> float:
    """d(h_R^2)/dW = -(2 mu/(1+mu)) h_R^2 f_S^2 f_C^2 / W."""
    return -2.0 * tb.mu / (1.0 + tb.mu) * tb.h_R**2 * tb.f_S**2 * tb.f_C**2 / tb.W


def d_fC2_dW(tb: TrigBundle) -> float:
    """d(f_C^2)/dW = -(2/W) h_R^2 f_S^2 f_C^2."""
    return -2.0 * tb.h_R**2 * tb.f_S**2 * tb.f_C**2 / tb.W


def d_fS_over_fC_dW(tb: TrigBundle) -> float:
    """d(f_S/f_C)/dW = (h_R^2/W) f_S/f_C."""
    return tb.h_R**2 / tb.W * tb.f_S / tb.f_C


def d_s_dW(tb: TrigBundle) -> float:
    """d(f_S/h_R)/dW = f_C^2 f_S / (W h_R)."""
    return tb.f_C**2 * tb.f_S / (tb.W * tb.h_R)
