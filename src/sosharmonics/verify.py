"""Identity-corpus verification suites.

Each suite samples one family of analytic identities of the SOS system
(trigonometric-style relations, derivative formulas certified against
central differences, recursion-vs-closed-form polynomial tables, ODE
residuals, the solid-harmonic identity of each kind, transform round trips)
and hands each check's residual arrays to `_check`, the one rule of a
verdict: the largest entry, a NaN entry skipped and 0.0 where there is
none, passes at most the check's tolerance; no suite reduces its residuals
itself.  Each check also counts its entries and the non-finite ones.
`run_suite`, which the CLI `verify` command calls, drives them all at the
sample sizes of its level (`quick` or `full`, one table `_SIZES`).  Each
suite evaluates its sample set in one array pass of each kernel it checks.

Every suite is a generator body that yields its calls of a closed point
kernel or the series witness (`eval_series_many`) as one list of requests,
empty for the five that call none, and `run_suite` answers every list in
one round: one call per kernel over the points and rows of every suite.
Each suite gets its slice as arrays, the series witness's values as one
float array.  The trig and metric suites take their series rows from one
row builder (`_witness_rows`), and the trig suite forms its series bundle
of arrays from their values (`_series_bundle`), at every mu.
Only the metric suite calls `closed_point`, whose metrics raise where
they leave the float range, and it takes s and f_C from that solve too;
the transform, anchor and fit suites take `closed_solve` and their
(z, rho) from `coords.closed_meridional`, and the transform suite then
calls `cartesian_R_nu` and `cartesian_closed` itself.  Each sample point
is solved once.  A quick run at mu = 2 makes one `closed_point` call, one
`closed_solve`, one `trig_from_W_robust` (63 W), one `cartesian_R_nu`, one
`cartesian_closed` (the cone check's) and one `eval_series_many`
(177 rows): four `solve_logit` calls.  The metric suite's W and dW/dnu
are one `compute_W` and one `dW_dnu` call, the trig suite's W(s) one
`w_from_s` call.  `verify --json` times the shared round as
`closed_kernels` and `series_witness`.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import legendre
from .coords import (
    MetricBundle,
    SystemConfig,
    cartesian_closed,
    cartesian_R_nu,
    cartesian_R_s,
    closed_meridional,
    closed_point,
    closed_solve,
    compute_W,
    dW_dnu,
)
from .harmonic import HarmonicSolution, fit_boundary, solid_V, sum_V
from .series import (
    Region,
    SeriesKind,
    SeriesSpec,
    eval_series_many,
    gen_binom,
    quantity_series,
    region_of,
    w_border,
)
from .trig import (
    TrigBundle,
    _walk,
    d_fC2_dW,
    d_fS_over_fC_dW,
    d_hR2_dW,
    d_s_dW,
    s_limit,
    s_on_reference,
    trig_from_W_robust,
    w_from_s,
)

# the harmonicity shell (units of R0), its cap on |s|/sqrt(1+mu), the seed
# of its coefficients and points, and its count of points per kind
HARMONICITY_SHELL = (4.0, 6.0)
HARMONICITY_S_CAP = 0.9
HARMONICITY_SEED = 20240902
HARMONICITY_SOLID_POINTS = 40
# the seeds of the transform and fit samples, and the anchor's count of nu
TRANSFORM_SEED = 20240901
FIT_SEED = 20240903
ANCHOR_N_NU = 20


class _Sizes(NamedTuple):
    """The sample sizes of a level."""

    trig_per_region: int  # W per convergence region, trig identities
    derivative_per_region: int  # W per convergence region, derivatives
    n_nu: int  # nu per radius, metrics
    n_points: int  # transform points
    reduction_n_max: int  # top degree, spherical reduction
    ode_n_max: int  # top degree, ODE residuals
    n_s: int  # s samples, ODE residuals
    p_degree: int  # top P_n degree, solid-harmonic identity
    q_degree: int  # top Q_n degree, solid-harmonic identity


_SIZES = {
    "quick": _Sizes(6, 3, 5, 40, 8, 6, 15, 32, 12),
    "full": _Sizes(12, 6, 11, 160, 12, 10, 50, 101, 26),
}


@dataclass(frozen=True)
class CheckResult:
    """A check's largest residual entry against its tolerance, with the counts
    of the entries it checked and of the non-finite ones among them."""

    name: str
    max_residual: float
    tolerance: float
    entries: int = 0
    non_finite: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


def _check(name: str, tolerance: float, *residuals) -> CheckResult:
    """The check `name`, whose residual is the largest entry of the residual
    arrays (or scalars), and 0.0 if there is none; a NaN entry is skipped,
    and counted with the infinite ones as non-finite.  Every check of every
    suite is built here."""
    flat = np.concatenate([np.zeros(0), *map(np.ravel, residuals)])
    finite = int(np.count_nonzero(np.isfinite(flat)))
    return CheckResult(name, float(np.fmax.reduce(flat, initial=0.0)), tolerance, flat.size, flat.size - finite)


def _rel(x, ref) -> np.ndarray:
    """The entries |x - ref| / max(|ref|, 1e-300) of arrays x, ref."""
    return np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300)


def _outside_band(W: np.ndarray, mu: float) -> np.ndarray:
    """The mask of the W outside the guard band, where the series witness sums."""
    return np.array([region_of(w, mu) is not Region.NEAR_BORDER for w in W.tolist()], dtype=bool)


def _w_samples(mu: float, per_region: int) -> list[float]:
    """W values inside both convergence regions plus the guard band."""
    border = w_border(mu)
    smalls = np.geomspace(0.03, 0.85, per_region) * border
    larges = border / np.geomspace(0.85, 0.02, per_region)
    band = border * np.array([0.93, 1.0, 1.07])
    return [float(w) for w in np.concatenate([smalls, band, larges])]


def _witness_rows(names, W: np.ndarray, mu: float) -> list:
    """The series rows (spec, w) of the named quantities (`quantity_series`)
    at every w of the 1-D array W, W-major.  The series engine raises the
    first row's error, in order."""
    specs = [quantity_series(name, mu) for name in names]
    return [(spec, w) for w in W.tolist() for spec in specs]


# --- suite bodies ------------------------------------------------------------
#
# Every suite is a generator body.  It yields one list of requests, each a
# kernel and its arguments, every point argument a 1-D array of one length:
# `closed_point` or `closed_solve` (R, nu, cfg), `trig_from_W_robust(W, mu)`,
# or the series witness `eval_series_many(rows)`, or no request
# (`_asks_nothing`).  It receives their results, in order, the series
# witness's as one float array of the rows' values, and returns its checks.
# `run_suite` runs every body together (`_run_bodies`).


def _call_once(kernel, calls: list[tuple]) -> list:
    """The result of kernel at each argument tuple of calls, from one call.

    The series witness takes the rows of every call, and each call gets the
    values of its rows as one float array.  A point kernel takes the point
    arguments of every call joined, and the last argument (cfg or mu),
    which every call shares; each call gets its slice of every result
    array.  Every point kernel is elementwise, so a slice has the bits of
    the call alone.
    """
    ends = list(accumulate(len(args[0]) for args in calls))
    if kernel is eval_series_many:
        result = np.array([res.value for res in eval_series_many([row for (rows,) in calls for row in rows])])
    else:
        result = kernel(*map(np.concatenate, zip(*(args[:-1] for args in calls))), calls[0][-1])
    return [
        _walk(result, lambda v: v[a:b] if isinstance(v, np.ndarray) else v) for a, b in zip([0] + ends, ends)
    ]


def _asks_nothing(suite, *args):
    """The body of a suite that calls no shared kernel: it asks for nothing,
    then runs the suite and returns its checks."""
    yield []
    return suite(*args)


def _run_bodies(bodies: dict) -> tuple[dict, dict, float, float]:
    """The checks of every body {key: body}, and the seconds of each body's
    own steps, the point kernel calls and the series witness.

    Each body runs to its one list of requests; one call per kernel then
    answers every body's requests (`_call_once`), calls and rows in the
    order of the bodies, and each body resumes once to return its checks.
    """
    asked, seconds, checks = {}, {}, {}
    for key, body in bodies.items():
        start = time.perf_counter()
        asked[key] = next(body)
        seconds[key] = time.perf_counter() - start
    calls = {}  # kernel -> the arguments of each call, in the order of the bodies
    for reqs in asked.values():
        for kernel, *args in reqs:
            calls.setdefault(kernel, []).append(args)
    results, shared = {}, {True: 0.0, False: 0.0}
    for kernel, args in calls.items():
        start = time.perf_counter()
        results[kernel] = iter(_call_once(kernel, args))
        shared[kernel is eval_series_many] += time.perf_counter() - start
    for key, body in bodies.items():
        start = time.perf_counter()
        try:
            body.send([next(results[kernel]) for kernel, *_ in asked[key]])
        except StopIteration as done:
            checks[key] = done.value
        seconds[key] += time.perf_counter() - start
    return checks, seconds, shared[False], shared[True]


# --- generalized-trig identities ---------------------------------------------


_TRIG_SERIES = ("hR2", "fC2", "fS2")


def _series_bundle(W, mu: float, values) -> TrigBundle:
    """The series bundle at W >= 0 (a float or a 1-D array) from the values
    of its `_TRIG_SERIES` rows, in order."""
    hR2, fC2, fS2 = np.reshape(values, np.shape(W) + (3,)).T
    h_R, f_C = np.sqrt(hR2), np.sqrt(fC2)
    f_S = np.sqrt((1.0 + mu) * W * W * fS2)
    return TrigBundle(W=W, h_R=h_R, f_S=f_S, f_C=f_C, s=f_S / h_R, mu=mu)


def _trig_identity_body(mu: float, level: str):
    """Pythagorean/scale-factor relations and the closed W(s) inversion, at
    the robust bundle of every W and the series bundle outside the guard band."""
    ws = np.array(_w_samples(mu, _SIZES[level].trig_per_region))
    witnessed = _outside_band(ws, mu)
    series_ws = ws[witnessed]
    rows = _witness_rows(_TRIG_SERIES, series_ws, mu)
    robust, values = yield [(trig_from_W_robust, ws, mu), (eval_series_many, rows)]
    series = _series_bundle(series_ws, mu, values)
    # the robust bundle of every W, then the series bundle of each witnessed W
    n, fields = ws.size, ("W", "h_R", "f_S", "f_C", "s")
    W, h_R, f_S, f_C, s = (np.concatenate([getattr(robust, f), getattr(series, f)]) for f in fields)
    checks = [_check("trig.pythagorean", 1e-12, np.abs(f_S**2 + f_C**2 - 1.0))]
    if mu > 0.0:
        checks.append(_check(
            "trig.scale_factor_relations", 1e-12,
            np.abs(f_S**2 - (1.0 + mu) * (1.0 - h_R**2) / mu),
            np.abs(f_C**2 - ((1.0 + mu) * h_R**2 - 1.0) / mu),
        ))
    # squared sine/cosine ratio against the s form
    ratio = _rel(f_S**2 / f_C**2, (1.0 + mu) * s**2 / ((1.0 + mu) - s**2))
    checks.append(_check("trig.ratio_vs_s", 1e-10, ratio))
    if mu > 0.0:
        # fractional-power form relating W, f_S/f_C and s; compared in log
        # form so the 1/mu exponents cannot overflow
        lhs = (-np.log(W) + (mu + 1.0) * np.log(f_S / f_C)) / mu
        checks.append(_check("trig.power_form", 1e-8, np.abs(lhs - (0.5 * math.log(1.0 + mu) / mu + np.log(s)))))
    return checks + [
        _check("trig.w_of_s_roundtrip", 1e-8, _rel(w_from_s(s, mu), W)),
        _check("trig.series_vs_robust", 1e-10, *(np.abs(v[:n][witnessed] - v[n:]) for v in (h_R, f_S, f_C, s))),
    ]


def _derivative_body(mu: float, level: str):
    """Analytic W-derivatives against central finite differences.

    Uses the closed bundle on both sides of the difference quotient; one
    1-D bundle holds every W and W +- step, and each value of it is reshaped
    into their rows.
    """
    names = {
        # (value from bundle, analytic derivative, relative FD step)
        "deriv.hR2": (lambda tb: tb.h_R**2, d_hR2_dW, 1e-6),
        "deriv.fC2": (lambda tb: tb.f_C**2, d_fC2_dW, 1e-6),
        "deriv.fS_over_fC": (lambda tb: tb.f_S / tb.f_C, d_fS_over_fC_dW, 1e-6),
        "deriv.s": (lambda tb: tb.s, d_s_dW, 1e-6),
        # integral identities take a larger step: their check functions
        # divide tiny quantities at small W, amplifying rounding noise
        "deriv.log_tangent": (
            lambda tb: np.log(tb.f_S / tb.f_C),
            lambda tb: tb.h_R**2 / tb.W,
            1e-5,
        ),
        "deriv.radial_integral": (
            lambda tb: tb.W**2 * tb.h_R**2 / (2.0 * tb.f_S**2),
            lambda tb: tb.W * tb.h_R**2,
            1e-5,
        ),
    }
    W = np.array(_w_samples(mu, _SIZES[level].derivative_per_region))
    rel_steps = (1e-6, 1e-5)
    # row 0 is W, rows 2k + 1 and 2k + 2 are W - step and W + step of rel_steps[k],
    # joined for the bundle
    steps = [W + sign * (rel * W) for rel in rel_steps for sign in (-1.0, 1.0)]
    (tb,) = yield [(trig_from_W_robust, np.concatenate([W] + steps), mu)]
    checks = []
    for name, (value, analytic, rel_step) in names.items():
        k, v = 2 * rel_steps.index(rel_step), value(tb).reshape(len(steps) + 1, -1)
        fd = (v[k + 2] - v[k + 1]) / (2.0 * (rel_step * W))
        ref = analytic(tb)[: W.size]
        checks.append(_check(name, 1e-6, np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-12)))
    return checks


def _series_identity_body(mu: float):
    """Series-level identities: term-ratio product rule and the log series.

    The log series is tested in the form fixed by the W -> 0 limit,
      sum_{k>=1} C(-mu k, k) W^(2k) / k = ln(f_S^2 / ((1+mu) W^2 f_C^2)),
    which differs from a raw antiderivative comparison by the constant
    ln(1+mu).
    """
    border = w_border(mu)
    # three W in each convergence region; a large-nu row sums a/(1+mu)
    ws = [0.1 * border, 0.5 * border, 0.8 * border, border / 0.8, border / 0.4, border / 0.05]
    requests = []
    for a, c in ((-1.0, -(mu + 2.0)), ((mu + 1.0) / 2.0, -1.0)):
        for W in ws:
            requests += [
                (SeriesSpec(a + c, mu, SeriesKind.SA), W),
                (SeriesSpec(c, mu, SeriesKind.SA), W),
                (SeriesSpec(a, mu, SeriesKind.SC), W),
            ]
    log_ws = np.array([0.1 * border, 0.25 * border, 0.6 * border])
    tb_log, values = yield [(trig_from_W_robust, log_ws, mu), (eval_series_many, requests)]
    num, den, rat = np.reshape(values, (-1, 3)).T
    r_log = []
    for W, f_S, f_C in zip(tb_log.W.tolist(), tb_log.f_S.tolist(), tb_log.f_C.tolist()):
        acc = 0.0
        for k in range(1, 400):
            t = gen_binom(-mu * k, k) * W ** (2 * k) / k
            acc += t
            if abs(t) < 1e-18 and k > 8:
                break
        rhs = math.log(f_S**2 / ((1.0 + mu) * W**2 * f_C**2))
        r_log.append(abs(acc - rhs))
    return [
        _check("series.ratio_identity", 1e-10, _rel(num / den, rat)),
        _check("series.log_binomial_identity", 1e-8, r_log),
    ]


def _spherical_series_body():
    """mu = 0 closed forms: (1 + W^2)^a and W^(2a) (1 + W^-2)^a."""
    requests, closed = [], []
    for a in (-2.0, -1.0, -0.5, 0.5, 1.5):
        for W in (0.05, 0.3, 0.7):
            requests.append((SeriesSpec(a, 0.0, SeriesKind.SA), W))
            closed.append((1.0 + W * W) ** a)
        for W in (1.5, 3.0, 20.0):
            requests.append((SeriesSpec(a, 0.0, SeriesKind.SA), W))
            closed.append(W ** (2 * a) * (1.0 + W**-2.0) ** a)
    (values,) = yield [(eval_series_many, requests)]
    return [_check("series.spherical_closed_forms", 1e-12, _rel(values, np.array(closed)))]


# --- metric identities -------------------------------------------------------


_METRIC_SERIES = ("hR2", "Snu", "jac", "jac_hR2", "jac_hnu2")


def _metric_body(cfg: SystemConfig, level: str):
    """Closed-form metrics: cross-checks, the h_R h_nu link to dW/dnu, and
    the series witness outside the guard band.  One `closed_point` call
    solves every point; the link takes its s, f_C and h_R."""
    mu, n_nu = cfg.mu, _SIZES[level].n_nu
    nu = np.tile(np.linspace(0.03, math.pi / 2 - 0.05, n_nu), 3)
    R = np.repeat([0.5 * cfg.R0, cfg.R0, 2.2 * cfg.R0], n_nu)
    # W and dW/dnu from their own closed forms, not from the metrics they
    # check; dW/dnu enters only through dW/dnu / W, which is NaN (and
    # skipped) where both overflow
    W, dw_dnu = compute_W(R, nu, cfg), dW_dnu(R, nu, cfg)
    # the five metric series, with the R and dW/dnu factors, at every point
    # outside the guard band where each series value is a normal float (far
    # from the border the large-nu prefactor W^(2a) underflows or overflows)
    at = _outside_band(W, mu)
    rows = _witness_rows(_METRIC_SERIES, W[at], mu)
    (s, f_C, mb, _), values = yield [(closed_point, R, nu, cfg), (eval_series_many, rows)]
    # the link h_R h_nu (1+mu) = f_C f_S R (dW/dnu)/W, f_S = s h_R, squared
    # in units of R, so that no R0 takes either side out of the float range
    with np.errstate(invalid="ignore"):
        r_link = _rel((mb.h_R * (mb.h_nu / R) * (1.0 + mu)) ** 2, (f_C * s * mb.h_R * (dw_dnu / W)) ** 2)
    eps = 1e-12
    # 1.0 at each h_R outside its bounds
    out_of_bounds = ~((1.0 / math.sqrt(1.0 + mu) - eps <= mb.h_R) & (mb.h_R <= 1.0 + eps))
    checks = [
        _check(
            "metric.jacobian_ratios", 1e-9,
            _rel(mb.jac_over_hR2 * mb.h_R**2, mb.jacobian),
            # h_nu once at a time: h_nu**2 underflows at large mu
            _rel((mb.jac_over_hnu2 * mb.h_nu) * mb.h_nu, mb.jacobian),
        ),
        _check("metric.hR_hnu_link", 1e-9, r_link),
        _check("metric.hR_bounds", 0.5, out_of_bounds.astype(float)),
    ]
    values = np.reshape(values, (-1, len(_METRIC_SERIES))).T
    normal = ((sys.float_info.min <= np.abs(values)) & (np.abs(values) < math.inf)).all(axis=0)
    hR2, Snu, jac, jac_hR2, jac_hnu2 = values[:, normal]
    R_at = R[at][normal]
    k = R_at / math.sqrt(1.0 + mu) * dw_dnu[at][normal]
    series = MetricBundle(
        h_R=np.sqrt(hR2), h_nu=k * np.sqrt(Snu), jacobian=R_at * k * jac,
        jac_over_hR2=R_at * k * jac_hR2, jac_over_hnu2=R_at / k * jac_hnu2,
    )
    r_series = [_rel(v, getattr(mb, name)[at][normal]) for name, v in vars(series).items()]
    checks.append(_check("metric.series_vs_closed", 1e-10, *r_series))
    if mu == 0.0:
        checks.append(_check(
            "metric.spherical_reduction", 1e-12,
            np.abs(mb.h_R - 1.0), _rel(mb.h_nu, R), _rel(mb.jacobian, R * R * np.cos(nu)),
        ))
    return checks


# --- transforms --------------------------------------------------------------


def _transform_body(cfg: SystemConfig, level: str):
    """Round trips, spheroid membership, |x|^2 from (R, s) and cone invariance:
    one shared forward solve of every point (`closed_solve`), then its own
    calls: the inverse solve (`cartesian_R_nu`) and the closed form of the
    scaled points (`cartesian_closed`)."""
    mu = cfg.mu
    rng = random.Random(TRANSFORM_SEED)
    R, nu, lam = np.array([
        (
            cfg.R0 * math.exp(rng.uniform(math.log(0.2), math.log(5.0))),
            rng.uniform(-math.pi / 2 * 0.999, math.pi / 2 * 0.999),
            rng.uniform(-math.pi, math.pi),
        )
        for _ in range(_SIZES[level].n_points)
    ]).T
    ((s, f_C, h_R, log_w),) = yield [(closed_solve, R, nu, cfg)]
    z, rho = closed_meridional(R, s, f_C, h_R, mu)
    x, y = rho * np.cos(lam), rho * np.sin(lam)
    # membership of the R-spheroid and the squared position magnitude from
    # (R, s), in units of R so that no square leaves the float range
    u, v, w = x / R, y / R, z / R
    mag = u**2 + v**2 + w**2
    back_R, back_nu, back_lam = cartesian_R_nu(x, y, z, cfg)
    # cone invariance: scaling the position leaves (W, s, h_R, f_S, f_C)
    # fixed; W is compared in log form (it underflows at large mu)
    _, s2, h_R2, f_C2, lw2 = cartesian_closed(2.0 * x, 2.0 * y, 2.0 * z, mu)
    return [
        _check("transform.roundtrip", 1e-9, np.abs([(back_R - R) / R, back_nu - nu, back_lam - lam])),
        _check("transform.spheroid_membership", 1e-10, np.abs(u**2 + v**2 + (1.0 + mu) * w**2 - 1.0)),
        _check("transform.position_magnitude", 1e-10, _rel(mag, 1.0 - mu * s * s / (1.0 + mu) ** 2)),
        _check(
            "transform.cone_invariance", 1e-9,
            np.abs([lw2 - log_w, s2 - s, h_R2 - h_R, s2 * h_R2 - s * h_R, f_C2 - f_C]),
        ),
    ]


def _anchor_body(cfg: SystemConfig):
    """Closed form of s on the reference spheroid plus endpoint values, from
    one `closed_solve` call whose last two points are the equator (W = 0)
    and the pole; the pole's position is compared in units of R0, as every
    transform residual is relative."""
    mu = cfg.mu
    nus = np.linspace(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, ANCHOR_N_NU)
    points = np.append(nus, [0.0, math.pi / 2])
    ((s, f_C, h_R, _),) = yield [(closed_solve, np.full(points.size, cfg.R0), points, cfg)]
    lim = s_limit(mu)
    # the pole's (z, rho): on the axis, at z = R0/sqrt(1+mu)
    z, rho = closed_meridional(cfg.R0, s[-1], f_C[-1], h_R[-1], mu)
    ends = [s[-2], s[-1] - lim, h_R[-2] - 1.0, z / cfg.R0 - 1.0 / lim, rho / cfg.R0]
    return [
        _check("anchor.s_on_reference", 1e-10, np.abs(s[:-2] - s_on_reference(nus, mu))),
        _check("anchor.endpoints", 1e-12, np.abs(ends)),
    ]


# --- generalized Legendre ----------------------------------------------------


def _classical_p_coeffs(n_max: int) -> list[list[float]]:
    """Power-basis coefficients of the classical Legendre polynomials, each
    an exact integer sum rounded once (DLMF 18.5.8):
    P_n = 2^-n sum_(k <= n/2) (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k)."""
    out = []
    for n in range(n_max + 1):
        c = [0.0] * (n + 1)
        for k in range(n // 2 + 1):
            c[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n) / 2**n
        out.append(c)
    return out


def _classical_q(x: np.ndarray, n_max: int) -> np.ndarray:
    """Rows n = 0..n_max of the classical Q_n at the 1-D array x, |x| < 1, by
    Christoffel's formula Q_n = P_n atanh x - sum_(k=1..n) P_(k-1) P_(n-k) / k
    over numpy's classical P_n values (`legval`)."""
    p = np.polynomial.legendre.legval(x, np.eye(n_max + 1))  # row n is P_n(x)
    over_k = p / np.arange(1, n_max + 2)[:, None]  # row k - 1 is P_(k-1)/k
    return p * np.arctanh(x) - np.array([np.sum(over_k[:n] * p[:n][::-1], axis=0) for n in range(n_max + 1)])


def table_checks(mu: float) -> list[CheckResult]:
    """Recursion output against the closed reference forms for n <= 6."""
    pairs = ((legendre.p_poly, legendre.p_reference), (legendre.t_poly, legendre.t_reference))
    residuals = [
        abs(cg) if cr == 0.0 else abs(cg - cr) / abs(cr)
        for n in range(7)
        for build, ref in pairs
        for cg, cr in zip(build(n, float(mu)), ref(n, float(mu)))
    ]
    return [_check("legendre.table_exactness", 1e-13, residuals)]


def spherical_reduction_checks(level: str) -> list[CheckResult]:
    """mu = 0 collapse onto classical Legendre functions: the first kind
    against the exact power basis (`_classical_p_coeffs`), the second
    against Christoffel's sum (`_classical_q`)."""
    n_max = _SIZES[level].reduction_n_max
    classical = _classical_p_coeffs(n_max)
    r_p = [
        abs(cg - cr) / max(1.0, abs(cr))
        for n in range(n_max + 1)
        for cg, cr in zip(legendre.p_poly(n, 0.0), classical[n])
    ]
    x = np.array([-0.9, -0.5, 0.1, 0.5, 0.9])
    q = np.array(legendre.values(n_max, x, 0.0, True)[1])
    return [
        _check("legendre.spherical_P", 1e-12, r_p),
        _check("legendre.spherical_Q", 1e-10, np.abs(q - _classical_q(x, n_max))),
    ]


def ode_checks(mu: float, level: str) -> list[CheckResult]:
    """Residual of the generalized Legendre equation for P_n and Q_n, every
    degree and sample from one `legendre.q_derivs` pass."""
    n_max, n_s = _SIZES[level].ode_n_max, _SIZES[level].n_s
    svals = np.linspace(0.05, 0.95, n_s) * s_limit(mu)
    residuals = ([], [])  # P, Q
    for n, triples in enumerate(zip(*legendre.q_derivs(n_max, svals, mu))):
        for kind, (F, dF, d2F) in enumerate(triples):
            res = legendre.ode_residual(F, dF, d2F, svals, n, mu)
            residuals[kind].append(np.abs(res) / (1.0 + abs(F) + abs(dF) + abs(d2F)))
    return [
        _check("legendre.ode_first_kind", 1e-8, *residuals[0]),
        _check("legendre.ode_second_kind", 1e-8, *residuals[1]),
    ]


def structure_checks(mu: float) -> list[CheckResult]:
    """Parity, pole values and the non-orthogonality witness."""
    # the odd-offset coefficients of P_n, P_n(-s) - (-1)^n P_n(s), Q_0(0.2) + Q_0(-0.2)
    r_parity = [c for n in range(9) for j, c in enumerate(legendre.p_poly(n, mu)) if (j - n) % 2 != 0]
    for s in (0.3, 0.7):
        pos, _ = legendre.values(8, s, mu)
        neg, _ = legendre.values(8, -s, mu)
        r_parity += [neg[n] - (-1.0) ** n * pos[n] for n in range(9)]
    r_parity.append(legendre.q0(0.2, mu) + legendre.q0(-0.2, mu))

    lim = s_limit(mu)
    pole, _ = legendre.values(10, lim, mu)
    r_pole = abs(pole[2] - 1.0 / (1.0 + mu)) if all(math.isfinite(v) for v in pole) else math.inf

    # negative control: for oblate families P1 and P3 are NOT orthogonal
    # under unit weight on [-lim, lim]; their overlap is -(2 mu/5)(1+mu)^(-3/2),
    # zero only at mu = 0.  The integrand is of degree 4, so the 3-node
    # Gauss-Legendre rule is exact.
    nodes, weights = np.polynomial.legendre.leggauss(3)
    p, _ = legendre.values(3, lim * nodes, mu)
    overlap = lim * float(np.sum(weights * p[1] * p[3]))
    r_witness = abs(overlap + 2.0 * mu / 5.0 * (1.0 + mu) ** -1.5)

    return [
        _check("legendre.parity", 1e-13, np.abs(r_parity)),
        _check("legendre.pole_values", 1e-12, r_pole),
        _check("legendre.nonorthogonality_witness", 1e-13, r_witness),
    ]


# --- harmonicity -------------------------------------------------------------


def _shell(rng: random.Random, mu: float, n: int, s_cap: float | None):
    """The x, y, z arrays of n points, in units of R0, uniform in direction
    and radius on the harmonicity shell where |s| = (1+mu)|cos theta| /
    sqrt(1 + mu cos^2 theta) is at most s_cap sqrt(1+mu), that is, where
    cos^2 theta <= s_cap^2 / (1 + mu (1 - s_cap^2))."""
    c_max = 1.0 if s_cap is None else s_cap / math.sqrt(1.0 + mu * (1.0 - s_cap * s_cap))
    lo, hi = np.array([HARMONICITY_SHELL[0], -c_max, 0.0]), np.array([HARMONICITY_SHELL[1], c_max, 2.0 * math.pi])
    r, cth, phi = (lo + (hi - lo) * np.array([rng.random() for _ in range(3 * n)]).reshape(n, 3)).T
    sth = np.sqrt(1.0 - cth * cth)
    return r * sth * np.cos(phi), r * sth * np.sin(phi), r * cth


def harmonicity_checks(cfg: SystemConfig, level: str) -> list[CheckResult]:
    """The solid-harmonic identity of each kind, for every mu:
    (R/R0)^n P_n(s) = (r/R0)^n P_n^cl(z/r) and (R/R0)^n Q_n(s) =
    (r/R0)^n Q_n^cl(z/r), r = |(x, y, z)| (DLMF 14.10).  The classical solid
    harmonics are harmonic, so this certifies harmonicity exactly, at every
    degree up to the level's top ones (`_SIZES`).

    Each kind sums seeded c_0..c_N at `_shell` points in units of R0 (the
    sums take R0 = 1, so no residual depends on R0) against independent
    code, relative to sum |c_n (r/R0)^n F_n^cl|.  The first kind is
    `solid_V` at each point and at the point of its radius on the axis,
    where a wrong step coefficient grows fastest, against numpy's `legval`
    (|P_n^cl| <= 1 is left out of the scale).  The second kind is `sum_V`,
    the s form, at the `cartesian_R_s` (R, s) of off-axis points (|s| at
    most HARMONICITY_S_CAP sqrt(1+mu)), where the rounding of s costs few
    digits at any mu and degree, against Christoffel's sum (`_classical_q`).
    """
    size, rng, unit = _SIZES[level], random.Random(HARMONICITY_SEED), SystemConfig(cfg.mu)
    a = np.array([rng.uniform(-1.0, 1.0) for _ in range(size.p_degree + 1)])
    x, y, z = _shell(rng, cfg.mu, HARMONICITY_SOLID_POINTS, None)
    rho = np.hypot(x, y)
    r = np.hypot(rho, z)
    # each point, then the point of its radius on the axis
    z, rho, r = np.concatenate([z, np.copysign(r, z)]), np.concatenate([rho, 0.0 * r]), np.tile(r, 2)
    terms = a[:, None] * r ** np.arange(a.size)[:, None]
    classical = np.polynomial.legendre.legval(z / r, terms, tensor=False)
    V = solid_V(HarmonicSolution(a=tuple(a), b=(), cfg=unit), z, rho)
    r_p = np.abs(V - classical) / np.abs(terms).sum(axis=0)

    b = np.array([rng.uniform(-1.0, 1.0) for _ in range(size.q_degree + 1)])
    x, y, z = _shell(rng, cfg.mu, HARMONICITY_SOLID_POINTS, HARMONICITY_S_CAP)
    R, s = cartesian_R_s(x, y, z, cfg.mu)
    r = np.hypot(np.hypot(x, y), z)
    terms = b[:, None] * r ** np.arange(b.size)[:, None] * _classical_q(z / r, b.size - 1)
    V = sum_V(HarmonicSolution(a=(), b=tuple(b), cfg=unit), R, s)
    r_q = np.abs(V - terms.sum(axis=0)) / np.abs(terms).sum(axis=0)
    return [_check("harmonic.solid_identity", 1e-11, r_p), _check("harmonic.solid_identity_Q", 1e-11, r_q)]


def _fit_body(cfg: SystemConfig):
    """Noiseless boundary-fit round trips, the samples of both fields taken
    at one `closed_solve` call over the boundary points."""
    rng = random.Random(FIT_SEED)
    nus = np.linspace(-1.45, 1.45, 41)
    ((s, f_C, h_R, _),) = yield [(closed_solve, np.full(nus.size, cfg.R0), nus, cfg)]
    z, rho = closed_meridional(cfg.R0, s, f_C, h_R, cfg.mu)
    truth = HarmonicSolution(a=tuple(rng.uniform(-1.0, 1.0) for _ in range(6)), b=(), cfg=cfg)
    fitted, _ = fit_boundary(np.column_stack([nus, solid_V(truth, z, rho)]), 5, cfg)
    r_fit = np.abs(np.subtract(fitted.a, truth.a))

    z_field = HarmonicSolution(a=(0.0, 1.0), b=(), cfg=cfg)
    fitted, _ = fit_boundary(np.column_stack([nus, solid_V(z_field, z, rho)]), 3, cfg)
    r_z = np.abs(np.subtract(fitted.a, (0.0, 1.0, 0.0, 0.0)))
    return [_check("fit.roundtrip", 1e-8, r_fit), _check("fit.z_field", 1e-8, r_z)]


# --- suite driver ------------------------------------------------------------


def run_suite(cfg: SystemConfig, level: str = "quick", timings=None) -> list[CheckResult]:
    """All identity suites at the configured mu, at the sample sizes of
    `_SIZES[level]`; `full` widens every sweep.

    Every suite is a body, and all run together in one round
    (`_run_bodies`): one call per closed point kernel, and every series row
    in one `eval_series_many` call, the series witness.  If `timings` is a
    list, one (suite name, seconds) pair is appended to it per suite, in
    suite order, a suite's seconds without the shared round (the transform
    suite's own kernel calls included), then ("closed_kernels", seconds)
    and ("series_witness", seconds), the shared round's.
    """
    if level not in _SIZES:
        raise ValueError("level must be 'quick' or 'full'")
    mu = cfg.mu
    suites = (  # name, body, arguments
        ("trig_identity_checks", _trig_identity_body, mu, level),
        ("derivative_checks", _derivative_body, mu, level),
        ("series_identity_checks", _series_identity_body, mu),
        ("spherical_series_checks", _spherical_series_body),
        ("metric_checks", _metric_body, cfg, level),
        ("transform_checks", _transform_body, cfg, level),
        ("anchor_checks", _anchor_body, cfg),
        ("table_checks", _asks_nothing, table_checks, mu),
        ("spherical_reduction_checks", _asks_nothing, spherical_reduction_checks, level),
        ("ode_checks", _asks_nothing, ode_checks, mu, level),
        ("structure_checks", _asks_nothing, structure_checks, mu),
        ("harmonicity_checks", _asks_nothing, harmonicity_checks, cfg, level),
        ("fit_checks", _fit_body, cfg),
    )
    checks, seconds, kernels, witness = _run_bodies({name: body(*args) for name, body, *args in suites})
    if timings is not None:
        timings.extend([*seconds.items(), ("closed_kernels", kernels), ("series_witness", witness)])
    return [check for suite in checks.values() for check in suite]
