"""Identity-corpus verification suites.

Each suite samples one family of analytic identities of the SOS system
(trigonometric-style relations, derivative formulas certified against
central differences, recursion-vs-closed-form polynomial tables, ODE
residuals, finite-difference harmonicity, transform round trips) and
reports the worst residual against its tolerance.  `run_suite`, which the
CLI `verify` command calls, drives them all at the sample sizes of its
level (`quick` or `full`, one table `_SIZES`).  Each suite evaluates its
sample set in one array pass of each kernel it checks.  The harmonicity
suite stacks the stencils of every pure mode and both steps into one
array, summed by one `legendre.solid_values` pass per kind.

The suites that call a closed point kernel (`closed_point`,
`trig_from_W_robust`, `cartesian_R_nu`) or the series witness
(`eval_series_many`) are generator bodies that yield their calls as
requests, and `run_suite` answers them in rounds: one call per kernel a
round over the points of every suite, each suite getting its slice, and,
once every suite waits on the series, all series rows in one
`eval_series_many` call.  A quick run at mu = 2 makes two `closed_point`
calls (the forward solves, then the cone check's), one
`trig_from_W_robust`, one `cartesian_R_nu` and one `eval_series_many`
(177 rows).  The metric suite's W and dW/dnu are one `compute_W` and one
`dW` call, and the trig suite's W(s) one `w_from_s` call.  `verify --json`
times the shared calls as `closed_kernels` and `series_witness`.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, is_dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import legendre
from .coords import (
    CartesianPoint,
    SystemConfig,
    cartesian_R_nu,
    cartesian_R_s,
    closed_point,
    compute_W,
    dW,
)
from .errors import PoleDivergenceError, StencilOutOfDomainError
from .harmonic import (
    HarmonicSolution,
    fd_laplacian,
    fit_boundary,
    solid_V,
    stencil_meridional,
    sum_V,
)
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
    _witness_bundles,
    _witness_rows,
    d_fC2_dW,
    d_fS_over_fC_dW,
    d_hR2_dW,
    d_s_dW,
    s_limit,
    s_on_reference,
    trig_from_W_robust,
    w_from_s,
)

# FD harmonicity: sampling shell and the fine and coarse steps (units of R0),
# the coarse-residual floor below which the O(h^2) decay is unresolvable
# (exactly-polynomial low-degree modes difference to rounding noise, not
# truncation error), and the seed of the points.
HARMONICITY_SHELL = (4.0, 6.0)
HARMONICITY_STEPS = (5e-3, 1e-2)
HARMONICITY_RATIO_FLOOR = 1e-7
HARMONICITY_SEED = 20240902
# the solid-harmonic identity's top degree and count of points
HARMONICITY_SOLID_DEGREE = 24
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
    a_max: int  # top P_n degree, harmonicity
    b_max: int  # top Q_n degree, harmonicity
    points_per_mode: int  # points per mode, harmonicity


_SIZES = {
    "quick": _Sizes(6, 3, 5, 40, 8, 6, 15, 3, 1, 4),
    "full": _Sizes(12, 6, 11, 160, 12, 10, 50, 6, 3, 20),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_residual", float(self.max_residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)


def _worst(*residuals) -> float:
    """The largest entry of the residual arrays, and 0.0 if there is none.
    A NaN entry is skipped, as a running max(worst, r) over floats skips it."""
    return max((float(np.fmax.reduce(np.ravel(r), initial=0.0)) for r in residuals), default=0.0)


def _max_rel(x, ref) -> float:
    """The largest |x - ref| / max(|ref|, 1e-300) over arrays x, ref."""
    return _worst(np.abs(x - ref) / np.maximum(np.abs(ref), 1e-300))


def _w_samples(mu: float, per_region: int) -> list[float]:
    """W values inside both convergence regions plus the guard band."""
    border = w_border(mu)
    smalls = np.geomspace(0.03, 0.85, per_region) * border
    larges = border / np.geomspace(0.85, 0.02, per_region)
    band = border * np.array([0.93, 1.0, 1.07])
    return [float(w) for w in np.concatenate([smalls, band, larges])]


# --- suite bodies ------------------------------------------------------------
#
# A suite that calls a closed point kernel or the series witness is a
# generator body.  It yields a list of requests, each a kernel and its
# arguments: `closed_point(R, nu, cfg)`, `trig_from_W_robust(W, mu)`,
# `cartesian_R_nu(x, y, z, cfg)`, or the series witness
# `eval_series_many(rows)`.  It receives their results, in order, and
# returns its checks.  `run_suite` runs every body together (`_run_bodies`).


def _parts(v, bounds, shapes) -> list:
    """The part of a kernel result v of each call: the slice (start, stop)
    of each of bounds of every array, in its call's shape, through tuples
    and records; other values as they are."""
    if isinstance(v, tuple):
        return list(zip(*(_parts(f, bounds, shapes) for f in v)))
    if is_dataclass(v):
        return [type(v)(*f) for f in zip(*(_parts(f, bounds, shapes) for f in vars(v).values()))]
    if isinstance(v, np.ndarray):
        return [v[a:b].reshape(shape) for (a, b), shape in zip(bounds, shapes)]
    return [v] * len(bounds)


def _call_once(kernel, calls: list[tuple]) -> list:
    """The result of kernel at each argument tuple of calls, from one call.

    The series witness takes the rows of every call.  A point kernel takes
    the point arguments of every call, broadcast, flattened and joined, and
    the last argument (cfg or mu) that the calls share; each call gets its
    slice of every result array, in its own shape.  Every point kernel is
    elementwise, so a slice has the bits of the call alone.
    """
    if kernel is eval_series_many:
        ends = list(accumulate(len(rows) for (rows,) in calls))
        result = kernel([row for (rows,) in calls for row in rows])
        return [result[a:b] for a, b in zip([0] + ends, ends)]
    points = [np.broadcast_arrays(*args[:-1]) for args in calls]
    ends = list(accumulate(p[0].size for p in points))
    result = kernel(*(np.concatenate([np.ravel(a) for a in arg]) for arg in zip(*points)), calls[0][-1])
    return _parts(result, list(zip([0] + ends, ends)), [p[0].shape for p in points])


def _run_bodies(bodies: dict) -> tuple[dict, dict, float, float]:
    """The checks of every body {key: body}, and the seconds of each body's
    own steps, the point kernel calls and the series witness.

    The bodies run in rounds.  A round answers the requests of every live
    body that asks only for point kernels, with one call per kernel and
    shared argument (`_call_once`); once every live body waits on the series
    witness, a round answers them all, every row in one `eval_series_many`
    call.  Calls and rows follow the order of the bodies.
    """
    checks, seconds, shared = {}, dict.fromkeys(bodies, 0.0), {True: 0.0, False: 0.0}
    waiting, answers = {}, dict.fromkeys(bodies)
    while answers:
        for key, got in answers.items():
            start = time.perf_counter()
            try:
                waiting[key] = bodies[key].send(got)
            except StopIteration as done:
                checks[key] = done.value
            seconds[key] += time.perf_counter() - start
        ready = [k for k, reqs in waiting.items() if all(r[0] is not eval_series_many for r in reqs)]
        asked = {k: waiting.pop(k) for k in sorted(ready or waiting)}
        calls = {}  # (kernel, shared argument) -> [(key, request index, arguments)]
        for key, reqs in asked.items():
            for j, (kernel, *args) in enumerate(reqs):
                group = (kernel, None if kernel is eval_series_many else args[-1])
                calls.setdefault(group, []).append((key, j, args))
        answers = {key: [None] * len(reqs) for key, reqs in asked.items()}
        for (kernel, _), group in calls.items():
            start = time.perf_counter()
            for (key, j, _), result in zip(group, _call_once(kernel, [args for _, _, args in group])):
                answers[key][j] = result
            shared[kernel is eval_series_many] += time.perf_counter() - start
    return checks, seconds, shared[False], shared[True]


# --- generalized-trig identities ---------------------------------------------


def _trig_identity_body(mu: float, level: str):
    """Pythagorean/scale-factor relations and the closed W(s) inversion, at
    the robust bundle of every W and the series bundle outside the guard band."""
    ws = _w_samples(mu, _SIZES[level].trig_per_region)
    witnessed = np.array([mu > 0.0 and region_of(W, mu) is not Region.NEAR_BORDER for W in ws])
    series_ws = [W for W, w in zip(ws, witnessed) if w]
    (robust,) = yield [(trig_from_W_robust, np.array(ws), mu)]
    (rows,) = yield [(eval_series_many, _witness_rows(series_ws, mu))]
    series = _witness_bundles(series_ws, mu, rows)
    # the robust bundle of every W, then the series bundle of each witnessed W
    n, W = len(ws), np.concatenate([ws, series_ws])
    h_R, f_S, f_C, s = (
        np.concatenate([getattr(robust, f), [getattr(tb, f) for tb in series]]) for f in ("h_R", "f_S", "f_C", "s")
    )
    r_pyth = _worst(np.abs(f_S**2 + f_C**2 - 1.0))
    # squared sine/cosine ratio against the s form
    r_ratio = _max_rel(f_S**2 / f_C**2, (1.0 + mu) * s**2 / ((1.0 + mu) - s**2))
    r_round = _max_rel(w_from_s(s, mu), W)
    r_paths = _worst(*(np.abs(v[:n][witnessed] - v[n:]) for v in (h_R, f_S, f_C, s)))
    if mu > 0.0:
        r_hr = _worst(
            np.abs(f_S**2 - (1.0 + mu) * (1.0 - h_R**2) / mu),
            np.abs(f_C**2 - ((1.0 + mu) * h_R**2 - 1.0) / mu),
        )
        # fractional-power form relating W, f_S/f_C and s; compared in log
        # form so the 1/mu exponents cannot overflow
        lhs = (-np.log(W) + (mu + 1.0) * np.log(f_S / f_C)) / mu
        r_power = _worst(np.abs(lhs - (0.5 * math.log(1.0 + mu) / mu + np.log(s))))
    checks = [
        CheckResult("trig.pythagorean", r_pyth, 1e-12),
        CheckResult("trig.ratio_vs_s", r_ratio, 1e-10),
        CheckResult("trig.w_of_s_roundtrip", r_round, 1e-8),
        CheckResult("trig.series_vs_robust", r_paths, 1e-10),
    ]
    if mu > 0.0:
        checks.insert(1, CheckResult("trig.scale_factor_relations", r_hr, 1e-12))
        checks.insert(3, CheckResult("trig.power_form", r_power, 1e-8))
    return checks


def _derivative_body(mu: float, level: str):
    """Analytic W-derivatives against central finite differences.

    Uses the robust path on both sides of the difference quotient so the
    quotient never straddles a series-region switch; one array bundle holds
    every W and W +- step.
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
    # row 0 is W, rows 2k + 1 and 2k + 2 are W - step and W + step of rel_steps[k]
    steps = [W + sign * (rel * W) for rel in rel_steps for sign in (-1.0, 1.0)]
    (tb,) = yield [(trig_from_W_robust, np.stack([W] + steps), mu)]
    checks = []
    for name, (value, analytic, rel_step) in names.items():
        k, v = 2 * rel_steps.index(rel_step), value(tb)
        fd = (v[k + 2] - v[k + 1]) / (2.0 * (rel_step * W))
        ref = analytic(tb)[0]
        checks.append(CheckResult(name, _worst(np.abs(fd - ref) / np.maximum(np.abs(ref), 1e-12)), 1e-6))
    return checks


def _series_identity_body(mu: float):
    """Series-level identities: term-ratio product rule and the log series.

    The log series is tested in the form fixed by the W -> 0 limit,
      sum_{k>=1} C(-mu k, k) W^(2k) / k = ln(f_S^2 / ((1+mu) W^2 f_C^2)),
    which differs from a raw antiderivative comparison by the constant
    ln(1+mu).
    """
    border = w_border(mu)
    requests = []
    for region, ws in (
        (Region.SMALL_NU, [0.1 * border, 0.5 * border, 0.8 * border]),
        (Region.LARGE_NU, [border / 0.8, border / 0.4, border / 0.05]),
    ):
        scale = 1.0 / (1.0 + mu) if region is Region.LARGE_NU else 1.0
        for a_s, c_s in ((-1.0, -(mu + 2.0)), ((mu + 1.0) / 2.0, -1.0)):
            a, c = a_s * scale, c_s * scale
            for W in ws:
                requests += [
                    (SeriesSpec(a + c, mu, region, SeriesKind.SA), W),
                    (SeriesSpec(c, mu, region, SeriesKind.SA), W),
                    (SeriesSpec(a, mu, region, SeriesKind.SC), W),
                ]
    (tb_log,) = yield [(trig_from_W_robust, np.array([0.1 * border, 0.25 * border, 0.6 * border]), mu)]
    (rows,) = yield [(eval_series_many, requests)]
    num, den, rat = np.reshape([res.value for res in rows], (-1, 3)).T
    r_ratio = _max_rel(num / den, rat)

    r_log = 0.0
    for W, f_S, f_C in zip(tb_log.W.tolist(), tb_log.f_S.tolist(), tb_log.f_C.tolist()):
        acc = 0.0
        for k in range(1, 400):
            t = gen_binom(-mu * k, k) * W ** (2 * k) / k
            acc += t
            if abs(t) < 1e-18 and k > 8:
                break
        rhs = math.log(f_S**2 / ((1.0 + mu) * W**2 * f_C**2))
        r_log = max(r_log, abs(acc - rhs))
    return [
        CheckResult("series.ratio_identity", r_ratio, 1e-10),
        CheckResult("series.log_binomial_identity", r_log, 1e-8),
    ]


def _spherical_series_body():
    """mu = 0 closed forms: (1 + W^2)^a and W^(2a) (1 + W^-2)^a."""
    requests, closed = [], []
    for a in (-2.0, -1.0, -0.5, 0.5, 1.5):
        for W in (0.05, 0.3, 0.7):
            requests.append((SeriesSpec(a, 0.0, Region.SMALL_NU, SeriesKind.SA), W))
            closed.append((1.0 + W * W) ** a)
        for W in (1.5, 3.0, 20.0):
            requests.append((SeriesSpec(a, 0.0, Region.LARGE_NU, SeriesKind.SA), W))
            closed.append(W ** (2 * a) * (1.0 + W**-2.0) ** a)
    (rows,) = yield [(eval_series_many, requests)]
    worst = _max_rel(np.array([res.value for res in rows]), np.array(closed))
    return [CheckResult("series.spherical_closed_forms", worst, 1e-12)]


# --- metric identities -------------------------------------------------------


_METRIC_SERIES = ("hR2", "Snu", "jac", "jac_hR2", "jac_hnu2")


def _metric_body(cfg: SystemConfig, level: str):
    """Closed-form metrics: cross-checks, the h_R h_nu link to dW/dnu, and
    the series witness outside the guard band."""
    mu, n_nu = cfg.mu, _SIZES[level].n_nu
    nu = np.tile(np.linspace(0.03, math.pi / 2 - 0.05, n_nu), 3)
    R = np.repeat([0.5 * cfg.R0, cfg.R0, 2.2 * cfg.R0], n_nu)
    # W and dW/dnu from their own closed forms, not from the metrics they
    # check; dW/dnu enters only through dW/dnu / W, which is NaN (and
    # skipped) where both overflow
    W, dw_dnu = compute_W(R, nu, cfg), dW(R, nu, cfg)[0]
    (_, _, mb, _), tb = yield [(closed_point, R, nu, cfg), (trig_from_W_robust, W, mu)]
    with np.errstate(invalid="ignore"):
        r_link = _max_rel(mb.h_R**2 * mb.h_nu**2 * (1.0 + mu) ** 2, (tb.f_C * tb.f_S * R * (dw_dnu / W)) ** 2)
    r_cross = max(
        _max_rel(mb.jac_over_hR2 * mb.h_R**2, mb.jacobian),
        _max_rel(mb.jac_over_hnu2 * mb.h_nu**2, mb.jacobian),
    )
    eps = 1e-12
    in_bounds = (1.0 / math.sqrt(1.0 + mu) - eps <= mb.h_R) & (mb.h_R <= 1.0 + eps)
    r_bounds = 0.0 if in_bounds.all() else 1.0
    # the five metric series, with the R and dW/dnu factors, at every point
    # outside the guard band where each series value is a normal float (far
    # from the border the large-nu prefactor W^(2a) underflows or overflows)
    at = np.array([region_of(w, mu) is not Region.NEAR_BORDER for w in W.tolist()], dtype=bool)
    requests = [(quantity_series(name, mu, region_of(w, mu)), w) for w in W[at].tolist() for name in _METRIC_SERIES]
    (rows,) = yield [(eval_series_many, requests)]
    values = np.reshape([res.value for res in rows], (-1, len(_METRIC_SERIES))).T
    normal = ((sys.float_info.min <= np.abs(values)) & (np.abs(values) < math.inf)).all(axis=0)
    hR2, Snu, jac, jac_hR2, jac_hnu2 = values[:, normal]
    R_at = R[at][normal]
    k = R_at / math.sqrt(1.0 + mu) * dw_dnu[at][normal]
    series = (np.sqrt(hR2), k * np.sqrt(Snu), R_at * k * jac, R_at * k * jac_hR2, R_at / k * jac_hnu2)
    r_series = max(_max_rel(v, ref[at][normal]) for v, ref in zip(series, vars(mb).values()))
    checks = [
        CheckResult("metric.jacobian_ratios", r_cross, 1e-9),
        CheckResult("metric.hR_hnu_link", r_link, 1e-9),
        CheckResult("metric.hR_bounds", r_bounds, 0.5),
        CheckResult("metric.series_vs_closed", r_series, 1e-10),
    ]
    if mu == 0.0:
        r_sphere = max(
            _worst(np.abs(mb.h_R - 1.0)),
            _max_rel(mb.h_nu, R),
            _max_rel(mb.jacobian, R * R * np.cos(nu)),
        )
        checks.append(CheckResult("metric.spherical_reduction", r_sphere, 1e-12))
    return checks


# --- transforms --------------------------------------------------------------


def _transform_body(cfg: SystemConfig, level: str):
    """Round trips, spheroid membership, |x|^2 from (R, s) and cone invariance:
    one forward solve of every point, whose s and metrics the cone check
    reuses, both inverse solves in one call, then the cone's forward solve."""
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
    ((s, f_C, mb, log_w),) = yield [(closed_point, R, nu, cfg)]
    z, rho = R * s / (1.0 + mu), R * f_C / mb.h_R  # `meridional`
    x, y = rho * np.cos(lam), rho * np.sin(lam)
    # membership of the R-spheroid
    r_member = _worst(np.abs(x**2 + y**2 + (1.0 + mu) * z**2 - R * R) / (R * R))
    # squared position magnitude from (R, s)
    r_mag = _max_rel(x**2 + y**2 + z**2, R * R * (1.0 - mu * s * s / (1.0 + mu) ** 2))
    # cone invariance: scaling the position leaves (W, s, h_R, f_S, f_C)
    # fixed; W is compared in log form (it underflows at large mu).  The
    # point's own values at |nu| are its forward solve's, as s is odd in nu
    # and the rest even.
    cone = np.abs(nu) > 1e-3
    (back_R, back_nu, back_lam), (R2, nu2, _) = yield [
        (cartesian_R_nu, x, y, z, cfg),
        (cartesian_R_nu, 2.0 * x[cone], 2.0 * y[cone], 2.0 * z[cone], cfg),
    ]
    r_round = _worst(np.abs(back_R - R) / R, np.abs(back_nu - nu), np.abs(back_lam - lam))
    ((s2, f_C2, m2, lw2),) = yield [(closed_point, R2, np.abs(nu2), cfg)]
    s1, h_R1 = np.abs(s[cone]), mb.h_R[cone]
    r_cone = _worst(
        np.abs(lw2 - log_w[cone]),
        np.abs(s2 - s1),
        np.abs(m2.h_R - h_R1),
        np.abs(s2 * m2.h_R - s1 * h_R1),
        np.abs(f_C2 - f_C[cone]),
    )
    return [
        CheckResult("transform.roundtrip", r_round, 1e-9),
        CheckResult("transform.spheroid_membership", r_member, 1e-10),
        CheckResult("transform.position_magnitude", r_mag, 1e-10),
        CheckResult("transform.cone_invariance", r_cone, 1e-9),
    ]


def _anchor_body(cfg: SystemConfig):
    """Closed form of s on the reference spheroid plus endpoint values, from
    one `closed_point` solve whose last two points are the equator (W = 0)
    and the pole; the pole's position is compared in units of R0, as every
    transform residual is relative."""
    mu = cfg.mu
    nus = np.linspace(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, ANCHOR_N_NU)
    ((s, f_C, mb, _),) = yield [(closed_point, cfg.R0, np.append(nus, [0.0, math.pi / 2]), cfg)]
    worst = _worst(np.abs(s[:-2] - s_on_reference(nus, mu)))
    lim = s_limit(mu)
    # the pole's forward transform at lam = 0, from its `meridional` (z, rho)
    z, rho, lam = cfg.R0 * s[-1] / (1.0 + mu), cfg.R0 * f_C[-1] / mb.h_R[-1], 0.0
    ends = max(
        abs(s[-2]),
        abs(s[-1] - lim),
        abs(mb.h_R[-2] - 1.0),
        abs(z / cfg.R0 - 1.0 / lim),
        abs(rho * math.cos(lam) / cfg.R0),
        abs(rho * math.sin(lam) / cfg.R0),
    )
    return [
        CheckResult("anchor.s_on_reference", worst, 1e-10),
        CheckResult("anchor.endpoints", ends, 1e-12),
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


def table_checks(mu: float) -> list[CheckResult]:
    """Recursion output against the closed reference forms for n <= 6."""
    worst = 0.0
    for n in range(7):
        for build, ref in (
            (legendre.p_poly, legendre.p_reference),
            (legendre.t_poly, legendre.t_reference),
        ):
            for cg, cr in zip(build(n, float(mu)), ref(n, float(mu))):
                if cr == 0.0:
                    worst = max(worst, abs(cg))
                else:
                    worst = max(worst, abs(cg - cr) / abs(cr))
    return [CheckResult("legendre.table_exactness", worst, 1e-13)]


def spherical_reduction_checks(level: str) -> list[CheckResult]:
    """mu = 0 collapse onto classical Legendre functions.

    The first kind is checked against the exact power basis
    (`_classical_p_coeffs`).  The classical second kind is Christoffel's
    formula Q_n = P_n Q_0 - sum_(k=1..n) P_(k-1) P_(n-k) / k with
    Q_0 = atanh x, over numpy's classical P_n values."""
    n_max = _SIZES[level].reduction_n_max
    classical = _classical_p_coeffs(n_max)
    worst_p = 0.0
    for n in range(n_max + 1):
        for cg, cr in zip(legendre.p_poly(n, 0.0), classical[n]):
            worst_p = max(worst_p, abs(cg - cr) / max(1.0, abs(cr)))
    x = np.array([-0.9, -0.5, 0.1, 0.5, 0.9])
    p_cl = np.polynomial.legendre.legval(x, np.eye(n_max + 1))  # row n is P_n(x)
    over_k = p_cl / np.arange(1, n_max + 2)[:, None]  # row k - 1 is P_(k-1)/k
    christoffel = np.array([np.sum(over_k[:n] * p_cl[:n][::-1], axis=0) for n in range(n_max + 1)])
    q = np.array(legendre.values(n_max, x, 0.0, True)[1])
    worst_q = float(np.max(np.abs(q - (p_cl * np.arctanh(x) - christoffel))))
    return [
        CheckResult("legendre.spherical_P", worst_p, 1e-12),
        CheckResult("legendre.spherical_Q", worst_q, 1e-10),
    ]


def ode_checks(mu: float, level: str) -> list[CheckResult]:
    """Residual of the generalized Legendre equation for P_n and Q_n, every
    degree and sample from one `legendre.q_derivs` pass."""
    n_max, n_s = _SIZES[level].ode_n_max, _SIZES[level].n_s
    svals = np.linspace(0.05, 0.95, n_s) * s_limit(mu)
    worst = [0.0, 0.0]  # P, Q
    for n, triples in enumerate(zip(*legendre.q_derivs(n_max, svals, mu))):
        for kind, (F, dF, d2F) in enumerate(triples):
            res = legendre.ode_residual(F, dF, d2F, svals, n, mu)
            worst[kind] = max(worst[kind], _worst(np.abs(res) / (1.0 + abs(F) + abs(dF) + abs(d2F))))
    return [
        CheckResult("legendre.ode_first_kind", worst[0], 1e-8),
        CheckResult("legendre.ode_second_kind", worst[1], 1e-8),
    ]


def structure_checks(mu: float) -> list[CheckResult]:
    """Parity, pole values and the non-orthogonality witness."""
    r_parity = 0.0
    for n in range(9):
        for j, c in enumerate(legendre.p_poly(n, mu)):
            if (j - n) % 2 != 0:
                r_parity = max(r_parity, abs(c))
    for s in (0.3, 0.7):
        pos, _ = legendre.values(8, s, mu)
        neg, _ = legendre.values(8, -s, mu)
        for n in range(9):
            r_parity = max(r_parity, abs(neg[n] - (-1.0) ** n * pos[n]))
    r_parity = max(r_parity, abs(legendre.q0(0.2, mu) + legendre.q0(-0.2, mu)))

    lim = s_limit(mu)
    pole, _ = legendre.values(10, lim, mu)
    r_pole = abs(pole[2] - 1.0 / (1.0 + mu))
    if not all(math.isfinite(v) for v in pole):
        r_pole = math.inf

    # negative control: for oblate families P1 and P3 are NOT orthogonal
    # under unit weight (they are at mu = 0); quadrature, not closed form.
    # Gated to mu values where the overlap is decisively zero or nonzero.
    if mu == 0.0 or mu >= 0.5:
        # the trapezoid rule in numpy's own expression (np.trapezoid is
        # numpy >= 2.0, np.trapz gone in 2.4)
        ss = np.linspace(-lim, lim, 4001)
        p, _ = legendre.values(3, ss, mu)
        y = p[1] * p[3]
        overlap = float(np.add.reduce(np.diff(ss) * (y[1:] + y[:-1]) / 2.0))
        r_witness = 0.0 if (mu == 0.0) == (abs(overlap) < 1e-3) else 1.0
    else:
        r_witness = 0.0

    return [
        CheckResult("legendre.parity", r_parity, 1e-13),
        CheckResult("legendre.pole_values", r_pole, 1e-12),
        CheckResult("legendre.nonorthogonality_witness", r_witness, 0.5),
    ]


# --- harmonicity -------------------------------------------------------------


def _shell_point(
    rng: random.Random, cfg: SystemConfig, s_cap: float | None
) -> CartesianPoint:
    """A point drawn uniformly in direction and radius on the harmonicity
    shell, redrawn until its |s| = (1+mu)|cos theta| / sqrt(1 + mu cos^2 theta)
    is at most s_cap sqrt(1+mu)."""
    mu, lim = cfg.mu, s_limit(cfg.mu)
    while True:
        r = cfg.R0 * rng.uniform(*HARMONICITY_SHELL)
        cth = rng.uniform(-1.0, 1.0)
        sth = math.sqrt(1.0 - cth * cth)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if s_cap is None or (1.0 + mu) * abs(cth) / math.sqrt(1.0 + mu * cth * cth) <= s_cap * lim:
            return CartesianPoint(r * sth * math.cos(phi), r * sth * math.sin(phi), r * cth)


def _mode_stencils(cfg: SystemConfig, c: CartesianPoint, degree, second_kind, steps) -> np.ndarray:
    """V of the pure mode (R/R0)^n P_n(s), or (R/R0)^n Q_n(s) where
    second_kind, n = degree[j], on the 7-arm stencil of point j of c, for
    every step of steps: a (step, arm, point) array from one
    `legendre.solid_values` pass per kind over every arm of its points.  A
    stencil arm at the origin, or on the axis for Q_n, raises
    StencilOutOfDomainError."""
    z, rho = stencil_meridional(c, steps)
    z, rho = z / cfg.R0, rho / cfg.R0
    v = np.empty(z.shape)
    for kind in (False, True):
        at = second_kind == kind
        if not at.any():
            continue
        try:
            p, q = legendre.solid_values(int(degree[at].max()), z[..., at], rho[..., at], kind)
        except PoleDivergenceError as exc:
            raise StencilOutOfDomainError(str(exc)) from exc
        basis = q if kind else p
        v[..., at] = np.take_along_axis(np.stack(basis), degree[at][None, None, None], axis=0)[0]
    return v


def harmonicity_checks(cfg: SystemConfig, level: str) -> list[CheckResult]:
    """Cartesian FD Laplacian of each pure mode: O(h^2) decay to zero; and
    the exact solid-harmonic identity (`_solid_identity`).

    Residuals are normalized by |grad V| / R0, the central gradient of the
    fine stencil.  The decay ratio is asserted only where the coarse
    residual exceeds the resolvability floor; modes of degree <= 3 are
    polynomials the 7-point stencil differentiates exactly, so their
    residuals sit at rounding level for every h.  Each mode draws its own
    points; the stencils of every mode and both steps are one array stencil
    (`_mode_stencils`), and the Laplacians, the gradients and the ratios
    are array operations over it.
    """
    size = _SIZES[level]
    rng = random.Random(HARMONICITY_SEED)
    modes = [(False, n) for n in range(size.a_max + 1)] + [(True, n) for n in range(size.b_max + 1)]
    shell = [
        _shell_point(rng, cfg, 0.9 if kind else None) for kind, _ in modes for _ in range(size.points_per_mode)
    ]
    c = CartesianPoint(*np.array([(p.x, p.y, p.z) for p in shell]).T)
    second_kind = np.repeat([kind for kind, _ in modes], size.points_per_mode)
    degree = np.repeat([n for _, n in modes], size.points_per_mode)
    hf, hc = (h * cfg.R0 for h in HARMONICITY_STEPS)
    v = _mode_stencils(cfg, c, degree, second_kind, np.array([hf, hc]))
    lap_f = np.abs(fd_laplacian(v[0], hf))
    lap_c = np.abs(fd_laplacian(v[1], hc))
    grad = np.linalg.norm((v[0, 1::2] - v[0, 2::2]) / (2.0 * hf), axis=0)  # central, fine step
    # a constant mode: the stencil cancels exactly
    grad = np.where(grad == 0.0, np.abs(v[0, 0]) / cfg.R0, grad)
    norm_c = lap_c * cfg.R0 / grad
    norm_f = lap_f * cfg.R0 / grad
    resolvable = norm_c > HARMONICITY_RATIO_FLOOR
    ratios = norm_c[resolvable] / norm_f[resolvable]
    ratio_residual = max(abs(ratios.min() - 4.0), abs(ratios.max() - 4.0)) if ratios.size else math.inf
    return [
        CheckResult("harmonic.fd_magnitude", _worst(norm_f), 1e-5),
        CheckResult("harmonic.fd_decay_ratio", ratio_residual, 0.5),
        _solid_identity(cfg, rng),
    ]


def _solid_identity(cfg: SystemConfig, rng: random.Random) -> CheckResult:
    """(R/R0)^n P_n(s) = (r/R0)^n P_n^cl(z/r) for every mu, r = |(x, y, z)|.

    One array `sum_V` of seeded a_0..a_degree at shell points against the
    classical solid harmonics summed by numpy's `legval` (independent code),
    relative to sum |a_n| (r/R0)^n.  The classical solid harmonics are
    harmonic, so this certifies harmonicity exactly where the FD checks
    only see an O(h^2) decay.
    """
    degree = HARMONICITY_SOLID_DEGREE
    a = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
    shell = [_shell_point(rng, cfg, None) for _ in range(HARMONICITY_SOLID_POINTS)]
    x, y, z = np.array([(c.x, c.y, c.z) for c in shell]).T
    R, s = cartesian_R_s(x, y, z, cfg.mu)
    r = np.hypot(np.hypot(x, y), z)
    terms = np.array(a)[:, None] * (r / cfg.R0) ** np.arange(degree + 1)[:, None]
    classical = np.polynomial.legendre.legval(z / r, terms, tensor=False)
    V = sum_V(HarmonicSolution(a=tuple(a), b=(), cfg=cfg), R, s)
    residual = np.max(np.abs(V - classical) / np.abs(terms).sum(axis=0))
    return CheckResult("harmonic.solid_identity", residual, 1e-11)


def _fit_body(cfg: SystemConfig):
    """Noiseless boundary-fit round trips, the samples of both fields taken
    at one `closed_point` solve of the boundary points."""
    rng = random.Random(FIT_SEED)
    nus = np.linspace(-1.45, 1.45, 41)
    ((s, f_C, mb, _),) = yield [(closed_point, cfg.R0, nus, cfg)]
    z, rho = cfg.R0 * s / (1.0 + cfg.mu), cfg.R0 * f_C / mb.h_R  # `meridional`
    truth = HarmonicSolution(
        a=tuple(rng.uniform(-1.0, 1.0) for _ in range(6)), b=(), cfg=cfg
    )
    fitted, _ = fit_boundary(np.column_stack([nus, solid_V(truth, z, rho)]), 5, cfg)
    r_fit = float(np.max(np.abs(np.subtract(fitted.a, truth.a))))

    z_field = HarmonicSolution(a=(0.0, 1.0), b=(), cfg=cfg)
    fitted, _ = fit_boundary(np.column_stack([nus, solid_V(z_field, z, rho)]), 3, cfg)
    r_z = float(np.max(np.abs(np.subtract(fitted.a, (0.0, 1.0, 0.0, 0.0)))))
    return [
        CheckResult("fit.roundtrip", r_fit, 1e-8),
        CheckResult("fit.z_field", r_z, 1e-8),
    ]


# --- suite driver ------------------------------------------------------------


def run_suite(cfg: SystemConfig, level: str = "quick", timings=None) -> list[CheckResult]:
    """All identity suites at the configured mu, at the sample sizes of
    `_SIZES[level]`; `full` widens every sweep.

    The suites with a body (trig, derivative, series and spherical-series
    identities, metrics, transforms, anchor and fit) run together in rounds
    (`_run_bodies`): one call per closed point kernel a round, then every
    series row in one `eval_series_many` call, the series witness.  If
    `timings` is a list, one (suite name, seconds) pair is appended to it per
    suite, in suite order, a suite's seconds without the shared calls, then
    ("closed_kernels", seconds) and ("series_witness", seconds).
    """
    if level not in _SIZES:
        raise ValueError("level must be 'quick' or 'full'")
    mu = cfg.mu
    suites = (  # name, suite, arguments
        ("trig_identity_checks", _trig_identity_body, mu, level),
        ("derivative_checks", _derivative_body, mu, level),
        ("series_identity_checks", _series_identity_body, mu),
        ("spherical_series_checks", _spherical_series_body),
        ("metric_checks", _metric_body, cfg, level),
        ("transform_checks", _transform_body, cfg, level),
        ("anchor_checks", _anchor_body, cfg),
        ("table_checks", table_checks, mu),
        ("spherical_reduction_checks", spherical_reduction_checks, level),
        ("ode_checks", ode_checks, mu, level),
        ("structure_checks", structure_checks, mu),
        ("harmonicity_checks", harmonicity_checks, cfg, level),
        ("fit_checks", _fit_body, cfg),
    )
    results, seconds = [], []
    for _, run, *args in suites:
        start = time.perf_counter()
        results.append(run(*args))  # the checks, or a body
        seconds.append(time.perf_counter() - start)
    done, own, kernels, witness = _run_bodies(
        {i: got for i, got in enumerate(results) if not isinstance(got, list)}
    )
    for i, t in own.items():
        results[i] = done[i]
        seconds[i] += t
    if timings is not None:
        timings.extend((name, t) for (name, *_), t in zip(suites, seconds))
        timings.extend([("closed_kernels", kernels), ("series_witness", witness)])
    return [check for checks in results for check in checks]
