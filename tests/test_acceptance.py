"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and never loosened at runtime.
"""

import math
import random

import numpy as np
import scipy.special
from numpy.polynomial.polynomial import polyder, polyval

from sosharmonics import verify
from sosharmonics.cli import GridSpec
from sosharmonics.coords import (
    CartesianPoint,
    SosPoint,
    SystemConfig,
    cartesian_to_sos,
    dW_dnu,
    metrics_at,
    sos_to_cartesian,
)
from sosharmonics.harmonic import HarmonicSolution, eval_V_at, fit_boundary, s_at_point
from sosharmonics.legendre import (
    eval_q,
    ode_residual,
    p_poly,
    p_reference,
    q_derivs,
    t_poly,
    t_reference,
)
from sosharmonics.trig import (
    d_fC2_dW,
    d_fS_over_fC_dW,
    d_hR2_dW,
    s_limit,
    s_on_reference,
    trig_from_W_robust,
    w_from_s,
)
from sosharmonics.series import Region, region_of, w_border

from _grid import grid_cells
from _oracles import Q3_CLASSICAL_HALF, classical_p_coeffs
from _stencil import laplacian, stencil_values
from _witness import series_bundle


def report(criterion, name, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {criterion} [{status}] {name}: max_residual={worst:.3e} tol={tol:.1e}")
    assert worst <= tol, f"criterion {criterion} ({name}): {worst:.3e} > {tol:.1e}"


def test_c1_spherical_reduction():
    # P_n at mu=0 equals classical Legendre (independent Bonnet oracle)
    classical = classical_p_coeffs(12)
    worst = 0.0
    for n in range(13):
        got = p_poly(n, 0.0)
        for j in range(n + 1):
            ref = classical[n][j] if j < len(classical[n]) else 0.0
            worst = max(worst, abs(got[j] - ref) / max(1.0, abs(ref)))
    report(1, "P_n coefficients vs classical (n<=12)", worst, 1e-12)

    worst_q = 0.0
    for n in range(7):
        for x in (-0.9, -0.5, 0.1, 0.5, 0.9):
            ref = scipy.special.lqn(n, x)[0][n]
            worst_q = max(worst_q, abs(eval_q(n, x, 0.0) - ref))
    worst_q = max(worst_q, abs(eval_q(3, 0.5, 0.0) - Q3_CLASSICAL_HALF))
    report(1, "Q_n values vs classical (n<=6)", worst_q, 1e-10)


def test_c2_table_exactness():
    worst = 0.0
    for mu in (0.0, 0.5, 1.0, 2.0):
        for n in range(7):
            for build, ref in ((p_poly, p_reference), (t_poly, t_reference)):
                got = build(n, mu)
                want = ref(n, mu)
                for g, r in zip(got, want):
                    if r == 0.0:
                        worst = max(worst, abs(g))
                    else:
                        worst = max(worst, abs(g - r) / abs(r))
    report(2, "recursion vs closed tables (n<=6, 4 mu values)", worst, 1e-13)


def test_c3_ode_certification():
    worst_p = worst_q = 0.0
    for mu in (0.0, 0.5, 2.0):
        svals = np.linspace(0.05, 0.95, 50) * s_limit(mu)
        for n in range(11):
            derivs = [polyder(p_poly(n, mu), m) for m in range(3)]
            for s in svals:
                s = float(s)
                F, dF, d2F = (polyval(s, d) for d in derivs)
                res = ode_residual(F, dF, d2F, s, n, mu)
                worst_p = max(worst_p, abs(res) / (1.0 + abs(F) + abs(dF) + abs(d2F)))
                Q, dQ, d2Q = q_derivs(n, s, mu)[1][n]
                res = ode_residual(Q, dQ, d2Q, s, n, mu)
                worst_q = max(worst_q, abs(res) / (1.0 + abs(Q) + abs(dQ) + abs(d2Q)))
    report(3, "generalized equation residual, first kind (n<=10)", worst_p, 1e-8)
    report(3, "generalized equation residual, second kind (n<=10)", worst_q, 1e-8)


def test_c4_identity_corpus():
    mus = (0.3, 0.5, 1.0, 2.0, 5.0)
    worst = {k: 0.0 for k in ("pyth", "hr", "ratio", "power", "round", "a38", "mag")}
    n_points = 0
    for mu in mus:
        border = w_border(mu)
        ws = [f * border for f in np.geomspace(0.03, 0.85, 18)]
        ws += [border * f for f in (0.92, 0.98, 1.03, 1.09)]  # robust-path band
        ws += [border / f for f in np.geomspace(0.85, 0.02, 18)]
        cfg = SystemConfig(mu=mu, R0=1.0)
        for W in ws:
            n_points += 1
            bundles = [trig_from_W_robust(W, mu)]
            if region_of(W, mu) is not Region.NEAR_BORDER:
                bundles.append(series_bundle(W, mu))
            for tb in bundles:
                worst["pyth"] = max(worst["pyth"], abs(tb.f_S**2 + tb.f_C**2 - 1.0))
                worst["hr"] = max(
                    worst["hr"],
                    abs(tb.f_S**2 - (1.0 + mu) * (1.0 - tb.h_R**2) / mu),
                    abs(tb.f_C**2 - ((1.0 + mu) * tb.h_R**2 - 1.0) / mu),
                )
                lhs = tb.f_S**2 / tb.f_C**2
                rhs = (1.0 + mu) * tb.s**2 / ((1.0 + mu) - tb.s**2)
                worst["ratio"] = max(worst["ratio"], abs(lhs - rhs) / abs(rhs))
                llhs = (-math.log(W) + (mu + 1.0) * math.log(tb.f_S / tb.f_C)) / mu
                lrhs = 0.5 * math.log(1.0 + mu) / mu + math.log(tb.s)
                worst["power"] = max(worst["power"], abs(llhs - lrhs))
                worst["round"] = max(
                    worst["round"], abs(w_from_s(tb.s, mu) - W) / W
                )
            # point on this cone at R=1 for the metric and magnitude identities
            tb = bundles[0]
            c = CartesianPoint(tb.f_C / tb.h_R, 0.0, tb.s / (1.0 + mu))
            p = cartesian_to_sos(c, cfg)
            mb = metrics_at(p.R, p.nu, cfg)
            dw_dnu = dW_dnu(p.R, p.nu, cfg)
            lhs = mb.h_R**2 * mb.h_nu**2 * (1.0 + mu) ** 2
            rhs = tb.f_C**2 * tb.f_S**2 * p.R**2 * dw_dnu**2 / W**2
            worst["a38"] = max(worst["a38"], abs(lhs - rhs) / abs(rhs))
            mag = c.x**2 + c.y**2 + c.z**2
            ref = p.R**2 * (1.0 - mu * tb.s**2 / (1.0 + mu) ** 2)
            worst["mag"] = max(worst["mag"], abs(mag - ref) / abs(ref))
    assert n_points == 200
    report(4, "pythagorean identity", worst["pyth"], 1e-8)
    report(4, "scale-factor relations", worst["hr"], 1e-8)
    report(4, "sine/cosine ratio vs s", worst["ratio"], 1e-8)
    report(4, "fractional power form", worst["power"], 1e-8)
    report(4, "closed inversion roundtrip", worst["round"], 1e-8)
    report(4, "metric product link", worst["a38"], 1e-8)
    report(4, "position magnitude", worst["mag"], 1e-8)

    # derivative identities vs central differences
    worst_d = 0.0
    cases = (
        (lambda tb: tb.h_R**2, d_hR2_dW),
        (lambda tb: tb.f_C**2, d_fC2_dW),
        (lambda tb: tb.f_S**2, lambda tb: -d_fC2_dW(tb)),  # f_S^2 + f_C^2 = 1
        (lambda tb: tb.f_S / tb.f_C, d_fS_over_fC_dW),
        (lambda tb: tb.s, lambda tb: tb.f_C**2 * tb.f_S / (tb.W * tb.h_R)),
        (lambda tb: math.log(tb.f_S / tb.f_C), lambda tb: tb.h_R**2 / tb.W),
    )
    for mu in (0.5, 2.0):
        border = w_border(mu)
        for W in [f * border for f in (0.1, 0.5, 0.8, 1.0, 1.4, 4.0)]:
            step = 1e-6 * W
            hi = trig_from_W_robust(W + step, mu)
            lo = trig_from_W_robust(W - step, mu)
            mid = trig_from_W_robust(W, mu)
            for value, analytic in cases:
                fd = (value(hi) - value(lo)) / (2.0 * step)
                ref = analytic(mid)
                worst_d = max(worst_d, abs(fd - ref) / max(abs(ref), 1e-12))
    report(4, "derivative identities vs central differences", worst_d, 1e-6)


def test_c5_closed_form_anchors():
    worst = 0.0
    for mu in (0.5, 2.0):
        cfg = SystemConfig(mu=mu, R0=1.0)
        for nu in np.linspace(-math.pi / 2 + 0.02, math.pi / 2 - 0.02, 20):
            nu = float(nu)
            worst = max(worst, abs(s_at_point(1.0, nu, cfg) - s_on_reference(nu, mu)))
    report(5, "s on the reference spheroid vs closed form", worst, 1e-10)

    worst_end = 0.0
    for mu in (0.5, 2.0):
        cfg = SystemConfig(mu=mu, R0=1.0)
        lim = s_limit(mu)
        worst_end = max(
            worst_end,
            abs(s_at_point(1.0, 0.0, cfg)),
            abs(s_at_point(1.0, math.pi / 2, cfg) - lim),
            abs(trig_from_W_robust(0.0, mu).h_R - 1.0),
            abs(series_bundle(0.0, mu).h_R - 1.0),
            abs(sos_to_cartesian(SosPoint(1.0, math.pi / 2), cfg).z - 1.0 / lim),
        )
    report(5, "equator/pole endpoint values", worst_end, 1e-12)


def test_c6_harmonicity():
    # the 7-point FD Laplacian of each pure mode, P_0..P_6 and Q_0..Q_3, at 20
    # shell points each (units of R0), normalized by the central gradient of
    # the fine stencil; the O(h^2) decay ratio is taken where the coarse
    # residual exceeds 1e-7, as modes of degree <= 3 are polynomials that the
    # stencil differences exactly
    fine, coarse = 5e-3, 1e-2
    worst_mag = 0.0
    ratio_lo, ratio_hi = math.inf, 0.0
    for mu in (0.5, 2.0):
        cfg = SystemConfig(mu=mu, R0=1.0)
        rng = random.Random(verify.HARMONICITY_SEED)
        for kind, n in [(False, n) for n in range(7)] + [(True, n) for n in range(4)]:
            coeffs = tuple(1.0 if i == n else 0.0 for i in range(n + 1))
            sol = HarmonicSolution(a=() if kind else coeffs, b=coeffs if kind else (), cfg=cfg)
            c = CartesianPoint(*verify._shell(rng, mu, 20, verify.HARMONICITY_S_CAP if kind else None))
            v_f, v_c = stencil_values(sol, c, fine), stencil_values(sol, c, coarse)
            grad = np.linalg.norm((v_f[1::2] - v_f[2::2]) / (2.0 * fine), axis=0)
            grad = np.where(grad == 0.0, np.abs(v_f[0]), grad)  # a constant mode
            norm_f = np.abs(laplacian(v_f, fine)) / grad
            norm_c = np.abs(laplacian(v_c, coarse)) / grad
            worst_mag = max(worst_mag, float(norm_f.max()))
            ratios = norm_c[norm_c > 1e-7] / norm_f[norm_c > 1e-7]
            if ratios.size:
                ratio_lo, ratio_hi = min(ratio_lo, float(ratios.min())), max(ratio_hi, float(ratios.max()))
    report(6, "normalized FD Laplacian at h=5e-3 R0", worst_mag, 1e-5)
    ok = 3.5 <= ratio_lo and ratio_hi <= 4.5
    print(
        f"ACCEPTANCE 6 [{'PASS' if ok else 'FAIL'}] decay ratio bounds: "
        f"[{ratio_lo:.3f}, {ratio_hi:.3f}] within [3.5, 4.5]"
    )
    assert ok


def test_c7_transform_roundtrip():
    rng = random.Random(77)
    worst_rt = worst_member = 0.0
    for mu in (0.5, 2.0):
        cfg = SystemConfig(mu=mu, R0=1.0)
        for _ in range(250):
            R = math.exp(rng.uniform(math.log(0.1), math.log(8.0)))
            nu = rng.uniform(-1.57, 1.57)
            lam = rng.uniform(-math.pi, math.pi)
            p = SosPoint(R=R, nu=nu, lam=lam)
            c = sos_to_cartesian(p, cfg)
            worst_member = max(
                worst_member,
                abs(c.x**2 + c.y**2 + (1.0 + mu) * c.z**2 - R * R) / (R * R),
            )
            back = cartesian_to_sos(c, cfg)
            worst_rt = max(
                worst_rt,
                abs(back.R - R) / R,
                abs(back.nu - nu),
                abs(back.lam - lam),
            )
    report(7, "sos -> cartesian -> sos roundtrip (500 points)", worst_rt, 1e-9)
    report(7, "spheroid membership residual", worst_member, 1e-10)


def test_c8_fit_roundtrip():
    rng = random.Random(88)
    cfg = SystemConfig(mu=2.0, R0=1.0)
    truth = HarmonicSolution(a=tuple(rng.uniform(-1, 1) for _ in range(6)), b=(), cfg=cfg)
    nus = np.linspace(-1.5, 1.5, 41)
    samples = [(float(nu), eval_V_at(truth, SosPoint(1.0, float(nu)))) for nu in nus]
    fitted, diag = fit_boundary(samples, 5, cfg)
    worst = float(np.max(np.abs(np.array(fitted.a) - np.array(truth.a))))
    report(8, "random degree-5 coefficient recovery", worst, 1e-8)
    assert diag.residual_norm <= 1e-10

    z_field = HarmonicSolution(a=(0.0, 1.0), b=(), cfg=cfg)
    samples = [(float(nu), eval_V_at(z_field, SosPoint(1.0, float(nu)))) for nu in nus]
    fitted, _ = fit_boundary(samples, 3, cfg)
    worst = abs(fitted.a[1] - 1.0)
    for n in (0, 2, 3):
        worst = max(worst, abs(fitted.a[n]))
    report(8, "V = z field gives exactly the degree-1 mode", worst, 1e-8)


def test_c9_cone_level_sets():
    cfg = SystemConfig(mu=2.0, R0=1.0)
    spec = GridSpec(x_min=0.0, x_max=2.0, z_min=0.0, z_max=2.0, nx=101, nz=101)
    values = [v for _, _, v in grid_cells(cfg, spec, "s")]
    value = lambda i, j: values[j * 101 + i]
    worst = 0.0
    checked = 0
    for i in range(51):
        for j in range(51):
            if i == j == 0:
                continue
            v1, v2 = value(i, j), value(2 * i, 2 * j)
            assert v1 is not None and v2 is not None
            worst = max(worst, abs(v1 - v2))
            checked += 1
    assert checked == 2600
    report(9, "s constant along origin rays (101x101 grid)", worst, 1e-9)
