"""High-degree accuracy of the value recursion against 60-digit mpmath.

The power basis (p_poly/t_poly evaluated by Horner) cancels at these
degrees; every evaluation path has to stay at rounding level here.
"""

import math
import random
import sys
import threading

import mpmath
import numpy as np
import pytest

from sosharmonics import legendre
from sosharmonics.coords import CartesianPoint, SystemConfig, cartesian_R_s, cartesian_to_sos
from sosharmonics.harmonic import (
    HarmonicSolution,
    eval_V,
    eval_V_at,
    eval_V_cartesian,
    fit_boundary,
    solid_V,
    sum_V,
)
from sosharmonics.legendre import eval_q, ode_residual, q_derivs, value_derivs, values
from sosharmonics.trig import s_limit

from _oracles import forward_meridional, forward_solid, mp_legendre, mp_meridional, mp_potential, mp_solid

MU_GRID = [0.0, 0.5, 2.0, 20.0]
S_FRACS = [-0.999, -0.7, -0.31, 0.0, 0.05, 0.5, 0.93, 0.999]


def _rel(got, ref):
    return abs(got - float(ref)) / max(1.0, abs(float(ref)))


@pytest.mark.parametrize("mu", MU_GRID)
def test_values_to_degree_100(mu):
    for frac in S_FRACS:
        s = frac * s_limit(mu)
        p, q = values(100, s, mu, True)
        _, dt = value_derivs(100, s, mu)
        P, T, Q = mp_legendre(100, s, mu)
        assert len(p) == len(q) == 101
        assert max(_rel(g, r) for g, r in zip(p, P)) <= 1e-13
        assert max(_rel(f[0], r) for f, r in zip(dt, T)) <= 1e-13
        assert max(_rel(g, r) for g, r in zip(q, Q)) <= 1e-13


@pytest.mark.parametrize("mu", MU_GRID)
def test_values_of_an_array_match_the_scalars(mu):
    ss = np.array(S_FRACS) * s_limit(mu)
    p, q = values(100, ss, mu, True)
    for k, s in enumerate(ss):
        ps, qs = values(100, float(s), mu, True)
        assert [v[k] for v in p] == ps
        assert [v[k] for v in q] == qs


@pytest.mark.parametrize("mu", MU_GRID)
def test_eval_q_to_degree_100(mu):
    for frac in S_FRACS:
        s = frac * s_limit(mu)
        _, _, Q = mp_legendre(100, s, mu)
        assert max(_rel(eval_q(n, s, mu), Q[n]) for n in range(101)) <= 1e-13


@pytest.mark.parametrize("mu", MU_GRID)
def test_eval_V_degree_60(mu):
    rng = random.Random(60)
    a = [rng.uniform(-1.0, 1.0) for _ in range(61)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(61)]
    sol = HarmonicSolution(a=a, b=b, cfg=SystemConfig(mu=mu, R0=1.0))
    for R in (0.5, 1.0):
        for frac in (-0.95, -0.4, 0.0, 0.2, 0.7, 0.95):
            s = frac * s_limit(mu)
            ref, scale = mp_potential(a, b, R, s, mu)
            assert abs(eval_V(sol, R, s) - ref) <= 1e-12 * scale


@pytest.mark.parametrize("mu", [0.0, 2.0, 20.0, 200.0])
def test_clenshaw_sum_degree_100_with_second_kind(mu):
    rng = random.Random(100)
    a = [rng.uniform(-1.0, 1.0) for _ in range(101)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(8)]
    sol = HarmonicSolution(a=a, b=b, cfg=SystemConfig(mu=mu, R0=1.0))
    for R in (0.5, 1.0):
        for frac in (-0.95, -0.4, 0.0, 0.2, 0.7, 0.95):
            s = frac * s_limit(mu)
            ref, scale = mp_potential(a, b, R, s, mu)
            assert abs(eval_V(sol, R, s) - ref) <= 1e-13 * scale


def test_pure_degree_1000_mode_grows_the_step_table(monkeypatch):
    # start from the import-time tables, whatever other tests grew them to
    monkeypatch.setattr(legendre, "_STEPS", tuple(t[:64] for t in legendre._STEPS))
    mu, n = 20.0, 1000
    a = [0.0] * n + [1.0]
    sol = HarmonicSolution(a=a, b=(), cfg=SystemConfig(mu=mu, R0=1.0))
    # points on r = R0, where |V| <= 1, away from the axis: there the
    # rounding of 1 - mu s^2/(1+mu)^2 in the recursion is amplified by the
    # slope n^2/2 of P_n^cl at z/r = 1, in the forward recursion as here
    for k in range(24):
        theta = (k + 0.5) * math.pi / 24
        R, s = cartesian_R_s(math.sin(theta), 0.0, math.cos(theta), mu)
        ref, _ = mp_potential(a, [], R, s, mu)
        assert abs(sum_V(sol, R, s) - ref) <= 1e-11, theta
    A, B = legendre._STEPS
    assert len(A) == len(B) > n
    assert all(A[m] == (2.0 * m + 1.0) / (m + 1.0) and B[m] == m / (m + 1.0) for m in range(len(A)))


def test_pure_degree_1000_mode_near_the_axis_at_any_mu():
    # the solid step runs in the point's own (z, rho), so mu never enters:
    # down to theta = 1e-4 from the axis, from Cartesian input and from the
    # (R, nu) image of the same point, a_1000 is within 2e-11 of r^n of
    # 60 digits at the exact point (P_1000's own float conditioning near
    # z/r = 1 is about 1.3e-11)
    n = 1000
    cartesian = []
    for mu in (0.0, 20.0, 1e4):
        cfg = SystemConfig(mu=mu, R0=1.0)
        sol = HarmonicSolution(a=[0.0] * n + [1.0], b=(), cfg=cfg)
        V = []
        for theta in (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 1.5):
            c = CartesianPoint(0.999 * math.sin(theta), 0.0, 0.999 * math.cos(theta))
            p = cartesian_to_sos(c, cfg)
            with mpmath.workdps(60):
                for got, (z, rho) in ((eval_V_cartesian(sol, c), (c.z, c.x)),
                                      (eval_V_at(sol, p), mp_meridional(p.R, p.nu, mu))):
                    ref, rn = mp_solid(n, z, rho)
                    assert abs(got - ref) <= 2e-11 * rn, (mu, theta)
            V.append(eval_V_cartesian(sol, c))
        cartesian.append(V)
    assert cartesian[0] == cartesian[1] == cartesian[2]


def test_threads_growing_the_step_table_at_once(monkeypatch):
    # each thread must get tables long enough for its own degree, whichever
    # thread's tables end up shared
    degrees = [100 * (k + 1) for k in range(8)]
    sols = [HarmonicSolution(a=[0.0] * n + [1.0], b=(), cfg=SystemConfig(mu=2.0, R0=1.0)) for n in degrees]
    serial = [sum_V(sol, 1.0, 0.3) for sol in sols]
    results = [None] * len(sols)

    def run(k):
        results[k] = sum_V(sols[k], 1.0, 0.3)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(legendre, "_STEPS", ((), ()))
            results[:] = [None] * len(sols)
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(sols))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=10.0)
            assert not any(th.is_alive() for th in threads)
            assert results == serial
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("mu", MU_GRID + [200.0])
def test_clenshaw_sum_equals_the_forward_sum(mu):
    rng = random.Random(41)
    a = [rng.uniform(-1.0, 1.0) for _ in range(41)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(6)]
    sol = HarmonicSolution(a=a, b=b, cfg=SystemConfig(mu=mu, R0=1.0))
    ss = np.array(S_FRACS) * s_limit(mu)
    rr = np.linspace(0.3, 1.2, len(ss))
    got = sum_V(sol, rr, ss)
    # the s form, and the (z, rho) form at the (z, rho) of the same s
    zz, rho = (rr * v for v in legendre.s_to_zrho(ss, mu))
    got_zrho = solid_V(sol, zz, rho)
    for k, (s, r) in enumerate(zip(ss.tolist(), rr.tolist())):
        z_k, rho_k = zz[k].item(), rho[k].item()
        for V, (p, q) in ((sum_V(sol, r, s), forward_solid(40, s, mu, 5, r)),
                          (solid_V(sol, z_k, rho_k), forward_meridional(40, z_k, rho_k, 5))):
            terms = [c * f for c, f in zip(a, p)] + [c * f for c, f in zip(b, q)]
            scale = sum(abs(v) for v in terms)
            assert abs(V - math.fsum(terms)) <= 1e-14 * scale
        assert got[k] == sum_V(sol, r, s)
        assert got_zrho[k] == solid_V(sol, z_k, rho_k)


@pytest.mark.parametrize("mu", MU_GRID)
def test_ode_residual_degree_60(mu):
    for frac in np.linspace(0.05, 0.95, 23):
        s = float(frac * s_limit(mu))
        p, _ = value_derivs(60, s, mu)
        for F in (p[60], q_derivs(60, s, mu)[1][60]):
            res = ode_residual(*F, s, 60, mu)
            assert abs(res) / (1.0 + sum(abs(v) for v in F)) <= 1e-10


@pytest.mark.parametrize("mu", MU_GRID)
def test_value_derivs_values_match_values(mu):
    # the F columns of value_derivs (P and T) and q_derivs (Q) against mpmath
    for frac in S_FRACS:
        s = frac * s_limit(mu)
        dp, dt = value_derivs(100, s, mu)
        P, T, Q = mp_legendre(100, s, mu)
        assert max(_rel(f[0], r) for f, r in zip(dp, P)) <= 1e-13
        assert max(_rel(f[0], r) for f, r in zip(dt, T)) <= 1e-13
        assert max(_rel(f[0], r) for f, r in zip(q_derivs(100, s, mu)[1], Q)) <= 1e-13


def test_fit_degree_60_chebyshev_nodes():
    # mu = 0: s = sin(nu) on the reference sphere, nodes at Chebyshev points
    rng = random.Random(61)
    a = [rng.uniform(-1.0, 1.0) for _ in range(61)]
    m = 2 * len(a) + 8
    nus = [math.asin(math.cos(math.pi * (k + 0.5) / m)) for k in range(m)]
    samples = [(nu, mp_potential(a, [], 1.0, math.sin(nu), 0.0)[0]) for nu in nus]
    sol, diag = fit_boundary(samples, 60, SystemConfig(mu=0.0, R0=1.0))
    assert diag.rank == 61
    assert max(abs(g - t) for g, t in zip(sol.a, a)) <= 1e-6


@pytest.mark.parametrize("R0", [1.0, 3.7, 6.957e8])
@pytest.mark.parametrize("mu", [0.5, 2.0, 20.0, 200.0])
def test_pure_modes_are_classical_solid_harmonics(mu, R0):
    # (R/R0)^n P_n(s) = (r/R0)^n P_n^cl(z/r) with r = sqrt(x^2 + z^2), for
    # every mu; the classical side is numpy's Clenshaw sum, independent code.
    # The s-form sum at `cartesian_R_s` and the sum at the points' own
    # (z, rho = x) both meet it
    rng = np.random.default_rng(40)
    r = R0 * rng.uniform(0.2, 1.5, 60)
    theta = rng.uniform(0.0, math.pi, 60)
    x, z = r * np.sin(theta), r * np.cos(theta)
    R, s = cartesian_R_s(x, 0.0, z, mu)
    r = np.hypot(x, z)
    for n in range(41):
        sol = HarmonicSolution(a=[0.0] * n + [1.0], b=(), cfg=SystemConfig(mu=mu, R0=R0))
        radial = (r / R0) ** n
        classical = radial * np.polynomial.legendre.legval(z / r, [0.0] * n + [1.0])
        assert np.all(np.abs(sum_V(sol, R, s) - classical) <= 1e-11 * radial), n
        assert np.all(np.abs(solid_V(sol, z, x) - classical) <= 1e-11 * radial), n


@pytest.mark.parametrize("n, mu, x, z", [(300, 20.0, 0.01, 5.0), (120, 200.0, 0.5, 30.0)])
def test_representable_V_beyond_where_R_to_the_n_overflows(n, mu, x, z):
    # R^n overflows and P_n(s) underflows; their product is near 1e200
    a = [0.0] * n + [1.0]
    sol = HarmonicSolution(a=a, b=(), cfg=SystemConfig(mu=mu, R0=1.0))
    V = eval_V_cartesian(sol, CartesianPoint(x, 0.0, z))
    ref, _ = mp_potential(a, [], *cartesian_R_s(x, 0.0, z, mu), mu)
    assert math.isfinite(V)
    assert abs(V - ref) <= 1e-9 * abs(ref)
