"""The point kernels on numpy arrays against their float calls, each of
which is one element of the array call, and the verify suites that evaluate
each sample set in one array pass."""

import itertools
import math
import random
from dataclasses import astuple

import numpy as np
import pytest

from sosharmonics import harmonic, legendre, verify
from sosharmonics.coords import (
    CartesianPoint,
    SosPoint,
    SystemConfig,
    cartesian_closed,
    cartesian_point,
    cartesian_R_nu,
    cartesian_R_s,
    cartesian_to_sos,
    closed_point,
    meridional,
    metrics_at,
)
from sosharmonics.errors import DegenerateOriginError, StencilOutOfDomainError
from sosharmonics.harmonic import (
    HarmonicSolution,
    eval_V_at,
    eval_V_cartesian,
    fd_stencil,
    laplacian_residual_fd,
)
from sosharmonics.trig import closed_trig, s_limit, s_on_reference, solve_logit, trig_from_W_robust
from sosharmonics.verify import _mode_stencils, _shell_point, anchor_checks, ode_checks

MUS = (0.0, 0.5, 2.0, 20.0, 200.0, 1000.0)
R_OVER_R0 = (0.5, 1.0, 2.2)
NUS = tuple(sign * v for v in (0.0, 1e-12, 1e-6, 0.7, 1.5707963, math.pi / 2) for sign in (1.0, -1.0))


def _grid(mu):
    """The (R, nu) grid points whose float call returns, with its results."""
    cfg = SystemConfig(mu=mu)
    points, floats = [], []
    for R, nu in itertools.product(R_OVER_R0, NUS):
        try:
            s, f_C, mb, log_w = closed_point(R, nu, cfg)
        except ArithmeticError:
            continue
        points.append((R, nu))
        floats.append((s, f_C, *astuple(mb), log_w, *meridional(R, nu, cfg)))
    R, nu = np.array(points).T
    return cfg, R, nu, floats


@pytest.mark.parametrize("mu", MUS)
def test_closed_point_and_meridional_agree_with_float_calls(mu):
    cfg, R, nu, floats = _grid(mu)
    s, f_C, mb, log_w = closed_point(R, nu, cfg)
    arrays = np.array([s, f_C, *astuple(mb), log_w, *meridional(R, nu, cfg)]).T
    for got, want in zip(arrays.tolist(), floats):
        assert got == list(want)


@pytest.mark.parametrize("mu", MUS)
def test_array_inverse_agrees_with_float_calls(mu):
    cfg, R, nu, _ = _grid(mu)
    z, rho = meridional(R, nu, cfg)
    x, y = rho * math.cos(0.3), rho * math.sin(0.3)
    arrays = np.array(cartesian_R_nu(x, y, z, cfg)).T
    for got, point in zip(arrays.tolist(), zip(x.tolist(), y.tolist(), z.tolist())):
        want = cartesian_R_nu(*point, cfg)
        assert astuple(cartesian_to_sos(CartesianPoint(*point), cfg)) == want
        assert tuple(got) == want


@pytest.mark.parametrize("mu", MUS)
def test_trig_from_W_robust_agrees_with_float_calls(mu):
    W = np.array([0.0, 1e-300, 1e-8, 0.3, 1.0, 5.0, 1e10, 1e300])
    tb = trig_from_W_robust(W, mu)
    for k, w in enumerate(W.tolist()):
        want = trig_from_W_robust(w, mu)
        for f in ("h_R", "f_S", "f_C", "s"):
            assert getattr(tb, f)[k] == getattr(want, f), (w, f)
    assert np.array_equal(solve_logit(np.array([-math.inf, math.inf]), mu), [-math.inf, math.inf])


@pytest.mark.parametrize("mu", MUS)
def test_poles_and_equator_keep_their_closed_values(mu):
    cfg, lim = SystemConfig(mu=mu), s_limit(mu)
    R = np.array([0.5, 2.2, 1.0, 1.0])
    nu = np.array([math.pi / 2, -math.pi / 2, 0.0, -0.0])
    s, f_C, mb, log_w = closed_point(R, nu, cfg)
    assert s.tolist() == [lim, -lim, 0.0, 0.0]
    assert f_C.tolist() == [0.0, 0.0, 1.0, 1.0]
    assert mb.h_R.tolist()[2:] == [1.0, 1.0]
    assert mb.jacobian.tolist()[:2] == mb.jac_over_hR2.tolist()[:2] == mb.jac_over_hnu2.tolist()[:2] == [0.0, 0.0]
    assert log_w.tolist() == [math.inf, math.inf, -math.inf, -math.inf]
    z, rho = meridional(R, nu, cfg)
    assert rho.tolist()[:2] == [0.0, 0.0]
    assert z.tolist()[2:] == [0.0, 0.0]


@pytest.mark.parametrize("R, nu", [(2.2, 0.0), (0.2733, 0.8708)])
def test_an_array_raises_where_its_float_call_raises(R, nu):
    """At mu = 1000, (R/R0)^mu overflows on the equator at R = 2.2, and
    h_nu underflows at (0.2733, 0.8708)."""
    cfg = SystemConfig(mu=1000.0)
    with pytest.raises(ArithmeticError):
        closed_point(R, nu, cfg)
    for call in (closed_point, meridional, metrics_at):
        with pytest.raises(ArithmeticError):
            call(np.array([1.0, R]), np.array([0.7, nu]), cfg)


def _float_results(value) -> list:
    """Every number of a kernel's result, through tuples and records."""
    if isinstance(value, tuple):
        return [v for item in value for v in _float_results(item)]
    if hasattr(value, "__dataclass_fields__"):
        return _float_results(astuple(value))
    return [value]


def test_a_float_call_returns_python_floats():
    cfg = SystemConfig(mu=2.0)
    c = CartesianPoint(0.3, 0.1, 0.5)
    results = [
        closed_point(1.3, 0.7, cfg), closed_point(1.0, -math.pi / 2, cfg), meridional(1.3, 0.7, cfg),
        metrics_at(1.3, 0.7, cfg), cartesian_R_s(0.3, 0.1, 0.5, 2.0), cartesian_closed(0.3, 0.1, 0.5, 2.0),
        cartesian_R_nu(0.3, 0.1, 0.5, cfg), cartesian_point(c, cfg), trig_from_W_robust(0.0, 2.0),
        solve_logit(0.3, 2.0), closed_trig(0.3, 2.0), s_on_reference(0.7, 2.0),
        harmonic._cartesian_meridional(c),
    ]
    for result in results:
        assert all(type(v) is float for v in _float_results(result)), result


@pytest.mark.parametrize("mu, R, nu, error", [
    (1000.0, 2.2, 0.0, OverflowError),
    (1000.0, 0.2733, 0.8708, ZeroDivisionError),
    (2.0, 0.0, 0.3, ValueError),
    (2.0, 1.0, 1.6, ValueError),
    (2.0, 1.0, math.nan, ValueError),
])
def test_a_float_call_raises_the_exception_of_its_element(mu, R, nu, error):
    cfg = SystemConfig(mu=mu)
    for call in (closed_point, meridional, metrics_at):
        with pytest.raises(error):
            call(R, nu, cfg)
        with pytest.raises(error):
            call(np.array([1.0, R]), np.array([0.7, nu]), cfg)


def test_a_cartesian_call_raises_at_the_origin_and_where_sin_nu_underflows():
    """At x = z = 1e200 and mu = 2, s is about 1.2 but sin(nu) underflows to
    0, so h_nu is 0 / 0: the float call and an array holding the point raise
    ZeroDivisionError, as `eval` reports it."""
    cfg = SystemConfig(mu=2.0)
    for x, z, error in ((0.0, 0.0, DegenerateOriginError), (1e200, 1e200, ZeroDivisionError)):
        with pytest.raises(error):
            cartesian_point(CartesianPoint(x, 0.0, z), cfg)
        with pytest.raises(error):
            cartesian_point(CartesianPoint(np.array([0.3, x]), 0.0, np.array([0.5, z])), cfg)
    for call in (cartesian_R_s, cartesian_closed):
        with pytest.raises(DegenerateOriginError):
            call(0.0, 0.0, 0.0, 2.0)
    with pytest.raises(DegenerateOriginError):
        cartesian_R_nu(np.array([0.3, 0.0]), 0.0, np.array([0.5, 0.0]), cfg)
    with pytest.raises(DegenerateOriginError):
        harmonic._cartesian_meridional(CartesianPoint(0.0, 0.0, 0.0))


def test_an_array_outside_the_chart_raises_value_error():
    cfg = SystemConfig(mu=2.0)
    for R, nu in ((np.array([1.0, 0.0]), 0.3), (np.array([1.0, -1.0]), 0.3), (1.0, np.array([0.3, 1.6]))):
        with pytest.raises(ValueError):
            closed_point(R, nu, cfg)
    with pytest.raises(ValueError):
        trig_from_W_robust(np.array([0.3, -1.0]), 2.0)


@pytest.mark.parametrize("mu", [2.0, 200.0])
def test_eval_V_at_arrays_is_elementwise(mu):
    cfg = SystemConfig(mu=mu, R0=1.0)
    sol = HarmonicSolution(a=(0.5, -1.0, 0.25, 0.7), b=(0.2, -0.6), cfg=cfg)
    R, nu = np.array([0.4, 1.0, 1.7]), np.array([-1.2, 0.3, 1.5])
    V = eval_V_at(sol, SosPoint(R, nu))
    for k in range(3):
        assert V[k] == eval_V_at(sol, SosPoint(float(R[k]), float(nu[k])))


def _float_stencil(sol, c, h):
    """The 7-point Laplacian and the central gradient at one float point, one
    `eval_V_cartesian` call per stencil value."""
    V = lambda dx, dy, dz: eval_V_cartesian(sol, CartesianPoint(c.x + dx, c.y + dy, c.z + dz))
    v0 = eval_V_cartesian(sol, c)
    arms = [V(h, 0.0, 0.0), V(-h, 0.0, 0.0), V(0.0, h, 0.0), V(0.0, -h, 0.0), V(0.0, 0.0, h), V(0.0, 0.0, -h)]
    acc = 0.0
    for v in arms:
        acc += v
    grad = math.hypot(*((arms[k] - arms[k + 1]) / (2.0 * h) for k in (0, 2, 4)))
    return (acc - 6.0 * v0) / (h * h), grad


@pytest.mark.parametrize("mu", [2.0, 200.0])
@pytest.mark.parametrize("kind, n", [("a", 0), ("a", 3), ("a", 6), ("b", 0), ("b", 2)])
def test_array_stencil_has_the_bits_of_float_calls(mu, kind, n):
    cfg = SystemConfig(mu=mu, R0=1.0)
    coeffs = tuple(1.0 if i == n else 0.0 for i in range(n + 1))
    sol = HarmonicSolution(a=coeffs if kind == "a" else (), b=coeffs if kind == "b" else (), cfg=cfg)
    rng = random.Random(5)
    shell = [_shell_point(rng, cfg, 0.9 if kind == "b" else None) for _ in range(40)]
    c = CartesianPoint(*np.array([(p.x, p.y, p.z) for p in shell]).T)
    for h in (1e-2, 5e-3):
        lap = laplacian_residual_fd(sol, c, h)
        v = fd_stencil(sol, c, h)
        central = (v[1::2] - v[2::2]) / (2.0 * h)
        for k, p in enumerate(shell):
            want_lap, want_grad = _float_stencil(sol, p, h)
            assert lap[k] == want_lap == laplacian_residual_fd(sol, p, h)
            assert math.hypot(*central[:, k].tolist()) == want_grad


@pytest.mark.parametrize("R0", [1.0, 6.957e8])
@pytest.mark.parametrize("mu", [2.0, 200.0])
def test_one_stencil_pass_matches_fd_stencil_for_every_mode(mu, R0):
    """`_mode_stencils` sums each pure mode by the forward solid step, where
    `fd_stencil` sums it by Clenshaw's pass: both err by a few ulp of the
    size (r/R0)^n of the mode's terms, |P_n^cl| <= 1 (8.5 ulp seen)."""
    cfg = SystemConfig(mu=mu, R0=R0)
    modes = [(False, n) for n in range(7)] + [(True, n) for n in range(4)]
    rng = random.Random(9)
    shell = [_shell_point(rng, cfg, 0.9 if kind else None) for kind, _ in modes for _ in range(5)]
    c = CartesianPoint(*np.array([(p.x, p.y, p.z) for p in shell]).T)
    second_kind, degree = (np.repeat(f, 5) for f in zip(*modes))
    steps = np.array([5e-3, 1e-2]) * R0
    v = _mode_stencils(cfg, c, degree, second_kind, steps)
    assert v.shape == (2, 7, len(shell))
    for m, (kind, n) in enumerate(modes):
        at = slice(5 * m, 5 * m + 5)
        coeffs = tuple(1.0 if i == n else 0.0 for i in range(n + 1))
        sol = HarmonicSolution(a=() if kind else coeffs, b=coeffs if kind else (), cfg=cfg)
        point = CartesianPoint(c.x[at], c.y[at], c.z[at])
        r = np.sqrt(point.x**2 + point.y**2 + point.z**2)
        for got, h in zip(v, steps.tolist()):
            size = np.max((r + h) / R0) ** n
            assert np.max(np.abs(got[:, at] - fd_stencil(sol, point, h))) <= 16.0 * np.spacing(size), (kind, n)


def test_harmonicity_checks_take_one_basis_pass_per_kind_and_no_fd_stencil(monkeypatch):
    passes = []
    solid_values = legendre.solid_values

    def counted(N, z, rho, second_kind=False):
        passes.append((N, np.shape(z), second_kind))
        return solid_values(N, z, rho, second_kind)

    def forbidden(*args, **kwargs):
        raise AssertionError("harmonicity_checks called fd_stencil")

    monkeypatch.setattr(legendre, "solid_values", counted)
    for module in (harmonic, verify):
        monkeypatch.setattr(module, "fd_stencil", forbidden, raising=False)
    checks = verify.harmonicity_checks(SystemConfig(mu=2.0), a_max=3, b_max=1, points_per_mode=4)
    assert all(c.passed for c in checks)
    # both steps, every arm, the points of every mode of the kind
    assert passes == [(3, (2, 7, 16), False), (1, (2, 7, 8), True)]


def test_harmonicity_stencil_on_the_axis_is_out_of_domain():
    """A Q_n stencil arm on the axis raises, as `fd_stencil` does; a P_n one
    does not."""
    cfg = SystemConfig(mu=2.0)
    c = CartesianPoint(np.array([1e-2, 1.0]), np.array([0.0, 0.5]), np.array([0.5, 0.5]))
    _mode_stencils(cfg, c, np.array([1, 1]), np.array([False, False]), np.array([1e-2]))
    with pytest.raises(StencilOutOfDomainError):
        _mode_stencils(cfg, c, np.array([1, 1]), np.array([True, False]), np.array([1e-2]))


@pytest.mark.parametrize("mu", [0.0, 2.0, 200.0])
def test_ode_checks_keep_the_bits_of_per_degree_calls(mu):
    n_max, n_s = 10, 50
    worst_p = worst_q = 0.0
    for s in (np.linspace(0.05, 0.95, n_s) * s_limit(mu)).tolist():
        p, _ = legendre.value_derivs(n_max, s, mu)
        for n, (F, dF, d2F) in enumerate(p):
            res = legendre.ode_residual(F, dF, d2F, s, n, mu)
            worst_p = max(worst_p, abs(res) / (1.0 + abs(F) + abs(dF) + abs(d2F)))
            Q, dQ, d2Q = legendre.q_derivs(n, s, mu)[1][n]
            res = legendre.ode_residual(Q, dQ, d2Q, s, n, mu)
            worst_q = max(worst_q, abs(res) / (1.0 + abs(Q) + abs(dQ) + abs(d2Q)))
    assert [c.max_residual for c in ode_checks(mu, n_max, n_s)] == [worst_p, worst_q]


@pytest.mark.parametrize("mu", [0.0, 2.0, 200.0])
def test_anchor_endpoints_at_a_solar_R0(mu):
    """The pole's position is compared in units of R0: at R0 = 6.957e8 one
    ulp of its z is about 6e-8, which an absolute 1e-12 cannot hold."""
    assert all(c.passed for c in anchor_checks(SystemConfig(mu=mu, R0=6.957e8)))


@pytest.mark.parametrize("a, b", [((), ()), ((0.75,), ()), ((), (0.5,)), ((0.75,), (0.5,)), ((0.75, 0.25), ())])
def test_solid_sum_has_the_shape_of_its_points(a, b):
    """A constant or empty expansion at arrays z, r^2 is an array of their
    shape, each element the float sum, and a float at floats."""
    z = np.array([[0.3, 0.3, 0.0], [-0.2, -0.2, 1.0]])
    rho = np.array([[0.5, 1.5, 2.0], [0.5, 1.5, 2.0]])
    q0_r = legendre.q0_meridional(z, rho) if b else None
    got = legendre.solid_sum(a, b, z, z * z + rho * rho, q0_r)
    assert isinstance(got, np.ndarray) and got.shape == (2, 3)
    for (i, j), v in np.ndenumerate(got):
        zf, rf = float(z[i, j]), float(rho[i, j])
        want = legendre.solid_sum(a, b, zf, zf * zf + rf * rf, legendre.q0_meridional(zf, rf) if b else None)
        assert isinstance(want, float) and v == want


@pytest.mark.parametrize("a, b", [((0.75,), ()), ((0.75, 0.25), ()), ((0.75, 0.25, -0.5), ()), ((0.75, 0.25), (0.5,))])
def test_solid_V_at_a_float_z_has_the_shape_of_rho(a, b):
    """At a float z and an array rho every expansion is an array of rho's
    shape, each element the float sum: degree 1, whose one step never meets
    r^2, gave the float."""
    sol = HarmonicSolution(a=a, b=b, cfg=SystemConfig(mu=2.0))
    z, rho = 0.3, np.array([[0.5, 1.0], [2.0, 3.0]])
    got = harmonic.solid_V(sol, z, rho)
    assert isinstance(got, np.ndarray) and got.shape == rho.shape
    assert got.tolist() == [[harmonic.solid_V(sol, z, r) for r in row] for row in rho.tolist()]
