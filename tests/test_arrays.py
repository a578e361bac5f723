"""The point kernels on numpy arrays against their float calls, each of
which is one element of the array call, and the verify suites that evaluate
each sample set in one array pass."""

import itertools
import math
import random
import sys
from dataclasses import astuple

import numpy as np
import pytest

from sosharmonics import harmonic, legendre, series, verify
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
    compute_W,
    dW,
    meridional,
    metrics_at,
    sos_to_cartesian,
)
from sosharmonics.errors import DegenerateOriginError, PoleDivergenceError, SosError, StencilOutOfDomainError
from sosharmonics.harmonic import (
    HarmonicSolution,
    eval_V_at,
    eval_V_cartesian,
    fd_stencil,
    laplacian_residual_fd,
)
from sosharmonics.trig import (
    closed_trig,
    s_limit,
    s_on_reference,
    solve_logit,
    trig_from_W,
    trig_from_W_robust,
    w_from_s,
)
from sosharmonics.verify import _mode_stencils, _shell_point, ode_checks, run_suite

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
        harmonic._cartesian_meridional(c), compute_W(1.3, 0.7, cfg), dW(1.3, 0.7, cfg), w_from_s(0.5, 2.0),
        sos_to_cartesian(SosPoint(1.3, 0.7, 0.4), cfg),
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
    checks = verify.harmonicity_checks(SystemConfig(mu=2.0), "quick")
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
    assert [c.max_residual for c in ode_checks(mu, "full")] == [worst_p, worst_q]


@pytest.mark.parametrize("mu", [0.0, 2.0, 200.0])
def test_anchor_endpoints_at_a_solar_R0(mu):
    """The pole's position is compared in units of R0: at R0 = 6.957e8 one
    ulp of its z is about 6e-8, which an absolute 1e-12 cannot hold."""
    anchor = [c for c in run_suite(SystemConfig(mu=mu, R0=6.957e8)) if c.name.startswith("anchor.")]
    assert len(anchor) == 2 and all(c.passed for c in anchor)


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


def _outcome(call, *args):
    """The result of a call, or the type of the error it raises."""
    try:
        return call(*args)
    except (ArithmeticError, SosError, ValueError) as exc:
        return type(exc)


def _assert_elementwise(call, points):
    """Each point's float call is one element of the array call over the
    points: the same bits where it returns, and where it raises, an array of
    that point and a returning one raises the same error."""
    outcomes = [_outcome(call, *p) for p in points]
    ok = [p for p, o in zip(points, outcomes) if not isinstance(o, type)]
    assert ok, "no point returns"
    got = call(*(np.array(column) for column in zip(*ok)))
    want = [o for o in outcomes if not isinstance(o, type)]
    assert np.array(_float_results(got)).T.tolist() == [_float_results(w) for w in want]
    for p, o in zip(points, outcomes):
        if isinstance(o, type):
            assert _outcome(call, *(np.array(column) for column in zip(ok[0], p))) is o, p


PARITY_MUS = (0.0, 2.0, 20.0, 300.0, 1000.0)
# the equator, small and moderate latitudes, near the poles and the poles
PARITY_NUS = tuple(sign * v for v in (0.0, 1e-12, 0.7, math.pi / 2 - 0.05, 1.5707963, math.pi / 2)
                   for sign in (1.0, -1.0))


@pytest.mark.parametrize("mu", PARITY_MUS)
def test_compute_W_and_dW_are_elementwise(mu):
    cfg = SystemConfig(mu=mu)
    points = list(itertools.product(R_OVER_R0, PARITY_NUS))
    _assert_elementwise(lambda R, nu: compute_W(R, nu, cfg), points)
    _assert_elementwise(lambda R, nu: dW(R, nu, cfg), points)


def test_compute_W_raises_zero_division_before_the_scale_overflows():
    """At mu = 1000, R = 2.2 both cos^(1+mu) nu underflows and (R/R0)^mu
    overflows near the pole; on the equator only the scale overflows."""
    cfg = SystemConfig(mu=1000.0)
    for nu, error in ((math.pi / 2 - 0.05, ZeroDivisionError), (0.0, OverflowError)):
        for call in (compute_W, dW):
            assert _outcome(call, 2.2, nu, cfg) is error
            assert _outcome(call, np.array([1.0, 2.2]), np.array([0.3, nu]), cfg) is error


@pytest.mark.parametrize("mu", PARITY_MUS)
def test_w_from_s_is_elementwise(mu):
    lim = s_limit(mu)
    s = (0.0, 1e-300, 0.3, 0.5 * lim, lim * (1.0 - 1e-12), math.nextafter(lim, 0.0), lim, -0.1)
    _assert_elementwise(lambda v: w_from_s(v, mu), [(v,) for v in s])


@pytest.mark.parametrize("mu", PARITY_MUS)
def test_sos_to_cartesian_is_elementwise_and_round_trips(mu):
    cfg = SystemConfig(mu=mu)
    points = [(R, nu, lam) for (R, nu), lam in zip(itertools.product(R_OVER_R0, PARITY_NUS), itertools.cycle((0.0, 0.4, -2.5)))]
    _assert_elementwise(lambda R, nu, lam: sos_to_cartesian(SosPoint(R, nu, lam), cfg), points)
    # the round trip on arrays of the returning points, away from the poles
    # (where nu and lam are not determined by the position)
    inner = [p for p in points if abs(p[1]) < 1.5 and not isinstance(_outcome(sos_to_cartesian, SosPoint(*p), cfg), type)]
    R, nu, lam = np.array(inner).T
    c = sos_to_cartesian(SosPoint(R, nu, lam), cfg)
    back = cartesian_to_sos(c, cfg)
    for k, p in enumerate(inner):
        assert (back.R[k], back.nu[k], back.lam[k]) == astuple(cartesian_to_sos(sos_to_cartesian(SosPoint(*p), cfg), cfg))
    assert np.allclose(back.R, R, rtol=1e-12, atol=0.0)
    assert np.allclose(back.nu, nu, rtol=0.0, atol=1e-12)
    assert np.allclose(back.lam[nu != 0.0], lam[nu != 0.0], rtol=0.0, atol=1e-12)


def test_q0_meridional_raises_where_z_over_rho_overflows():
    """|z|/rho = 1e320 overflows: a float and an array holding the point raise
    PoleDivergenceError, as on the axis, and the other elements keep the
    bits of their float calls."""
    with pytest.raises(PoleDivergenceError):
        legendre.q0_meridional(1.0, 1e-320)
    for rho in (1e-320, 0.0):
        with pytest.raises(PoleDivergenceError):
            legendre.q0_meridional(np.array([1.0, 1.0]), np.array([rho, 0.5]))
    q, r = legendre.q0_meridional(np.array([1.0, -1e300]), np.array([0.5, 1e-7]))
    assert [q.tolist(), r.tolist()] == [list(v) for v in zip(legendre.q0_meridional(1.0, 0.5),
                                                             legendre.q0_meridional(-1e300, 1e-7))]


def _rel(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-300)


@pytest.mark.parametrize("mu", [0.0, 2.0, 200.0])
def test_trig_and_metric_checks_keep_the_bits_of_float_loops(mu):
    """The trig and metric suites' array residuals in a quick `run_suite`
    against the float loop they replaced, with the same arithmetic at each
    element."""
    cfg = SystemConfig(mu=mu)
    checks = run_suite(cfg, "quick")
    ws = verify._w_samples(mu, 6)
    r_pyth = r_hr = r_ratio = r_power = r_round = r_paths = 0.0
    for W in ws:
        tbs = [trig_from_W_robust(W, mu)]
        if mu > 0.0 and series.region_of(W, mu) is not series.Region.NEAR_BORDER:
            tbs.append(trig_from_W(W, mu))
        for tb in tbs:
            fs2, fc2, hr2 = tb.f_S * tb.f_S, tb.f_C * tb.f_C, tb.h_R * tb.h_R
            r_pyth = max(r_pyth, abs(fs2 + fc2 - 1.0))
            r_ratio = max(r_ratio, _rel(fs2 / fc2, (1.0 + mu) * (tb.s * tb.s) / ((1.0 + mu) - tb.s * tb.s)))
            r_round = max(r_round, _rel(w_from_s(tb.s, mu), W))
            if mu > 0.0:
                r_hr = max(r_hr, abs(fs2 - (1.0 + mu) * (1.0 - hr2) / mu), abs(fc2 - ((1.0 + mu) * hr2 - 1.0) / mu))
                lhs = (-np.log(W) + (mu + 1.0) * np.log(tb.f_S / tb.f_C)) / mu
                r_power = max(r_power, abs(lhs - (0.5 * math.log(1.0 + mu) / mu + np.log(tb.s))))
        if len(tbs) == 2:
            r_paths = max(r_paths, *(abs(getattr(tbs[0], f) - getattr(tbs[1], f)) for f in ("h_R", "f_S", "f_C", "s")))
    want = [r_pyth, r_hr, r_ratio, r_power, r_round, r_paths] if mu > 0.0 else [r_pyth, r_ratio, r_round, r_paths]
    assert [c.max_residual for c in checks if c.name.startswith("trig.")] == want

    r_series = 0.0
    for R, nu in itertools.product((0.5, 1.0, 2.2), np.linspace(0.03, math.pi / 2 - 0.05, 5).tolist()):
        W = compute_W(R, nu, cfg)
        region = series.region_of(W, mu)
        if region is series.Region.NEAR_BORDER:
            continue
        parts = [series.eval_series(series.quantity_series(name, mu, region), W).value
                 for name in ("hR2", "Snu", "jac", "jac_hR2", "jac_hnu2")]
        if not all(sys.float_info.min <= abs(v) < math.inf for v in parts):
            continue
        hR2, Snu, jac, jac_hR2, jac_hnu2 = parts
        k = R / math.sqrt(1.0 + mu) * dW(R, nu, cfg)[0]
        ser = (math.sqrt(hR2), k * math.sqrt(Snu), R * k * jac, R * k * jac_hR2, R / k * jac_hnu2)
        r_series = max(r_series, *map(_rel, ser, astuple(metrics_at(R, nu, cfg))))
    assert next(c.max_residual for c in checks if c.name == "metric.series_vs_closed") == r_series
