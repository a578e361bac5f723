"""The closed-form Cartesian path of `grid` and `eval_V_cartesian`.

Every grid quantity is compared with a 40-digit mpmath evaluation of the
closed forms R = sqrt(x^2 + (1+mu) z^2), s = (1+mu) z / R,
h_R = sqrt((1+mu)/((1+mu) + mu s^2)), W = sqrt(t)/(1-t)^((1+mu)/2) with
t = s^2/(1+mu), and V by the value recursion of P_n and T_n.
"""

import math

import mpmath
import numpy as np
import pytest

from sosharmonics import cli, coords, harmonic, legendre
from sosharmonics.cli import GridSpec, main
from sosharmonics.coords import CartesianPoint, SystemConfig, cartesian_R_s
from sosharmonics.errors import DegenerateOriginError, PoleDivergenceError, SosError
from sosharmonics.harmonic import HarmonicSolution, eval_V_cartesian
from sosharmonics.trig import s_limit

from _grid import grid_cells
from _oracles import approx, mp_cartesian_R_s, mp_potential, mp_solid

MUS = [0.0, 0.5, 2.0, 20.0]
REL = 1e-12
A = (0.7, -1.3, 0.4, 0.25, -0.6)
B = (0.3, -0.2, 0.15)
# nx = 15 puts the first column off the axis at x = X/14; the first row is z = 0
SPEC = GridSpec(x_min=0.0, x_max=2.0, z_min=0.0, z_max=1.3, nx=15, nz=9)


def grid(mu, quantity):
    cfg = SystemConfig(mu=mu, R0=1.0)
    sol = HarmonicSolution(a=A, b=B, cfg=cfg) if quantity == "V" else None
    return grid_cells(cfg, SPEC, quantity, sol)


@mpmath.workdps(40)
def oracle(quantity, x, z, mu):
    """(value, scale) of one cell; the error is measured relative to scale."""
    R, s = mp_cartesian_R_s(x, 0.0, z, mu)
    e = 1 + mpmath.mpf(mu)
    if quantity == "s":
        return float(s), abs(float(s))
    if quantity == "hR":
        v = float(mpmath.sqrt(e / (e + mu * s * s)))
        return v, v
    if quantity == "W":
        t = s * s / e
        v = float(mpmath.sqrt(t) / (1 - t) ** (e / 2))
        return v, v
    return mp_potential(A, B, R, s, mu)


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("quantity", ["s", "hR", "W", "V"])
def test_grid_matches_mpmath_closed_form(mu, quantity):
    # on the z = 0 row s and W are 0 and so is their scale: they must be exact
    checked = 0
    for x, z, value in grid(mu, quantity):
        if x == 0.0 and (z == 0.0 or quantity in ("W", "V")):
            continue  # empty cells, pinned below
        ref, scale = oracle(quantity, x, z, mu)
        assert value is not None
        assert abs(value - ref) <= REL * scale, (x, z, value, ref)
        checked += 1
    assert checked == (SPEC.nx - 1) * SPEC.nz + (SPEC.nz - 1 if quantity in ("s", "hR") else 0)


@pytest.mark.parametrize("mu", MUS)
def test_empty_cells_origin_and_axis(mu):
    lim = s_limit(mu)
    for quantity in ("s", "hR", "W", "V"):
        cells = {(x, z): v for x, z, v in grid(mu, quantity)}
        assert cells[(0.0, 0.0)] is None
        for (x, z), v in cells.items():
            if x == 0.0 and z > 0.0:
                if quantity in ("W", "V"):
                    assert v is None  # W diverges; V has second-kind terms
                elif quantity == "s":
                    assert v == lim
                else:
                    assert v == approx(1.0 / math.sqrt(1.0 + mu), rel=1e-15)
            elif (x, z) != (0.0, 0.0):
                assert v is not None
    # without second-kind terms V is finite on the axis
    cfg = SystemConfig(mu=mu, R0=1.0)
    sol = HarmonicSolution(a=A, b=(), cfg=cfg)
    axis = [v for x, z, v in grid_cells(cfg, SPEC, "V", sol) if x == 0.0 and z > 0.0]
    assert all(v is not None for v in axis)


def test_W_overflow_is_an_empty_cell(tmp_path):
    # near the axis at mu = 200, (R/x)^(1+mu) leaves the float range
    cfg = SystemConfig(mu=200.0, R0=1.0)
    spec = GridSpec(x_min=0.0, x_max=1e-3, z_min=0.0, z_max=1.0, nx=3, nz=3)
    values = {(x, z): v for x, z, v in grid_cells(cfg, spec, "W")}
    assert values[(5e-4, 1.0)] is None
    assert values[(1e-3, 0.0)] == 0.0
    config = tmp_path / "cfg.json"
    config.write_text('{"mu": 200.0, "R0": 1.0}')
    out = tmp_path / "w.csv"
    argv = ["grid", "--config", str(config), "--x-min", "0", "--x-max", "1e-3",
            "--z-min", "0", "--z-max", "1", "--nx", "3", "--nz", "3",
            "--quantity", "W", "-o", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(v == "" or math.isfinite(float(v)) for _, _, v in rows)
    assert rows[-2][2] == ""


@pytest.mark.parametrize("extent", ["1e200", "2e154"])
def test_V_beyond_float_range_is_an_empty_cell(tmp_path, extent):
    # R^2 P_2 leaves the float range; at extent 2e154 only some cells do
    config = tmp_path / "cfg.json"
    config.write_text('{"mu": 2.0, "R0": 1.0}')
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text('{"mu": 2.0, "R0": 1.0, "convention": "R_over_R0", "a": [1, 0, 1], "b": [0.5]}')
    out = tmp_path / "v.csv"
    argv = ["grid", "--config", str(config), "--coeffs", str(coeffs),
            "--x-min", "0", "--x-max", extent, "--z-min", "0", "--z-max", extent,
            "--nx", "5", "--nz", "5", "--quantity", "V", "-o", str(out)]
    assert main(argv) == 0
    text = out.read_text()
    assert "inf" not in text and "nan" not in text
    sol = harmonic.load_solution(coeffs)
    finite = 0
    for line in text.splitlines()[1:]:
        x, z, value = (float(v) if v else None for v in line.split(","))
        if x == 0.0:
            assert value is None  # origin, or second-kind terms on the axis
            continue
        V = eval_V_cartesian(sol, CartesianPoint(x, 0.0, z))
        if math.isfinite(V):
            finite += 1
            assert value == V
        else:
            assert value is None
    # of 20 cells off the axis; (5e153, 1e154) has V = 8.75e307
    assert finite == (5 if extent == "2e154" else 0)


# x = 5e-7 against z up to 1: |s| is within 1e-12 of sqrt(1+mu), where the
# s form refuses q0; the point's own (z, rho) has every digit of rho
NEAR_AXIS = GridSpec(x_min=0.0, x_max=2e-6, z_min=0.0, z_max=1.0, nx=5, nz=4)


def scalar_cell(mu, quantity, sol, x, z):
    """A cell by the scalar point path, None where it has no value."""
    try:
        R, s = cartesian_R_s(x, 0.0, z, mu)
        if quantity == "s":
            value = s
        elif quantity == "hR":
            value = math.sqrt((1.0 + mu) / ((1.0 + mu) + mu * s * s))
        elif quantity == "W":
            value = math.sqrt(1.0 + mu) * z / R * (R / x) ** (1.0 + mu) if x > 0.0 else math.inf
        else:
            value = eval_V_cartesian(sol, CartesianPoint(x, 0.0, z))
    except (SosError, OverflowError):
        return None
    return value if math.isfinite(value) else None


@pytest.mark.parametrize("spec", [SPEC, NEAR_AXIS], ids=["grid", "near-axis"])
@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("quantity", ["s", "hR", "W", "V"])
def test_grid_equals_scalar_path(spec, mu, quantity):
    # V and s are the scalar bits; hR and W are within 1e-12 of their closed
    # forms at the scalar R and s (pow rounds differently in numpy)
    cfg = SystemConfig(mu=mu, R0=1.0)
    sol = HarmonicSolution(a=A, b=B, cfg=cfg)
    cells = grid_cells(cfg, spec, quantity, sol)
    assert len(cells) == spec.nx * spec.nz
    for x, z, value in cells:
        ref = scalar_cell(mu, quantity, sol, x, z)
        if ref is None or quantity in ("s", "V"):
            assert value == ref, (x, z, value, ref)
        else:
            assert abs(value - ref) <= REL * ref, (x, z, value, ref)
    if spec is NEAR_AXIS and quantity == "V":
        for x, z, value in cells:
            if x > 0.0:
                ref, scale = oracle("V", x, z, mu)
                assert abs(value - ref) <= REL * scale, (x, z, value, ref)


@pytest.mark.parametrize("mu", [2.0, 200.0])
def test_second_kind_near_the_axis(mu):
    # rho = 1e-4 against z = 0.9: r Q_1 = z q0 - r and q0 = atanh(z/r) keep
    # every digit of rho, in the scalar sum and in the grid cell alike
    b = (0.5, -1.0, 0.25, 0.7)
    sol = HarmonicSolution(a=(), b=b, cfg=SystemConfig(mu=mu, R0=1.0))
    x, z = 1e-4, 0.9
    V = eval_V_cartesian(sol, CartesianPoint(x, 0.0, z))
    spec = GridSpec(x_min=0.0, x_max=2e-4, z_min=0.0, z_max=1.8, nx=3, nz=3)
    assert {(cx, cz): v for cx, cz, v in grid_cells(sol.cfg, spec, "V", sol)}[(x, z)] == V
    with mpmath.workdps(60):
        ref = mpmath.fsum(bn * mp_solid(n, z, x, second_kind=True)[0] for n, bn in enumerate(b))
        assert abs(V - ref) <= 1e-14 * abs(ref)


def test_second_kind_where_z_over_rho_overflows():
    # |z|/rho = 1e309 leaves the float range: the axis to float precision,
    # refused by the scalar sum and an empty grid cell
    sol = HarmonicSolution(a=(), b=(1.0,), cfg=SystemConfig(mu=2.0, R0=1.0))
    with pytest.raises(PoleDivergenceError):
        eval_V_cartesian(sol, CartesianPoint(1e-300, 0.0, 1e9))
    with pytest.raises(PoleDivergenceError):
        eval_V_cartesian(sol, CartesianPoint(np.array([1e-300, 0.5]), 0.0, np.array([1e9, 1.0])))
    spec = GridSpec(x_min=0.0, x_max=2e-300, z_min=0.0, z_max=2e9, nx=3, nz=3)
    cells = {(x, z): v for x, z, v in grid_cells(sol.cfg, spec, "V", sol)}
    assert cells[(1e-300, 1e9)] is cells[(2e-300, 2e9)] is None
    # the other cells of the block keep the bits of their float calls
    assert cells[(2e-300, 0.0)] == eval_V_cartesian(sol, CartesianPoint(2e-300, 0.0, 0.0))


@pytest.mark.parametrize("cells", [7, 40])
@pytest.mark.parametrize("quantity", ["s", "hR", "W", "V"])
def test_blocks_match_one_block(monkeypatch, cells, quantity):
    # 7 cells: one row per block (fewer cells than a row); 40: two rows per
    # block and a last block of one row
    one_block = grid(2.0, quantity)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", cells)
    assert grid(2.0, quantity) == one_block


@pytest.mark.parametrize("mu", MUS)
def test_array_q0_equals_scalar(mu):
    lim = s_limit(mu)
    s = np.concatenate([
        lim * np.linspace(-0.999, 0.999, 401),
        [0.0, -0.0, 1e-300, -1e-17, 3e-9, lim * (1 - 2e-12), -lim * (1 - 2e-12)],
    ])
    q = legendre.q0(s, mu)
    assert q.shape == s.shape
    assert all(a == legendre.q0(float(v), mu) for a, v in zip(q.tolist(), s))
    assert np.all(np.signbit(q) == np.signbit(s))
    with pytest.raises(PoleDivergenceError):
        legendre.q0(np.array([0.1, lim]), mu)


def test_no_root_finding_or_series_on_the_cartesian_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed-form Cartesian path took the nu round trip")

    for module, name in [
        (cli, "cartesian_point"), (cli, "closed_point"), (coords, "solve_logit"),
        (coords, "compute_W"), (harmonic, "s_at_point"), (harmonic, "closed_solve"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    for quantity in ("s", "hR", "W", "V"):
        assert sum(v is not None for _, _, v in grid(2.0, quantity)) > 0
    sol = HarmonicSolution(a=A, b=B, cfg=SystemConfig(mu=2.0, R0=1.0))
    assert math.isfinite(eval_V_cartesian(sol, CartesianPoint(0.4, -0.3, 0.5)))


class TestCartesianRS:
    def test_origin_raises(self):
        with pytest.raises(DegenerateOriginError):
            cartesian_R_s(0.0, 0.0, 0.0, 2.0)
        with pytest.raises(DegenerateOriginError):
            cartesian_R_s(np.array([1.0, 0.0]), 0.0, np.array([0.5, 0.0]), 2.0)

    @pytest.mark.parametrize("mu", MUS)
    def test_array_equals_scalar(self, mu):
        rng = np.random.default_rng(7)
        x = np.concatenate([[0.0, 0.0, 1e-300, 2.0], rng.uniform(-3, 3, 200)])
        y = np.concatenate([[0.0, 0.0, 0.0, 0.0], rng.uniform(-3, 3, 200)])
        z = np.concatenate([[0.7, -0.7, 1e5, 0.0], rng.uniform(-3, 3, 200)])
        R, s = cartesian_R_s(x, y, z, mu)
        for i in range(len(x)):
            assert (R[i], s[i]) == cartesian_R_s(float(x[i]), float(y[i]), float(z[i]), mu)

    @pytest.mark.parametrize("mu", MUS)
    def test_axis_is_exact(self, mu):
        lim = s_limit(mu)
        assert cartesian_R_s(0.0, 0.0, 0.7, mu)[1] == lim
        assert cartesian_R_s(0.0, 0.0, -0.7, mu)[1] == -lim

    @pytest.mark.parametrize("mu", [0.1, 0.5, 2.0, 3.0, 7.0, 20.0, 99.0])
    def test_near_axis_stays_in_range(self, mu):
        lim = s_limit(mu)
        for z in (1e-3, 0.3, 1.0, 7.0, 1e5):
            for x in (1e-300, 1e-200, 1e-17 * z):
                _, s = cartesian_R_s(x, 0.0, z, mu)
                assert 0.0 < s <= lim
                _, s = cartesian_R_s(x, 0.0, -z, mu)
                assert -lim <= s < 0.0

    @pytest.mark.parametrize("mu", MUS)
    def test_off_plane_matches_mpmath(self, mu):
        for x, y, z in [(0.3, 0.4, 0.5), (-1.2, 0.1, -0.05), (1e-3, -2e-3, 3.0), (5.0, 0.0, 1e-9)]:
            R, s = cartesian_R_s(x, y, z, mu)
            R_ref, s_ref = mp_cartesian_R_s(x, y, z, mu)
            assert R == approx(float(R_ref), rel=REL)
            assert s == approx(float(s_ref), rel=REL)

    @pytest.mark.parametrize("mu", MUS)
    def test_eval_V_cartesian_matches_mpmath(self, mu):
        sol = HarmonicSolution(a=A, b=B, cfg=SystemConfig(mu=mu, R0=1.0))
        for x, y, z in [(0.3, 0.4, 0.5), (-1.2, 0.1, -0.05), (0.05, 0.0, 0.9), (1.7, 0.0, 0.0)]:
            R, s = mp_cartesian_R_s(x, y, z, mu)
            ref, scale = mp_potential(A, B, R, s, mu)
            assert abs(eval_V_cartesian(sol, CartesianPoint(x, y, z)) - ref) <= REL * scale
