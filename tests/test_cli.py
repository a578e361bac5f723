import json
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from sosharmonics import cli, coords, legendre, verify
from sosharmonics.cli import GridSpec, main
from sosharmonics.coords import CartesianPoint, SosPoint, SystemConfig, cartesian_closed, cartesian_R_s, compute_W
from sosharmonics.harmonic import HarmonicSolution, eval_V_at, eval_V_cartesian, load_solution, save_solution
from sosharmonics.series import region_of

from _grid import grid_cells
from _oracles import S_REF_MU2_NU30, W_SWEEP_MUS, approx, mp_cartesian_point, mp_point, w_sweep


@pytest.fixture
def cfg2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"mu": 2.0, "R0": 1.0}')
    return str(path)


@pytest.fixture
def cfg0(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"mu": 0.0, "R0": 1.0}')
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_sos_point_record(self, capsys, cfg2):
        rc, out, _ = run(capsys, ["eval", "--config", cfg2, "--R", "1.0", "--nu", "0.5235987756"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["s"] == pytest.approx(S_REF_MU2_NU30, abs=1e-8)
        assert rec["region"] == "LargeNu"
        assert rec["f_S"] ** 2 + rec["f_C"] ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_spherical_equator(self, capsys, cfg0):
        rc, out, _ = run(capsys, ["eval", "--config", cfg0, "--R", "1.0", "--nu", "0"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["h_R"] == 1.0
        assert rec["s"] == 0.0
        assert rec["W"] == 0.0

    @pytest.mark.parametrize(
        "mu, R, nu", [(20.0, 1.7, 1.5707963), (200.0, 1.3, 0.7), (1000.0, 1.3, 0.7)]
    )
    def test_large_mu_and_near_axis_records(self, capsys, tmp_path, mu, R, nu):
        # the series bundle gave a non-finite s near the axis at mu = 20, and
        # w_border's mu**mu overflowed from mu ~ 143: both exited 3
        rc, out, _ = run(capsys, ["eval", "--config", config(tmp_path, mu), "--R", repr(R), "--nu", repr(nu)])
        assert rc == 0
        rec = json.loads(out)
        s, rho, _, h_R, h_nu, jac = mp_point(R, nu, mu)
        assert rec["s"] == approx(s, rel=1e-12)
        assert rec["f_C"] == approx(rho / R * h_R, rel=1e-12)
        assert rec["f_S"] == approx(s * h_R, rel=1e-12)
        assert rec["h_R"] == approx(h_R, rel=1e-12)
        assert rec["h_nu"] == approx(h_nu, rel=1e-12)
        assert rec["jacobian"] == approx(jac, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-310, 5e-324])
    def test_region_where_one_over_mu_overflows(self, capsys, tmp_path, mu):
        # W_border was 0.0 at 1e-310 (LargeNu) and NaN at 5e-324 (NearBorder)
        rc, out, _ = run(capsys, ["eval", "--config", config(tmp_path, mu), "--R", "1", "--nu", "0.5"])
        assert rc == 0
        assert json.loads(out)["region"] == "SmallNu"

    def test_cartesian_axis_point(self, capsys, cfg2):
        z = 1.0 / math.sqrt(3.0)
        rc, out, _ = run(capsys, ["eval", "--config", cfg2, "--x", "0", "--z", f"{z!r}"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["nu"] == pytest.approx(math.pi / 2, abs=1e-12)
        assert rec["R"] == approx(1.0, rel=1e-12)
        assert rec["region"] == "Pole"
        assert rec["W"] is None

    def test_cartesian_tiny_point(self, capsys, cfg0):
        # an unscaled R underflowed to 0 here: exit 3, "the origin has no SOS image"
        rc, out, _ = run(capsys, ["eval", "--config", cfg0, "--x", "1e-200", "--z", "1e-200"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["R"] == cartesian_R_s(1e-200, 0.0, 1e-200, 0.0)[0]
        assert rec["nu"] == approx(math.pi / 4, rel=1e-15)
        assert rec["s"] == approx(math.sqrt(0.5), rel=1e-15)

    def test_potential_included(self, capsys, cfg2, tmp_path):
        coeffs = tmp_path / "c.json"
        save_solution(
            HarmonicSolution(a=(3.0,), b=(), cfg=SystemConfig(mu=2.0, R0=1.0)), coeffs
        )
        rc, out, _ = run(
            capsys,
            ["eval", "--config", cfg2, "--R", "1", "--nu", "0.4", "--coeffs", str(coeffs)],
        )
        assert rc == 0
        assert json.loads(out)["V"] == 3.0

    def test_config_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[2.0, 1.0]")
        rc, out, err = run(capsys, ["eval", "--config", str(path), "--R", "1", "--nu", "0"])
        assert (rc, out) == (2, "")
        assert err == f"error: bad config file {path}: config must be a JSON object\n"

    @pytest.mark.parametrize("point, pair", [(["--R", "1"], "--R and --nu"), (["--x", "1"], "--x and --z")])
    def test_half_a_point_exits_2(self, capsys, cfg2, point, pair):
        rc, out, err = run(capsys, ["eval", "--config", cfg2, *point])
        assert (rc, out, err) == (2, "", f"error: need both {pair}\n")

    def test_nan_coefficient_exits_2(self, capsys, cfg2, tmp_path):
        # Python's json reads the non-standard constant NaN
        coeffs = tmp_path / "c.json"
        coeffs.write_text('{"mu": 2, "R0": 1, "convention": "R_over_R0", "a": [0.5, NaN], "b": []}')
        rc, out, err = run(capsys, ["eval", "--config", cfg2, "--R", "1", "--nu", "0.3", "--coeffs", str(coeffs)])
        assert (rc, out) == (2, "")
        assert err == f"error: bad coefficient file {coeffs}: coefficients must be finite\n"

    def test_bad_config_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, ["eval", "--config", str(bad), "--R", "1", "--nu", "0"])
        assert rc == 2
        assert "config" in err

    @pytest.mark.parametrize("config", ['{"mu": "2", "R0": 1.0}', '{"mu": 2, "R0": true}', '{"mu": 2, "R0": "1"}',
                                        '{"mu": 2, "R0": 1' + "0" * 400 + "}"])
    def test_config_mu_and_R0_must_be_numbers(self, capsys, tmp_path, config):
        # float() once took the string "2" and the bool true (as 1.0), and
        # raised OverflowError (exit 3) on an integer beyond the float range
        path = tmp_path / "cfg.json"
        path.write_text(config)
        rc, out, err = run(capsys, ["eval", "--config", str(path), "--R", "1", "--nu", "0.3"])
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: bad config file {path}: field ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("mu", "2"), ("R0", True), ("mu", 10**400)])
    def test_coefficient_mu_and_R0_must_be_numbers(self, capsys, cfg2, tmp_path, field, value):
        coeffs = tmp_path / "c.json"
        payload = {"mu": 2.0, "R0": 1.0, "convention": "R_over_R0", "a": [0.5, 1.0], "b": []}
        coeffs.write_text(json.dumps(payload | {field: value}))
        rc, out, err = run(capsys, ["eval", "--config", cfg2, "--R", "1", "--nu", "0.3", "--coeffs", str(coeffs)])
        assert (rc, out) == (2, "")
        assert err == f"error: bad coefficient file {coeffs}: field {field!r} must be a number\n"

    def test_coefficient_beyond_the_float_range_exits_2(self, capsys, cfg2, tmp_path):
        # it once raised OverflowError in float(), exit 3
        coeffs = tmp_path / "c.json"
        coeffs.write_text('{"mu": 2, "R0": 1, "convention": "R_over_R0", "a": [1' + "0" * 400 + '], "b": []}')
        rc, out, err = run(capsys, ["eval", "--config", cfg2, "--R", "1", "--nu", "0.3", "--coeffs", str(coeffs)])
        assert (rc, out) == (2, "")
        assert err == f"error: bad coefficient file {coeffs}: field 'a' must be an array of numbers\n"

    def test_potential_solves_the_point_once(self, capsys, cfg2, tmp_path, monkeypatch):
        # V is summed at the (z, rho) of the record's own solve: one
        # `closed_point` call and one logit solve, not a second solve for V
        calls = []
        for module, name in ((cli, "closed_point"), (coords, "closed_solve"), (coords, "solve_logit")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        coeffs = tmp_path / "c.json"
        save_solution(HarmonicSolution(a=(0.5, -1.0, 0.25), b=(0.2,), cfg=SystemConfig(mu=2.0, R0=1.0)), coeffs)
        rc, out, _ = run(capsys, ["eval", "--config", cfg2, "--R", "1.3", "--nu", "0.7", "--coeffs", str(coeffs)])
        assert rc == 0
        assert calls == ["closed_point", "solve_logit"]
        assert json.loads(out)["V"] == eval_V_at(load_solution(coeffs), SosPoint(1.3, 0.7))

    def test_missing_point_exits_2(self, capsys, cfg2):
        rc, _, _ = run(capsys, ["eval", "--config", cfg2])
        assert rc == 2

    def test_mixed_point_styles_exit_2(self, capsys, cfg2):
        rc, _, _ = run(
            capsys, ["eval", "--config", cfg2, "--R", "1", "--nu", "0", "--x", "1", "--z", "0"]
        )
        assert rc == 2

    def test_pole_with_second_kind_exits_3(self, capsys, cfg2, tmp_path):
        coeffs = tmp_path / "c.json"
        save_solution(
            HarmonicSolution(a=(), b=(0.0, 1.0), cfg=SystemConfig(mu=2.0, R0=1.0)), coeffs
        )
        rc, _, err = run(
            capsys,
            ["eval", "--config", cfg2, "--R", "1", "--nu", f"{math.pi/2!r}", "--coeffs", str(coeffs)],
        )
        assert rc == 3
        assert "domain" in err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["wibble"]) == 2

    @pytest.mark.parametrize("mu, R0", [(5.0, 1.0), (2.0, 3.0)])
    def test_coefficients_of_another_system_exit_2(self, capsys, cfg2, tmp_path, mu, R0):
        # a mu = 5 file at the mu = 2 config gave V = 0.62065 at (1, 0.3),
        # not the mu = 2 file's 0.67062
        coeffs = tmp_path / "c.json"
        save_solution(HarmonicSolution(a=(0.5, 1.0), b=(), cfg=SystemConfig(mu=mu, R0=R0)), coeffs)
        rc, out, err = run(capsys, ["eval", "--config", cfg2, "--R", "1", "--nu", "0.3", "--coeffs", str(coeffs)])
        assert (rc, out) == (2, "")
        assert err == f"error: coefficient file {coeffs} has mu={mu:.17g} R0={R0:.17g}, but the config has mu=2 R0=1\n"

    def test_lam_is_not_an_option(self, capsys, cfg2):
        # V and the record are axisymmetric: no output ever read lam
        rc, out, err = run(capsys, ["eval", "--config", cfg2, "--R", "1", "--nu", "0.3", "--lam", "1"])
        assert rc == 2
        assert out == ""
        assert "unrecognized arguments: --lam 1" in err


class TestRecordW:
    @pytest.mark.parametrize("mu", W_SWEEP_MUS)
    def test_W_has_the_bits_of_compute_W(self, capsys, tmp_path, mu):
        # the record's W = e^(log|W|) by numpy's exp, as `compute_W`; null
        # where that is inf (a record whose metric overflows exits 3)
        cfg_path, cfg = config(tmp_path, mu), SystemConfig(mu=mu, R0=1.0)
        finite = 0
        for R, nu in w_sweep(mu):
            rc, out, _ = run(capsys, ["eval", "--config", cfg_path, f"--R={R!r}", f"--nu={nu!r}"])
            if rc == 3:
                continue
            W, want = json.loads(out)["W"], compute_W(R, nu, cfg)
            assert want.hex() == W.hex() if W is not None else math.isinf(want), (R, nu)
            finite += W is not None
        assert finite >= 10


class TestCartesianRecord:
    """`eval --x/--z` from the point's own closed R, s and log W and one
    logit solve, against the 50-digit `mp_cartesian_point`."""

    FIELDS = ("R", "nu", "W", "s", "f_C", "f_S", "h_R", "h_nu", "jacobian")
    SCALES = [10.0**k for k in range(-300, 301, 50)]
    ANGLES = [1e-8, 0.1, 0.7, 1.3, 1.5707]

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0, 20.0, 200.0, 1000.0])
    def test_fields_match_the_oracle(self, capsys, tmp_path, mu):
        # a record with a field other than W beyond the float range exits 3;
        # an overflowing W is null, with log W within 1e-13 max(1, |log W|);
        # every other field that is a normal float is within 2e-13
        cfg = config(tmp_path, mu)
        checked = 0
        for scale in self.SCALES:
            for angle in self.ANGLES:
                x, z = scale * math.cos(angle), scale * math.sin(angle)
                ref = mp_cartesian_point(x, z, mu)
                rc, out, _ = run(capsys, ["eval", "--config", cfg, "--x", repr(x), "--z", repr(z)])
                if any(abs(v) > sys.float_info.max for k, v in ref.items() if k != "W"):
                    assert rc == 3, (scale, angle)
                    continue
                assert rc == 0, (scale, angle)
                rec = json.loads(out)
                log_w = float(mpmath.log(ref["W"]))
                assert abs(rec["log_W"] - log_w) <= 1e-13 * max(1.0, abs(log_w)), (scale, angle)
                assert (rec["W"] is None) == (ref["W"] > sys.float_info.max), (scale, angle)
                assert rec["region"] == region_of(float(ref["W"]), mu).value
                for field in self.FIELDS:
                    if field == "W" and rec["W"] is None:
                        continue
                    if abs(ref[field]) >= sys.float_info.min:
                        assert rec[field] == approx(float(ref[field]), rel=2e-13), (scale, angle, field)
                        checked += 1
        assert checked >= 5 * len(self.FIELDS)

    def test_near_the_axis_at_small_scale(self, capsys, cfg2):
        # the float-nu round trip gave s = 1.49945 at 1e-20 and a "Pole"
        # record with s = sqrt(3) at 1e-200; 1e200 is beyond the float
        # range (h_nu ~ e^1380)
        rc, out, _ = run(capsys, ["eval", "--config", cfg2, "--x", "1e-20", "--z", "1e-20"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["s"] == 1.5
        assert rec["W"] == approx(4.0 * math.sqrt(3.0), rel=1e-13)
        rc, out, _ = run(capsys, ["eval", "--config", cfg2, "--x", "1e-200", "--z", "1e-200"])
        assert rc == 0
        rec = json.loads(out)
        assert rec["region"] != "Pole"
        assert rec["s"] == cartesian_R_s(1e-200, 0.0, 1e-200, 2.0)[1]
        assert run(capsys, ["eval", "--config", cfg2, "--x", "1e200", "--z", "1e200"])[0] == 3

    def test_potential_has_the_bits_of_eval_V_cartesian_and_grid(self, capsys, cfg2, tmp_path):
        sol = HarmonicSolution(a=(0.5, -1.0, 0.25, 0.7), b=(0.2, -0.6), cfg=SystemConfig(mu=2.0, R0=1.0))
        coeffs = tmp_path / "c.json"
        save_solution(sol, coeffs)
        spec = GridSpec(x_min=0.0, x_max=1e-19, z_min=0.0, z_max=2e-20, nx=3, nz=3)
        for x, z, cell in grid_cells(sol.cfg, spec, "V", sol):
            if x == 0.0:
                continue
            rc, out, _ = run(capsys, ["eval", "--config", cfg2, "--coeffs", str(coeffs),
                                      "--x", repr(x), "--z", repr(z)])
            assert rc == 0
            V = json.loads(out)["V"]
            assert V == eval_V_cartesian(sol, CartesianPoint(x, 0.0, z)) == cell

    @pytest.mark.parametrize("mu", [0.0, 2.0, 200.0])
    def test_pole_records(self, capsys, tmp_path, mu):
        # both input kinds take the closed pole: h_nu = R (R0/R)^(mu/(1+mu)), J = 0
        cfg = config(tmp_path, mu)
        lim = math.sqrt(1.0 + mu)
        for argv, R, sign in [
            (["--R", "0.3", "--nu", repr(math.pi / 2)], 0.3, 1.0),
            (["--R", "0.3", "--nu", repr(-math.pi / 2)], 0.3, -1.0),
            (["--x", "0", "--z", repr(-2.0 / lim)], None, -1.0),
        ]:
            rc, out, _ = run(capsys, ["eval", "--config", cfg, *argv])
            assert rc == 0
            rec = json.loads(out)
            R = R or rec["R"]
            with mpmath.workdps(50):
                e = 1 + mpmath.mpf(mu)
                h_nu = float(mpmath.mpf(R) ** (1 / e))
                h_R = float(1 / mpmath.sqrt(e))
            assert (rec["W"], rec["region"], rec["nu"]) == (None, "Pole", sign * math.pi / 2)
            assert rec["s"] == sign * lim
            assert rec["h_R"] == approx(h_R, rel=1e-15)
            assert rec["h_nu"] == approx(h_nu, rel=1e-14)
            assert (rec["jacobian"], rec["f_C"]) == (0.0, 0.0)


def config(tmp_path, mu):
    path = tmp_path / f"cfg-{mu}.json"
    path.write_text(json.dumps({"mu": mu, "R0": 1.0}))
    return str(path)


class TestDomainExits:
    """Overflow and non-finite results are domain errors (exit 3), never a
    traceback with exit 1 ("verification failed") and never non-standard JSON."""

    def expect_domain(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert rc == 3
        assert out == ""
        assert err.startswith("domain error") and "Traceback" not in err

    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_huge_R(self, capsys, tmp_path, mu):
        self.expect_domain(capsys, ["eval", "--config", config(tmp_path, mu), "--R", "1e300", "--nu", "0.5"])

    @pytest.mark.parametrize("mu", [1e6])
    def test_huge_mu(self, capsys, tmp_path, mu):
        # W = sin(nu)/cos(nu)^(1+mu) is e^130583.6 at mu = 1e6: the record
        # has W null and log W beside it, and every other field finite
        rc, out, _ = run(capsys, ["eval", "--config", config(tmp_path, mu), "--R", "1", "--nu", "0.5"])
        assert rc == 0
        rec = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-standard JSON {name}"))
        with mpmath.workdps(50):
            log_w = float(mpmath.log(mpmath.sin(0.5)) - (1 + mpmath.mpf(mu)) * mpmath.log(mpmath.cos(0.5)))
        assert (rec["W"], rec["region"]) == (None, "LargeNu")
        assert rec["log_W"] == approx(log_w, rel=1e-13)

    def test_huge_mu_verify(self, capsys, tmp_path):
        # the series witness stops at its term cap (ROADMAP item 2)
        self.expect_domain(capsys, ["verify", "--config", config(tmp_path, 1000.0), "--level", "quick"])

    @pytest.mark.parametrize("mu, row", [(205.0, "a=-1.0, mu=205.0, W=0.04977693304416631"),
                                         (246.0, "a=0.0, mu=246.0, W=0.04544912436791078"),
                                         (248.0, "a=0.0, mu=248.0, W=0.04526586077440414"),
                                         (300.0, "a=0.0, mu=300.0, W=0.04116344322898674"),
                                         (1000.0, "a=0.0, mu=1000.0, W=0.02255928318206754")])
    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_verify_past_the_series_term_cap(self, capsys, tmp_path, mu, row, level):
        # every point kernel of the suites returns, and the series witness
        # stops at its term cap in the large-nu region: one line, exit 3
        rc, out, err = run(capsys, ["verify", "--config", config(tmp_path, mu), "--level", level])
        assert (rc, out, err) == (3, "", f"domain error: no convergence within 20000 terms ({row})\n")

    def test_the_domain_line_names_the_field(self, capsys, cfg0):
        # J = R^2 cos(nu) overflows at mu = 0; h_nu = R does not
        rc, out, err = run(capsys, ["eval", "--config", cfg0, "--R", "1e300", "--nu", "0.5"])
        assert (rc, out, err) == (3, "", "domain error: non-finite jacobian at R=1e+300, nu=0.5\n")

    @pytest.mark.parametrize("R, nu", [("1", "nan"), ("inf", "0.5"), ("nan", "0.5")])
    def test_non_finite_point(self, capsys, cfg2, R, nu):
        self.expect_domain(capsys, ["eval", "--config", cfg2, "--R", R, "--nu", nu])

    def test_overflowing_potential(self, capsys, cfg0, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(
            '{"mu": 0.0, "R0": 1.0, "convention": "R_over_R0", "a": [1e308, 1e308], "b": []}'
        )
        argv = ["eval", "--config", cfg0, "--R", "0.9", "--coeffs", str(coeffs), "--nu"]
        self.expect_domain(capsys, argv + ["1.5"])
        # the same file stays finite, and valid JSON, where the sum does
        rc, out, _ = run(capsys, argv + ["0.1"])
        assert rc == 0
        assert json.loads(out)["V"] < 1.8e308


class TestGrid:
    def test_constant_potential(self, capsys, cfg2, tmp_path):
        coeffs = tmp_path / "c.json"
        save_solution(
            HarmonicSolution(a=(1.0,), b=(), cfg=SystemConfig(mu=2.0, R0=1.0)), coeffs
        )
        rc, out, _ = run(
            capsys,
            [
                "grid", "--config", cfg2, "--coeffs", str(coeffs),
                "--x-min", "0.1", "--x-max", "1", "--z-min", "0", "--z-max", "1",
                "--nx", "3", "--nz", "3", "--quantity", "V",
            ],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,z,value"
        assert len(lines) == 10
        assert all(line.split(",")[2] == "1" for line in lines[1:])

    def test_equator_W_zero_and_origin_empty(self, capsys, cfg2):
        rc, out, _ = run(
            capsys,
            [
                "grid", "--config", cfg2,
                "--x-min", "0", "--x-max", "1", "--z-min", "0", "--z-max", "1",
                "--nx", "2", "--nz", "2", "--quantity", "W",
            ],
        )
        assert rc == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("0", "0")] == ""  # origin has no image
        assert table[("1", "0")] == "0"  # equator
        assert table[("0", "1")] == ""  # W diverges on the axis

    def test_coefficients_of_another_system_exit_2(self, capsys, cfg2, tmp_path):
        coeffs = tmp_path / "c.json"
        save_solution(HarmonicSolution(a=(0.5, 1.0), b=(), cfg=SystemConfig(mu=5.0, R0=1.0)), coeffs)
        rc, out, err = run(capsys, [
            "grid", "--config", cfg2, "--coeffs", str(coeffs),
            "--x-min", "0", "--x-max", "1", "--z-min", "0", "--z-max", "1",
            "--nx", "2", "--nz", "2", "--quantity", "V",
        ])
        assert (rc, out) == (2, "")
        assert err == f"error: coefficient file {coeffs} has mu=5 R0=1, but the config has mu=2 R0=1\n"

    def test_row_major_z_outer(self, capsys, cfg2):
        rc, out, _ = run(
            capsys,
            [
                "grid", "--config", cfg2,
                "--x-min", "0", "--x-max", "1", "--z-min", "0", "--z-max", "2",
                "--nx", "2", "--nz", "3", "--quantity", "s",
            ],
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[1] for r in rows] == ["0", "0", "1", "1", "2", "2"]
        assert [r[0] for r in rows] == ["0", "1"] * 3

    def test_deterministic_output(self, cfg2, tmp_path):
        args = [
            "grid", "--config", cfg2,
            "--x-min", "0", "--x-max", "2", "--z-min", "0", "--z-max", "2",
            "--nx", "11", "--nz", "11", "--quantity", "s",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_values_roundtrip_losslessly(self, cfg2, tmp_path):
        # 17 significant digits reparse to the exact doubles of the grid axes
        # and of the cell kernels: `cartesian_closed` for hR and
        # `eval_V_cartesian` for V
        sol = HarmonicSolution(a=(0.5, -1.0, 0.25, 0.7), b=(0.2, -0.6), cfg=SystemConfig(mu=2.0, R0=1.0))
        coeffs = tmp_path / "c.json"
        save_solution(sol, coeffs)
        xs, zs = cli._grid_axes(GridSpec(x_min=0.3, x_max=1.7, z_min=0.1, z_max=1.3, nx=4, nz=4))
        kernels = {
            "hR": lambda x, z: cartesian_closed(x, 0.0, z, 2.0)[2],
            "V": lambda x, z: eval_V_cartesian(sol, CartesianPoint(x, 0.0, z)),
        }
        for quantity, kernel in kernels.items():
            out = tmp_path / f"{quantity}.csv"
            argv = [
                "grid", "--config", cfg2, "--coeffs", str(coeffs),
                "--x-min", "0.3", "--x-max", "1.7", "--z-min", "0.1", "--z-max", "1.3",
                "--nx", "4", "--nz", "4", "--quantity", quantity, "--output", str(out),
            ]
            assert main(argv) == 0
            cells = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
            assert [(x, z) for x, z, _ in cells] == [(x, z) for z in zs for x in xs]
            for x, z, value in cells:
                assert value == kernel(x, z), (quantity, x, z)

    def test_invalid_spec_exits_2(self, capsys, cfg2):
        # an infinite bound, or a finite one whose (x_max - x_min) * (nx - 1)
        # overflows, once exited 0 with nan or inf in the x column
        for x_min, x_max, nx in [("1", "0", "2"), ("0", "inf", "2"), ("0", "1e308", "3")]:
            rc, out, _ = run(
                capsys,
                [
                    "grid", "--config", cfg2,
                    "--x-min", x_min, "--x-max", x_max, "--z-min", "0", "--z-max", "1",
                    "--nx", nx, "--nz", "2", "--quantity", "s",
                ],
            )
            assert rc == 2
            assert out == ""

    @pytest.mark.parametrize(
        "z_min, z_max, nx, nz, message",
        [
            ("1", "1", "2", "2", "require z_max > z_min >= 0"),
            ("1", "0.5", "2", "2", "require z_max > z_min >= 0"),
            ("0", "1", "1", "2", "require nx, nz >= 2"),
            ("0", "1", "2", "1", "require nx, nz >= 2"),
        ],
    )
    def test_degenerate_spec_exits_2(self, capsys, cfg2, z_min, z_max, nx, nz, message):
        argv = [
            "grid", "--config", cfg2, "--x-min", "0", "--x-max", "1", "--z-min", z_min, "--z-max", z_max,
            "--nx", nx, "--nz", nz, "--quantity", "s",
        ]
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    def test_V_needs_coeffs(self, capsys, cfg2):
        rc, _, _ = run(
            capsys,
            [
                "grid", "--config", cfg2,
                "--x-min", "0", "--x-max", "1", "--z-min", "0", "--z-max", "1",
                "--nx", "2", "--nz", "2", "--quantity", "V",
            ],
        )
        assert rc == 2

    def test_ray_constancy_small_grid(self, cfg2, tmp_path):
        out = tmp_path / "g.csv"
        main(
            [
                "grid", "--config", cfg2,
                "--x-min", "0", "--x-max", "2", "--z-min", "0", "--z-max", "2",
                "--nx", "21", "--nz", "21", "--quantity", "s", "--output", str(out),
            ]
        )
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        nx = 21
        value = lambda i, j: rows[j * nx + i][2]
        # grid indices (i, j) and (2i, 2j) lie on the same origin ray
        for i in range(11):
            for j in range(11):
                if i == j == 0:
                    continue
                v1, v2 = value(i, j), value(2 * i, 2 * j)
                assert v1 and v2
                assert abs(float(v1) - float(v2)) <= 1e-9


class TestVerify:
    def test_large_mu_quick_passes(self, capsys, tmp_path):
        # the harmonicity suite's points once went through the nu round
        # trip, which failed its finite-difference checks here
        rc, out, _ = run(capsys, ["verify", "--config", config(tmp_path, 20.0), "--level", "quick"])
        assert rc == 0
        assert "FAIL" not in out

    def test_large_mu_full_passes(self, capsys, tmp_path):
        # with P_n and Q_n evaluated from power-basis coefficients the full
        # sweep failed its finite-difference harmonicity check here
        rc, out, _ = run(capsys, ["verify", "--config", config(tmp_path, 20.0), "--level", "full"])
        assert rc == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_mu50_passes(self, capsys, tmp_path, level):
        # the series stopped on three small terms and ignored the tail, so
        # trig.pythagorean and trig.scale_factor_relations were 2e-12 off here
        rc, out, _ = run(capsys, ["verify", "--config", config(tmp_path, 50.0), "--level", level])
        assert rc == 0
        assert "FAIL" not in out

    def test_mu200_quick_passes(self, capsys, tmp_path):
        # cartesian_to_sos formed W = sqrt(t)/(1-t)^((1+mu)/2), which
        # overflowed here, and the cone check formed W, which underflowed
        rc, out, _ = run(capsys, ["verify", "--config", config(tmp_path, 200.0), "--level", "quick"])
        assert rc == 0
        assert "FAIL" not in out

    def test_json_reports_seconds_per_suite(self, capsys, cfg2, tmp_path):
        report = tmp_path / "report.json"
        rc, out, _ = run(capsys, ["verify", "--config", cfg2, "--level", "quick", "--json", str(report)])
        assert rc == 0
        assert "suites" not in out and "seconds" not in out
        payload = json.loads(report.read_text())
        assert report.read_text() == json.dumps(payload, indent=2) + "\n"
        names = [s["name"] for s in payload["suites"]]
        assert names == [
            "trig_identity_checks", "derivative_checks", "series_identity_checks",
            "spherical_series_checks", "metric_checks", "transform_checks", "anchor_checks",
            "table_checks", "spherical_reduction_checks", "ode_checks", "structure_checks",
            "harmonicity_checks", "fit_checks", "closed_kernels", "series_witness",
        ]
        assert all(set(s) == {"name", "seconds"} and s["seconds"] >= 0.0 for s in payload["suites"])
        keys = {"name", "max_residual", "tolerance", "passed", "entries", "non_finite"}
        assert all(set(c) == keys for c in payload["checks"])
        assert all(c["entries"] > 0 and c["non_finite"] == 0 for c in payload["checks"])

    def test_reports_write_the_entry_counts(self, capsys, cfg2, tmp_path, monkeypatch):
        checks = [verify.CheckResult("some", 0.5, 1.0, 4, 2), verify.CheckResult("none", 0.5, 1.0, 4, 0)]
        monkeypatch.setattr(verify, "run_suite", lambda cfg, level, timings: checks)
        report = tmp_path / "report.json"
        rc, out, _ = run(capsys, ["verify", "--config", cfg2, "--json", str(report)])
        assert rc == 0
        # the text report names a non-finite count only where it is nonzero
        assert "PASS some max_residual=5.000e-01 tol=1.0e+00 non_finite=2\n" in out
        assert "PASS none max_residual=5.000e-01 tol=1.0e+00\n" in out
        payload = json.loads(report.read_text())
        assert [(c["entries"], c["non_finite"]) for c in payload["checks"]] == [(4, 2), (4, 0)]

    def test_json_writes_a_non_finite_residual_as_null(self, capsys, cfg2, tmp_path, monkeypatch):
        checks = [verify.CheckResult("inf", math.inf, 1.0), verify.CheckResult("nan", math.nan, 1.0),
                  verify.CheckResult("ok", 0.5, 1.0)]
        monkeypatch.setattr(verify, "run_suite", lambda cfg, level, timings: checks)
        report = tmp_path / "report.json"
        rc, out, _ = run(capsys, ["verify", "--config", cfg2, "--json", str(report)])
        assert rc == 1
        assert "FAIL inf max_residual=inf" in out and "FAIL nan max_residual=nan" in out

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(report.read_text(), parse_constant=refuse)
        assert payload["passed"] is False
        assert [(c["name"], c["max_residual"], c["passed"]) for c in payload["checks"]] == [
            ("inf", None, False), ("nan", None, False), ("ok", 0.5, True)]

    def test_spherical_quick_passes(self, capsys, cfg0, tmp_path):
        report = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, ["verify", "--config", cfg0, "--level", "quick", "--json", str(report)]
        )
        assert rc == 0
        assert "FAIL" not in out
        payload = json.loads(report.read_text())
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_corrupted_table_fails(self, capsys, cfg2, monkeypatch):
        good = legendre.p_reference

        def corrupted(n, mu):
            coeffs = list(good(n, mu))
            if n == 4:
                coeffs[2] *= 1.0 + 1e-6  # corrupt one table coefficient
            return tuple(coeffs)

        monkeypatch.setattr(legendre, "p_reference", corrupted)
        rc, out, _ = run(capsys, ["verify", "--config", cfg2, "--level", "quick"])
        assert rc == 1
        assert "FAIL legendre.table_exactness" in out


class TestCheckRule:
    """`verify._check`, the one rule that turns residual entries into a verdict."""

    def test_nan_entries_are_skipped(self):
        assert verify._check("c", 1.0, np.array([0.5, math.nan, 0.25])).max_residual == 0.5
        assert verify._check("c", 1.0, np.array([math.nan])).max_residual == 0.0

    def test_an_inf_entry_fails(self):
        check = verify._check("c", 1.0, np.array([0.5, math.inf]))
        assert check.max_residual == math.inf and not check.passed

    def test_no_entries_read_zero(self):
        assert verify._check("c", 1.0).max_residual == 0.0
        assert verify._check("c", 1.0, np.array([]), []).max_residual == 0.0

    def test_largest_entry_over_several_arrays(self):
        check = verify._check("c", 1e-3, np.array([1e-4, 2e-4]), [[3e-3, math.nan], [0.0, 1e-5]], 5e-4)
        assert (check.name, check.max_residual, check.tolerance, check.passed) == ("c", 3e-3, 1e-3, False)

    @pytest.mark.parametrize("mu, n_checks", [(0.0, 36), (2.0, 37)])
    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_every_check_is_built_by_it(self, monkeypatch, mu, n_checks, level):
        built = []
        check = verify._check
        monkeypatch.setattr(verify, "_check", lambda name, *args: built.append(name) or check(name, *args))
        checks = verify.run_suite(SystemConfig(mu=mu, R0=1.0), level)
        assert len(checks) == n_checks
        assert built == [c.name for c in checks]

    def test_counts_entries_and_non_finite_ones(self):
        check = verify._check("c", 1.0, np.array([0.5, math.nan, math.inf]), [[0.25, math.nan]], 0.1)
        assert (check.entries, check.non_finite) == (6, 3)
        assert (verify._check("c", 1.0).entries, verify._check("c", 1.0).non_finite) == (0, 0)

    @pytest.mark.parametrize("mu, R0, level, non_finite", [
        (0.0, 1e160, "quick", 69), (0.0, 1e160, "full", 159), (2.0, 1e160, "quick", 60), (2.0, 1e160, "full", 130),
        (200.0, 1e-163, "quick", 1), (200.0, 1.0, "quick", 1), (200.0, 6.957e8, "quick", 1),
    ])
    def test_non_finite_counts_are_the_skipped_entries(self, mu, R0, level, non_finite):
        # the NaN entries that the metric suite's checks skip, counted by hand
        # with `_check` wrapped; at R0 = 1e160 J overflows and they come from
        # inf - inf, which numpy warns about (silenced here, not counted)
        with np.errstate(invalid="ignore", over="ignore"):
            checks = verify.run_suite(SystemConfig(mu=mu, R0=R0), level)
        assert all(c.passed for c in checks)
        assert sum(c.non_finite for c in checks) == non_finite
        assert {c.name for c in checks if c.non_finite} <= {
            "metric.jacobian_ratios", "metric.series_vs_closed", "metric.spherical_reduction", "metric.hR_hnu_link"}

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="level must be 'quick' or 'full'"):
            verify.run_suite(SystemConfig(mu=2.0, R0=1.0), "medium")


class TestFit:
    def _write_samples(self, tmp_path, rows):
        path = tmp_path / "samples.csv"
        path.write_text("nu,V\n" + "\n".join(f"{nu!r},{v!r}" for nu, v in rows) + "\n")
        return str(path)

    def test_z_field(self, capsys, cfg2, tmp_path):
        import numpy as np

        cfg = SystemConfig(mu=2.0, R0=1.0)
        z = lambda nu: math.sin(nu) * math.sqrt(3.0) / 3.0
        samples = [(float(nu), z(float(nu))) for nu in np.linspace(-1.5, 1.5, 25)]
        out = tmp_path / "fit.json"
        rc, stdout, _ = run(
            capsys,
            [
                "fit", "--config", cfg2, self._write_samples(tmp_path, samples),
                "--degree", "4", "--output", str(out),
            ],
        )
        assert rc == 0
        assert "residual_norm=" in stdout
        assert "rank=5" in stdout.split()
        payload = json.loads(out.read_text())
        assert payload["a"][1] == pytest.approx(1.0, abs=1e-8)
        for n in (0, 2, 3, 4):
            assert abs(payload["a"][n]) <= 1e-8

    def test_output_file_has_the_bytes_of_stdout(self, capsys, cfg2, tmp_path):
        # `-o` writes through harmonic.save_solution: indent 2 and a newline
        path = self._write_samples(tmp_path, [(nu, 0.3 * nu) for nu in (-1.0, -0.5, 0.0, 0.5, 1.0)])
        rc, stdout, _ = run(capsys, ["fit", "--config", cfg2, path, "--degree", "2"])
        assert rc == 0
        out = tmp_path / "fit.json"
        rc, _, _ = run(capsys, ["fit", "--config", cfg2, path, "--degree", "2", "-o", str(out)])
        assert rc == 0
        assert out.read_bytes() == stdout.encode("utf-8")

    def test_zero_samples(self, capsys, cfg2, tmp_path):
        samples = [(nu, 0.0) for nu in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        rc, stdout, err = run(
            capsys,
            ["fit", "--config", cfg2, self._write_samples(tmp_path, samples), "--degree", "2"],
        )
        assert rc == 0
        payload = json.loads(stdout)
        assert payload["a"] == [0.0, 0.0, 0.0]
        assert "rank=3" in err.split()

    def test_degree5_recovery(self, capsys, cfg2, tmp_path):
        import numpy as np
        import random

        from sosharmonics.harmonic import eval_V_at
        from sosharmonics.coords import SosPoint

        cfg = SystemConfig(mu=2.0, R0=1.0)
        rng = random.Random(5)
        truth = HarmonicSolution(
            a=tuple(rng.uniform(-1, 1) for _ in range(6)), b=(), cfg=cfg
        )
        samples = [
            (float(nu), eval_V_at(truth, SosPoint(1.0, float(nu))))
            for nu in np.linspace(-1.5, 1.5, 41)
        ]
        out = tmp_path / "fit.json"
        rc, _, _ = run(
            capsys,
            [
                "fit", "--config", cfg2, self._write_samples(tmp_path, samples),
                "--degree", "5", "--output", str(out),
            ],
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["a"] == pytest.approx(list(truth.a), abs=1e-8)

    def test_rank_deficient_exits_3(self, capsys, cfg2, tmp_path):
        samples = [(0.3, 1.0)] * 8
        rc, _, _ = run(
            capsys,
            ["fit", "--config", cfg2, self._write_samples(tmp_path, samples), "--degree", "2"],
        )
        assert rc == 3

    def test_non_finite_sample_exits_3(self, capfd, cfg2, tmp_path):
        # a nan nu once reached LAPACK, which printed DLASCL errors on stdout
        # (at the C level, so capfd, not capsys)
        good = [(0.4 * k, 0.1 * k) for k in range(-3, 4)]
        for bad in [(math.nan, 1.0), (math.inf, 1.0), (0.2, math.nan), (0.2, -math.inf)]:
            path = self._write_samples(tmp_path, good + [bad])
            rc = main(["fit", "--config", cfg2, path, "--degree", "2"])
            out, err = capfd.readouterr()
            assert rc == 3
            assert out == ""
            assert "samples must be finite" in err

    def test_nu_off_the_reference_spheroid_exits_3(self, capsys, cfg2, tmp_path):
        path = self._write_samples(tmp_path, [(0.0, 1.0), (2.0, 0.5), (0.5, 0.2), (-0.5, 0.1)])
        rc, out, err = run(capsys, ["fit", "--config", cfg2, path, "--degree", "1"])
        assert (rc, out, err) == (3, "", "domain error: nu must lie in [-pi/2, pi/2]\n")

    def test_header_names_are_stripped(self, capsys, cfg2, tmp_path):
        # "nu, V" passed the header check, but its rows were keyed by " V": exit 2
        rows = "".join(f"{0.4 * k!r},{0.1 * k!r}\n" for k in range(-3, 4))
        outputs = []
        for header in ("nu,V", "nu, V", " nu ,V "):
            path = tmp_path / "samples.csv"
            path.write_text(header + "\n" + rows)
            outputs.append(run(capsys, ["fit", "--config", cfg2, str(path), "--degree", "2"]))
        assert outputs[0][0] == 0 and "rank=3" in outputs[0][2]
        assert outputs[1] == outputs[2] == outputs[0]

    def test_bad_header_exits_2(self, capsys, cfg2, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("angle,value\n0.0,1.0\n")
        rc, _, _ = run(capsys, ["fit", "--config", cfg2, str(path), "--degree", "1"])
        assert rc == 2

    @pytest.mark.parametrize("row", ["0.1", "0.1,0.2,99"])
    def test_row_of_the_wrong_length_exits_2(self, capsys, cfg2, tmp_path, row):
        # a short row once ended in a TypeError traceback (exit 1), and a long
        # one was fitted without its extra field
        path = tmp_path / "samples.csv"
        path.write_text("nu,V\n0.0,1.0\n" + row + "\n0.5,0.2\n")
        rc, out, err = run(capsys, ["fit", "--config", cfg2, str(path), "--degree", "1"])
        assert (rc, out) == (2, "")
        assert err == f"error: bad samples file {path}: line 3 must have two fields\n"

    def test_negative_degree_exits_2(self, capsys, cfg2, tmp_path):
        # a usage error, as nx < 2 is for grid; it once exited 3
        path = self._write_samples(tmp_path, [(0.4 * k, 0.1 * k) for k in range(-3, 4)])
        rc, out, err = run(capsys, ["fit", "--config", cfg2, path, "--degree", "-1"])
        assert rc == 2
        assert out == ""
        assert err == "error: --degree must be non-negative\n"


class TestUnwritableOutput:
    """An output file that cannot be written is a usage error (exit 2), with
    one error line; it once raised a traceback and exited 1, the code of a
    failed verification."""

    def check(self, capsys, argv, path):
        rc, _, err = run(capsys, argv)
        assert rc == 2
        assert err.startswith("error: ") and str(path) in err
        assert len(err.splitlines()) == 1
        assert not path.exists()

    def test_verify_json(self, capsys, cfg2, tmp_path):
        path = tmp_path / "missing" / "report.json"
        self.check(capsys, ["verify", "--config", cfg2, "--json", str(path)], path)

    def test_grid_output(self, capsys, cfg2, tmp_path):
        path = tmp_path / "missing" / "grid.csv"
        argv = ["grid", "--config", cfg2, "--x-min", "0", "--x-max", "1", "--z-min", "0",
                "--z-max", "1", "--nx", "3", "--nz", "3", "--quantity", "s", "-o", str(path)]
        self.check(capsys, argv, path)

    def test_fit_output(self, capsys, cfg2, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("nu,V\n" + "".join(f"{0.4 * k!r},{0.1 * k!r}\n" for k in range(-3, 4)))
        path = tmp_path / "missing" / "fit.json"
        self.check(capsys, ["fit", "--config", cfg2, str(samples), "--degree", "2", "-o", str(path)], path)


class TestParserReuse:
    """The parser is built once per process; no argument of one call leaks
    into the next."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_sequence_matches_each_call_alone(self, capsys, cfg2):
        argvs = [
            ["eval", "--config", cfg2, "--R", "1.3", "--nu", "0.7"],
            ["eval", "--config", cfg2, "--x", "0.5", "--z", "0.25"],
            ["eval", "--config", cfg2, "--R", "not-a-number", "--nu", "0.7"],
            ["grid", "--config", cfg2, "--x-min", "0", "--x-max", "1", "--z-min", "0",
             "--z-max", "1", "--nx", "3", "--nz", "2", "--quantity", "s"],
            ["verify", "--config", cfg2, "--level", "quick"],
        ]
        in_sequence = [run(capsys, argv) for argv in argvs]
        alone = []
        for argv in argvs:
            cli._build_parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(run(capsys, argv))
        assert [rc for rc, _, _ in in_sequence] == [0, 0, 2, 0, 0]
        assert in_sequence == alone


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mu": 2.0, "R0": 1.0}')
        proc = subprocess.run(
            [sys.executable, "-m", "sosharmonics.cli", "eval", "--config", str(cfg), "--R", "1", "--nu", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["W"] == 0.0
