import json
import math
import random

import numpy as np
import pytest
import scipy.special

from sosharmonics import legendre, verify
from sosharmonics.coords import CartesianPoint, SosPoint, SystemConfig, sos_to_cartesian
from sosharmonics.errors import (
    PoleDivergenceError,
    RankDeficientError,
    StencilOutOfDomainError,
)
from sosharmonics.harmonic import (
    HarmonicSolution,
    eval_V,
    eval_V_at,
    eval_V_cartesian,
    fit_boundary,
    laplacian_residual_fd,
    load_solution,
    s_at_point,
    save_solution,
    separation_check,
    solution_from_dict,
    solution_to_dict,
    sum_V,
)

from _oracles import approx

CFG2 = SystemConfig(mu=2.0, R0=1.0)


def mode(cfg, n, kind="a"):
    coeffs = tuple(1.0 if i == n else 0.0 for i in range(n + 1))
    if kind == "a":
        return HarmonicSolution(a=coeffs, b=(), cfg=cfg)
    return HarmonicSolution(a=(), b=coeffs, cfg=cfg)


class TestSeparation:
    @pytest.mark.parametrize("kd, kb", [(0.0, 0.0), (1.0, -1.0), (2.0, 0.0), (5.0, 15.0)])
    def test_values(self, kd, kb):
        assert separation_check(kd) == kb


class TestEvalV:
    def test_all_zero(self):
        sol = HarmonicSolution(a=(0.0, 0.0), b=(0.0,), cfg=CFG2)
        assert eval_V(sol, 1.0, 0.5) == 0.0

    def test_constant_term(self):
        sol = HarmonicSolution(a=(4.25,), b=(), cfg=CFG2)
        for s in (-1.0, 0.0, 1.5):
            assert eval_V(sol, 2.0, s) == 4.25

    @pytest.mark.parametrize("nu", [-1.2, -0.4, 0.0, 0.3, 0.9, 1.5])
    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    def test_degree1_is_z(self, R, nu):
        # R P_1(s) = R s/(1+mu) = z exactly
        sol = mode(CFG2, 1)
        z = sos_to_cartesian(SosPoint(R=R, nu=nu), CFG2).z
        assert eval_V_at(sol, SosPoint(R=R, nu=nu)) == pytest.approx(
            z, rel=1e-12, abs=1e-12
        )

    def test_degree1_at_pole(self):
        sol = mode(CFG2, 1)
        assert eval_V_at(sol, SosPoint(R=1.0, nu=math.pi / 2)) == approx(
            1.0 / math.sqrt(3.0), rel=1e-14
        )

    def test_degree2_at_equator(self):
        # R0^2 P_2(0) = -(1+mu)^2/(2 (1+mu)^2) = -1/2
        sol = mode(CFG2, 2)
        assert eval_V_at(sol, SosPoint(R=1.0, nu=0.0)) == approx(-0.5, rel=1e-6)

    def test_pole_with_second_kind_raises(self):
        sol = mode(CFG2, 1, kind="b")
        with pytest.raises(PoleDivergenceError):
            eval_V_at(sol, SosPoint(R=1.0, nu=math.pi / 2))

    def test_rejects_s_outside_range(self):
        with pytest.raises(ValueError):
            eval_V(mode(CFG2, 1), 1.0, 2.0)

    @pytest.mark.parametrize(
        "R, s", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (-math.inf, 0.5), (1.0, -math.inf)]
    )
    def test_rejects_non_finite_input(self, R, s):
        with pytest.raises(ValueError):
            eval_V(mode(CFG2, 2), R, s)

    def test_second_kind_only(self):
        # no first-kind pass; the one b_0 term is b_0 Q_0 = b_0 q0
        sol = HarmonicSolution(a=(), b=(0.5,), cfg=CFG2)
        for s in (-1.2, 0.0, 0.4):
            assert eval_V(sol, 0.7, s) == 0.5 * legendre.q0(s, CFG2.mu)
        ss = np.array([-1.2, 0.0, 0.4])
        assert sum_V(sol, np.full(3, 0.7), ss).tolist() == (0.5 * legendre.q0(ss, CFG2.mu)).tolist()

    def test_trailing_zeros_change_nothing(self):
        a, b = (0.3, -1.0, 0.25), (0.5, 0.2)
        plain = HarmonicSolution(a=a, b=b, cfg=CFG2)
        padded = HarmonicSolution(a=a + (0.0,) * 40, b=b + (0.0,) * 9, cfg=CFG2)
        assert padded.terms == (a, b)
        assert padded.a == a + (0.0,) * 40  # stored as given
        for R, s in ((0.4, -1.1), (1.0, 0.0), (2.5, 0.9)):
            assert eval_V(padded, R, s) == eval_V(plain, R, s)
        assert not HarmonicSolution(a=(1.0,), b=(0.0, 0.0), cfg=CFG2).has_second_kind

    def test_trailing_zeros_never_meet_an_overflowed_factor(self):
        # (R/R0)^2 overflows at R = 1e200, but a degree-1 expansion is finite
        sol = HarmonicSolution(a=(1.0, 2.0, 0.0, 0.0), b=(), cfg=CFG2)
        assert eval_V(sol, 1e200, 0.3) == 1.0 + 2.0 * (1e200 * 0.3 / 3.0)

    @pytest.mark.parametrize("n", range(5))
    def test_spherical_solid_harmonics(self, n):
        # mu = 0 pipeline reduces to r^n P_n(sin nu)
        cfg = SystemConfig(mu=0.0, R0=1.0)
        sol = mode(cfg, n)
        for R in (0.3, 1.0, 2.0):
            for nu in (-1.3, -0.5, 0.0, 0.7, 1.2):
                ref = R**n * scipy.special.eval_legendre(n, math.sin(nu))
                assert eval_V_at(sol, SosPoint(R=R, nu=nu)) == pytest.approx(
                    ref, rel=1e-10, abs=1e-10
                )

    def test_radial_scaling_convention(self):
        # coefficients multiply (R/R0)^n, so a_1 = R0 gives V = z
        cfg = SystemConfig(mu=2.0, R0=5.0)
        sol = HarmonicSolution(a=(0.0, cfg.R0), b=(), cfg=cfg)
        z = sos_to_cartesian(SosPoint(R=2.0, nu=0.7), cfg).z
        assert eval_V_at(sol, SosPoint(R=2.0, nu=0.7)) == approx(z, rel=1e-12)


class TestLaplacian:
    def test_constant_field_exact(self):
        sol = HarmonicSolution(a=(1.0,), b=(), cfg=CFG2)
        assert laplacian_residual_fd(sol, CartesianPoint(0.4, 0.1, 0.2), 1e-2) == 0.0

    def test_linear_field_noise_level(self):
        sol = mode(CFG2, 1)
        res = laplacian_residual_fd(sol, CartesianPoint(0.5, 0.2, 0.3), 1e-2)
        assert abs(res) < 1e-9

    def test_quadratic_mode_exact_to_noise(self):
        # degree-2 modes are quadratic polynomials in Cartesian coordinates,
        # differenced exactly by the stencil; residual sits at rounding level
        # at every h, so no O(h^2) decay is observable for them
        sol = mode(CFG2, 2)
        for h in (1e-2, 5e-3):
            res = laplacian_residual_fd(sol, CartesianPoint(0.5, 0.2, 0.3), h)
            assert abs(res) < 1e-7

    @pytest.mark.parametrize("kind, n", [("a", 4), ("a", 6), ("b", 2)])
    def test_truncation_dominated_modes_decay(self, kind, n):
        sol = mode(CFG2, n, kind)
        c = CartesianPoint(3.1, 1.2, 2.0)
        r1 = laplacian_residual_fd(sol, c, 1e-2)
        r2 = laplacian_residual_fd(sol, c, 5e-3)
        assert 3.5 <= abs(r1) / abs(r2) <= 4.5

    def test_mixed_mode_linearity(self):
        rng = random.Random(11)
        coeffs = [rng.uniform(-1, 1) for _ in range(7)]
        c = CartesianPoint(2.5, 1.0, 1.5)
        h = 1e-2
        combo = HarmonicSolution(a=tuple(coeffs), b=(), cfg=CFG2)
        total = laplacian_residual_fd(combo, c, h)
        parts = sum(
            coeffs[n] * laplacian_residual_fd(mode(CFG2, n), c, h) for n in range(7)
        )
        assert total == pytest.approx(parts, abs=5e-9)

    def test_stencil_hits_origin(self):
        sol = mode(CFG2, 1)
        with pytest.raises(StencilOutOfDomainError):
            laplacian_residual_fd(sol, CartesianPoint(1e-2, 0.0, 0.0), 1e-2)

    def test_stencil_hits_axis_with_second_kind(self):
        sol = mode(CFG2, 1, kind="b")
        with pytest.raises(StencilOutOfDomainError):
            laplacian_residual_fd(sol, CartesianPoint(1e-2, 0.0, 0.5), 1e-2)

    def test_harmonicity_checks_at_mu_200_full_level(self):
        # the `verify --level full` parameters; near the axis V is summed at
        # the point's own (z, rho), so the O(h^2) decay holds at large mu
        checks = verify.harmonicity_checks(SystemConfig(mu=200.0, R0=1.0), "full")
        assert all(c.passed for c in checks), [(c.name, c.max_residual) for c in checks]


class TestFit:
    def test_zero_samples(self):
        samples = [(nu, 0.0) for nu in np.linspace(-1.4, 1.4, 12)]
        sol, diag = fit_boundary(samples, 3, CFG2)
        assert all(v == 0.0 for v in sol.a)
        assert diag.residual_norm == 0.0
        assert diag.rank == 4

    def test_synthetic_roundtrip(self):
        rng = random.Random(3)
        truth = HarmonicSolution(
            a=tuple(rng.uniform(-2, 2) for _ in range(5)), b=(), cfg=CFG2
        )
        nus = np.linspace(-1.5, 1.5, 33)
        samples = [(float(nu), eval_V_at(truth, SosPoint(1.0, float(nu)))) for nu in nus]
        sol, diag = fit_boundary(samples, 4, CFG2)
        assert np.allclose(sol.a, truth.a, atol=1e-10)
        assert diag.residual_norm <= 1e-10
        assert diag.condition < 1e3

    def test_z_field_gives_degree_one(self):
        # with R0 != 1 so the (R/R0)^n convention is exercised
        cfg = SystemConfig(mu=2.0, R0=2.5)
        z_field = HarmonicSolution(a=(0.0, 1.0), b=(), cfg=cfg)
        nus = np.linspace(-1.5, 1.5, 25)
        samples = [(float(nu), eval_V_at(z_field, SosPoint(cfg.R0, float(nu)))) for nu in nus]
        sol, _ = fit_boundary(samples, 3, cfg)
        assert sol.a[1] == pytest.approx(1.0, abs=1e-8)
        for n in (0, 2, 3):
            assert abs(sol.a[n]) * cfg.R0**n <= 1e-8

    def test_second_kind_roundtrip(self):
        truth = HarmonicSolution(a=(0.3, -0.7, 0.2), b=(0.15, -0.4, 0.05), cfg=CFG2)
        nus = np.linspace(-1.35, 1.35, 41)
        samples = [(float(nu), eval_V_at(truth, SosPoint(1.0, float(nu)))) for nu in nus]
        sol, _ = fit_boundary(samples, 2, CFG2, include_second_kind=True)
        assert np.allclose(sol.a, truth.a, atol=1e-8)
        assert np.allclose(sol.b, truth.b, atol=1e-8)

    @pytest.mark.parametrize("R0", [6.957e8, 1e-10])
    def test_degree_40_at_extreme_R0_through_the_file(self, tmp_path, R0):
        # R0^40 is beyond the float range at both scales; V = s on R = R0
        # is (1+mu) z/R0 inside, so a_1 = 1+mu
        cfg = SystemConfig(mu=2.0, R0=R0)
        nus = np.linspace(-1.5, 1.5, 101)
        samples = [(float(nu), math.sqrt(3.0) * math.sin(nu)) for nu in nus]
        sol, diag = fit_boundary(samples, 40, cfg)
        assert diag.rank == 41
        path = tmp_path / "coeffs.json"
        save_solution(sol, path)
        back = load_solution(path)
        assert back == sol
        for nu in (-1.2, -0.31, 0.0, 0.3, 0.77, 1.45):
            s = math.sqrt(3.0) * math.sin(nu)
            assert abs(eval_V(back, R0, s) - s) <= 1e-12
            assert abs(eval_V(back, 0.5 * R0, s) - 0.5 * s) <= 1e-12

    def test_second_kind_rejects_pole_sample(self):
        samples = [(float(nu), 0.0) for nu in np.linspace(-1.0, 1.0, 9)]
        samples.append((math.pi / 2, 0.0))
        with pytest.raises(PoleDivergenceError):
            fit_boundary(samples, 1, CFG2, include_second_kind=True)

    def test_too_few_samples(self):
        with pytest.raises(RankDeficientError):
            fit_boundary([(0.1, 1.0), (0.2, 1.1)], 3, CFG2)

    def test_degenerate_samples(self):
        samples = [(0.4, 1.0)] * 10
        with pytest.raises(RankDeficientError):
            fit_boundary(samples, 2, CFG2)


class TestCoefficientFile:
    def test_roundtrip(self, tmp_path):
        cfg = SystemConfig(mu=1.5, R0=3.0)
        sol = HarmonicSolution(a=(1.0, -0.5, 0.25), b=(0.0, 0.125), cfg=cfg)
        path = tmp_path / "coeffs.json"
        save_solution(sol, path)
        back = load_solution(path)
        assert back.cfg == cfg
        assert np.allclose(back.a, sol.a, rtol=1e-15)
        assert np.allclose(back.b, sol.b, rtol=1e-15)

    def test_file_fields(self, tmp_path):
        sol = HarmonicSolution(a=(2.0, 4.0), b=(), cfg=SystemConfig(mu=2.0, R0=2.0))
        path = tmp_path / "coeffs.json"
        save_solution(sol, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"mu", "R0", "convention", "a", "b"}
        assert payload["convention"] == "R_over_R0"
        # the file stores the coefficients as they are held
        assert payload["a"] == [2.0, 4.0]

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2, 3],
            {"mu": 2.0, "R0": 1.0, "convention": "R_over_R0", "a": [1.0]},
            {"mu": 2.0, "R0": 1.0, "convention": "other", "a": [1.0], "b": []},
            {"mu": 2.0, "R0": 1.0, "convention": "R_over_R0", "a": {"-1": 2.0}, "b": []},
            {"mu": 2.0, "R0": 1.0, "convention": "R_over_R0", "a": ["x"], "b": []},
            {"mu": 2.0, "R0": 1.0, "convention": "R_over_R0", "a": [True], "b": []},
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            solution_from_dict(payload)

    def test_dict_roundtrip_is_identity(self):
        sol = HarmonicSolution(a=(0.5,), b=(0.25, 0.1), cfg=SystemConfig(mu=0.5, R0=4.0))
        assert solution_from_dict(solution_to_dict(sol)) == sol


class TestSAtPoint:
    def test_endpoints(self):
        assert s_at_point(1.0, 0.0, CFG2) == 0.0
        assert s_at_point(1.0, math.pi / 2, CFG2) == math.sqrt(3.0)
        assert s_at_point(1.0, -math.pi / 2, CFG2) == -math.sqrt(3.0)

    def test_matches_closed_form_on_reference(self):
        for nu in (-1.3, -0.6, 0.2, 1.0):
            ref = math.sqrt(3.0) * math.sin(nu)
            assert s_at_point(1.0, nu, CFG2) == pytest.approx(ref, abs=1e-12)

    def test_cartesian_eval_consistency(self):
        sol = HarmonicSolution(a=(0.2, 0.4, -0.3), b=(), cfg=CFG2)
        p = SosPoint(R=1.3, nu=0.8, lam=0.4)
        c = sos_to_cartesian(p, CFG2)
        assert eval_V_cartesian(sol, c) == approx(eval_V_at(sol, p), rel=1e-11)
