import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval

from sosharmonics import verify
from sosharmonics.errors import PoleDivergenceError
from sosharmonics.legendre import (
    eval_q,
    ode_residual,
    p_poly,
    p_reference,
    q0,
    q_derivs,
    solid_values,
    t_poly,
    t_reference,
    value_derivs,
    values,
)
from sosharmonics.trig import s_limit

from _oracles import Q0_AT_1_MU2, Q3_CLASSICAL_HALF, approx, classical_p_coeffs, mp_q0

MU_GRID = [0.0, 0.5, 1.0, 2.0]


class TestFirstKind:
    def test_degree0(self):
        assert p_poly(0, 2.0) == (1.0,)

    def test_degree1(self):
        assert p_poly(1, 3.0) == (0.0, 0.25)

    def test_degree2_spherical(self):
        assert p_poly(2, 0.0) == pytest.approx((-0.5, 0.0, 1.5), abs=1e-15)

    def test_degree2_oblate(self):
        # (5 s^2 - 9)/18 at mu=2
        assert p_poly(2, 2.0) == pytest.approx((-0.5, 0.0, 5.0 / 18.0), abs=1e-15)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            p_poly(-1, 1.0)

    @pytest.mark.parametrize("mu", MU_GRID)
    @pytest.mark.parametrize("n", range(7))
    def test_matches_reference_tables(self, n, mu):
        got = p_poly(n, mu)
        ref = p_reference(n, mu)
        for g, r in zip(got, ref):
            if r == 0.0:
                assert g == 0.0
            else:
                assert abs(g - r) / abs(r) <= 1e-13

    def test_spherical_vs_classical_bonnet(self):
        classical = classical_p_coeffs(12)
        for n in range(13):
            got = p_poly(n, 0.0)
            for j, c in enumerate(classical[n]):
                assert got[j] == pytest.approx(c, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 14),
        mu=st.floats(0.0, 8.0),
        s_frac=st.floats(-0.99, 0.99),
    )
    def test_parity_property(self, n, mu, s_frac):
        poly = p_poly(n, mu)
        assert poly[n] != 0.0  # leading coefficient of the P family
        for j, c in enumerate(poly):
            if (j - n) % 2 != 0:
                assert c == 0.0
        s = s_frac * s_limit(mu)
        pos, neg = values(n, s, mu)[0][n], values(n, -s, mu)[0][n]
        assert neg == pytest.approx((-1.0) ** n * pos, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0, 7.0])
    def test_pole_values_finite(self, mu):
        lim = s_limit(mu)
        pole, _ = values(10, lim, mu)
        assert all(math.isfinite(v) for v in pole)
        # degree 2 pole value is exactly 1/(1+mu)
        assert pole[2] == approx(1.0 / (1.0 + mu), rel=1e-12)


class TestTPolynomials:
    def test_degree0_zero(self):
        assert t_poly(0, 2.0) == (0.0,)

    def test_degree1_constant(self):
        assert t_poly(1, 2.0) == (1.0 / 3.0, 0.0)

    @pytest.mark.parametrize("mu", MU_GRID)
    def test_degree2_linear_coefficient(self, mu):
        # one recursion step from the seeds: 3 s / (2 (1+mu)^2)
        got = t_poly(2, mu)
        assert got[1] == approx(1.5 / (1.0 + mu) ** 2, rel=1e-14)
        assert got[0] == 0.0 and got[2] == 0.0

    def test_degree3_spherical(self):
        # classical Q3 polynomial part 5 s^2/2 - 2/3
        got = t_poly(3, 0.0)
        assert got[2] == approx(2.5, rel=1e-14)
        assert got[0] == approx(-2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("mu", MU_GRID)
    @pytest.mark.parametrize("n", range(7))
    def test_matches_reference_tables(self, n, mu):
        got = t_poly(n, mu)
        ref = t_reference(n, mu)
        for g, r in zip(got, ref):
            if r == 0.0:
                assert g == 0.0
            else:
                assert abs(g - r) / abs(r) <= 1e-13


class TestEvalPoly:
    def test_pole_value_mu2(self):
        # (5*3 - 9)/18 = 1/3
        assert polyval(math.sqrt(3.0), p_poly(2, 2.0)) == approx(1.0 / 3.0, rel=1e-14)

    def test_odd_at_zero(self):
        for mu in MU_GRID:
            assert polyval(0.0, p_poly(1, mu)) == 0.0

    def test_classical_at_one(self):
        for n in range(8):
            assert polyval(1.0, p_poly(n, 0.0)) == approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_vs_finite_differences(self, order):
        poly = p_poly(5, 2.0)
        h = 1e-5 if order == 1 else 1e-4
        for s in (-1.2, -0.3, 0.5, 1.4):
            if order == 1:
                fd = (polyval(s + h, poly) - polyval(s - h, poly)) / (2 * h)
            else:
                fd = (polyval(s + h, poly) - 2 * polyval(s, poly) + polyval(s - h, poly)) / h**2
            assert polyval(s, polyder(poly, order)) == approx(fd, rel=1e-6)


class TestSecondKindZeroth:
    def test_zero(self):
        assert q0(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("s", [-0.9, -0.4, 0.1, 0.65])
    def test_spherical_closed_form(self, s):
        assert q0(s, 0.0) == approx(0.5 * math.log((1.0 + s) / (1.0 - s)), rel=1e-14)

    def test_highprecision_anchor(self):
        assert q0(1.0, 2.0) == approx(Q0_AT_1_MU2, rel=1e-15)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("s", [0.05, 0.7, 1.2])
    def test_against_mpmath(self, mu, s):
        if s < s_limit(mu):
            assert q0(s, mu) == approx(mp_q0(s, mu), rel=1e-14)

    def test_odd(self):
        for mu in (0.0, 2.0):
            assert q0(-0.37, mu) == -q0(0.37, mu)

    def test_pole_divergence(self):
        with pytest.raises(PoleDivergenceError):
            q0(math.sqrt(3.0), 2.0)
        with pytest.raises(PoleDivergenceError):
            q0(-1.0, 0.0)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    def test_derivative_formulas(self, mu):
        # q_derivs' Q_0 triple is (q0, q0', q0'')
        h = 1e-6

        def dq0(s):
            return q_derivs(0, s, mu)[1][0][1:]

        for s in (0.1, 0.5, 0.9 * s_limit(mu)):
            fd1 = (q0(s + h, mu) - q0(s - h, mu)) / (2 * h)
            assert dq0(s)[0] == approx(fd1, rel=1e-8)
            fd2 = (dq0(s + h)[0] - dq0(s - h)[0]) / (2 * h)
            assert dq0(s)[1] == approx(fd2, rel=1e-8)


class TestSecondKind:
    @pytest.mark.parametrize("mu", MU_GRID)
    def test_degree1_at_zero(self, mu):
        assert eval_q(1, 0.0, mu) == approx(-1.0, rel=1e-14)

    def test_degree0_at_zero(self):
        assert eval_q(0, 0.0, 2.0) == 0.0

    def test_classical_q3(self):
        assert eval_q(3, 0.5, 0.0) == approx(Q3_CLASSICAL_HALF, rel=1e-13)

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("x", [-0.9, -0.5, 0.1, 0.5, 0.9])
    def test_spherical_vs_scipy(self, n, x):
        ref = scipy.special.lqn(n, x)[0][n]
        assert eval_q(n, x, 0.0) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_explicit_low_degrees(self, mu):
        # independent explicit forms for n = 1..3 built from the reference
        # bracket polynomials
        for s in (-1.1, -0.3, 0.2, 0.8):
            if abs(s) >= s_limit(mu):
                continue
            g = math.sqrt((1.0 + mu) ** 2 - mu * s * s)
            lq = mp_q0(s, mu)
            q1 = polyval(s, p_reference(1, mu)) * lq - g / (1.0 + mu)
            assert eval_q(1, s, mu) == pytest.approx(q1, rel=1e-12, abs=1e-12)
            q2 = polyval(s, p_reference(2, mu)) * lq - 1.5 * s * g / (1.0 + mu) ** 2
            assert eval_q(2, s, mu) == pytest.approx(q2, rel=1e-12, abs=1e-12)
            t3 = ((4.0 * mu / 3.0 + 5.0) * s * s - 4.0 / 3.0 * (1.0 + mu) ** 2) / (
                2.0 * (1.0 + mu) ** 3
            )
            q3 = polyval(s, p_reference(3, mu)) * lq - t3 * g
            assert eval_q(3, s, mu) == pytest.approx(q3, rel=1e-12, abs=1e-12)

    def test_pole_refused(self):
        with pytest.raises(PoleDivergenceError):
            eval_q(2, math.sqrt(3.0) * (1.0 - 1e-14), 2.0)


class TestOde:
    def test_constant_solution(self):
        assert ode_residual(1.0, 0.0, 0.0, 0.7, 0.0, 2.0) == 0.0

    def test_hand_expanded_point(self):
        # F = s at K_d = 2 leaves s[(1+mu)(3mu+4) - mu s^2]; mu=0, s=1 gives 4
        assert ode_residual(1.0, 1.0, 0.0, 1.0, 2.0, 0.0) == approx(4.0, rel=1e-6)
        # and the general-mu form of the same remainder
        for mu, s in [(0.5, 0.8), (2.0, 1.2)]:
            ref = s * ((1.0 + mu) * (3.0 * mu + 4.0) - mu * s * s)
            assert ode_residual(s, 1.0, 0.0, s, 2.0, mu) == approx(ref, rel=1e-13)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", range(11))
    def test_first_kind_certified(self, mu, n):
        derivs = [polyder(p_poly(n, mu), m) for m in range(3)]
        for s in np.linspace(0.05, 0.95, 23) * s_limit(mu):
            s = float(s)
            F, dF, d2F = (polyval(s, d) for d in derivs)
            res = ode_residual(F, dF, d2F, s, n, mu)
            assert abs(res) / (1.0 + abs(F) + abs(dF) + abs(d2F)) <= 1e-8

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", range(11))
    def test_second_kind_certified(self, mu, n):
        for s in np.linspace(0.05, 0.95, 23) * s_limit(mu):
            Q, dQ, d2Q = q_derivs(n, float(s), mu)[1][n]
            res = ode_residual(Q, dQ, d2Q, float(s), n, mu)
            assert abs(res) / (1.0 + abs(Q) + abs(dQ) + abs(d2Q)) <= 1e-8

    def test_noninteger_degree_not_solved(self):
        # fractional separation constants leave a nonzero residual for s
        res = ode_residual(0.8, 1.0, 0.0, 0.8, 1.5, 2.0)
        assert abs(res) > 1e-3


class TestNonOrthogonality:
    def test_unit_weight_overlap_nonzero(self):
        # oblate P1 and P3 are not orthogonal under unit weight; quadrature
        mu = 2.0
        lim = s_limit(mu)
        ss = np.linspace(-lim, lim, 8001)
        p1 = polyval(ss, p_poly(1, mu))
        p3 = polyval(ss, p_poly(3, mu))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        overlap = float(trapezoid(p1 * p3, ss))
        assert abs(overlap) > 0.01  # negative control, not a failure

    def test_spherical_overlap_zero(self):
        lim = 1.0
        ss = np.linspace(-lim, lim, 8001)
        p1 = polyval(ss, p_poly(1, 0.0))
        p3 = polyval(ss, p_poly(3, 0.0))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        assert abs(float(trapezoid(p1 * p3, ss))) < 1e-6


def _witness(mu):
    return next(
        c for c in verify.structure_checks(mu) if c.name == "legendre.nonorthogonality_witness"
    )


class TestWitnessCheck:
    """verify.structure_checks' overlap of P_1 and P_3 against its closed form."""

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    @pytest.mark.parametrize("mu", [0.0, 1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 2.0, 20.0, 200.0, 1000.0, 1e4])
    def test_witness_passes(self, mu):
        # the 3-node rule is exact, so the witness reads rounding at every mu
        # (it was gated to mu = 0 or mu >= 0.5, and read exactly 0.0)
        check = _witness(mu)
        assert check.passed
        assert check.max_residual <= 1e-15

    def test_witness_fails_for_a_perturbed_p3(self, monkeypatch):
        # P_3 + 1e-6 P_1 keeps every parity and pole value; at mu = 0.1 the
        # gated witness compared nothing and passed
        exact = verify.legendre.values

        def perturbed(n, s, mu, *args):
            p, q = exact(n, s, mu, *args)
            if n >= 3:
                p = [*p[:3], p[3] + 1e-6 * p[1], *p[4:]]
            return p, q

        monkeypatch.setattr(verify.legendre, "values", perturbed)
        failed = [c.name for c in verify.structure_checks(0.1) if not c.passed]
        assert failed == ["legendre.nonorthogonality_witness"]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solid_values(-1, 0.5, 0.5), "degree must be non-negative"),
        (lambda: values(-1, 0.5, 2.0), "degree must be non-negative"),
        (lambda: value_derivs(-1, 0.5, 2.0), "degree must be non-negative"),
        (lambda: p_reference(7, 2.0), "closed reference forms exist for n <= 6 only"),
    ],
)
def test_refused_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
