import functools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sosharmonics.coords import (
    CartesianPoint,
    SosPoint,
    SystemConfig,
    cartesian_point,
    cartesian_R_s,
    cartesian_to_sos,
    compute_W,
    dW,
    metrics_at,
    sos_to_cartesian,
)
from sosharmonics.errors import DegenerateOriginError, PoleLimitError
from sosharmonics.harmonic import s_at_point
from sosharmonics.verify import run_suite
from sosharmonics.series import Region, region_of, w_border
from sosharmonics.trig import trig_from_W, trig_from_W_robust

from _oracles import W_REF_MU2_NU30, Z_REF_MU2_NU30, approx, mp_cartesian_nu, mp_point

CFG2 = SystemConfig(mu=2.0, R0=1.0)
CFG0 = SystemConfig(mu=0.0, R0=1.0)


def bundles(W, mu):
    """The closed-form bundle at W and, outside the guard band, the series one."""
    out = [trig_from_W_robust(W, mu)]
    if region_of(W, mu) is not Region.NEAR_BORDER:
        out.append(trig_from_W(W, mu))
    return out


class TestConfig:
    def test_rejects_negative_mu(self):
        with pytest.raises(ValueError):
            SystemConfig(mu=-0.5, R0=1.0)

    def test_rejects_nonpositive_R0(self):
        with pytest.raises(ValueError):
            SystemConfig(mu=1.0, R0=0.0)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            SosPoint(R=-1.0, nu=0.0)
        with pytest.raises(ValueError):
            SosPoint(R=1.0, nu=2.0)

    @pytest.mark.parametrize("R, nu", [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan)])
    def test_point_rejects_non_finite(self, R, nu):
        with pytest.raises(ValueError):
            SosPoint(R=R, nu=nu)


class TestComputeW:
    def test_equator(self):
        assert compute_W(1.0, 0.0, CFG2) == 0.0

    def test_pi_over_4(self):
        # sin/cos^3 at pi/4 gives exactly 2
        assert compute_W(1.0, math.pi / 4, CFG2) == approx(2.0, rel=1e-14)

    def test_radial_scaling(self):
        # (R/R0)^mu factor: doubling R multiplies W by 4 at mu=2
        assert compute_W(2.0, math.pi / 4, CFG2) == approx(8.0, rel=1e-14)

    def test_reference_value(self):
        assert compute_W(1.0, math.pi / 6, CFG2) == approx(W_REF_MU2_NU30, rel=1e-14)

    def test_odd_in_nu(self):
        assert compute_W(1.3, -0.7, CFG2) == -compute_W(1.3, 0.7, CFG2)

    def test_pole_limit(self):
        with pytest.raises(PoleLimitError):
            compute_W(1.0, math.pi / 2, CFG2)

    def test_mu0_is_tangent(self):
        assert compute_W(5.0, 0.9, CFG0) == approx(math.tan(0.9), rel=1e-14)


class TestDerivativesOfW:
    def test_mu0_dnu(self):
        d = dW(1.0, 0.7, CFG0)
        assert d[0] == approx(1.0 / math.cos(0.7) ** 2, rel=1e-14)

    def test_dR_structure(self):
        for mu, R, nu in [(2.0, 1.5, 0.4), (0.5, 0.7, -0.9)]:
            cfg = SystemConfig(mu=mu, R0=1.0)
            d = dW(R, nu, cfg)
            assert d[1] == approx(mu * compute_W(R, nu, cfg) / R, rel=1e-14)

    def test_mu0_d2R_zero(self):
        assert dW(2.0, 0.5, CFG0)[3] == 0.0

    def test_tiny_R0(self):
        # R*R underflows here: d2W/dR2 (about 1e326) is inf, and dW/dnu
        # depends on R/R0 alone
        d = dW(0.5e-163, 0.7, SystemConfig(mu=2.0, R0=1e-163))
        assert d[3] == math.inf
        assert abs(d[0] - dW(0.5, 0.7, SystemConfig(mu=2.0, R0=1.0))[0]) <= 1e-15

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("nu", [-1.1, -0.3, 0.2, 0.8, 1.3])
    def test_against_finite_differences(self, mu, nu):
        # oracle: central differences of compute_W itself
        cfg = SystemConfig(mu=mu, R0=1.0)
        R = 1.4
        d = dW(R, nu, cfg)
        hn, hr = 1e-6, 1e-6 * R
        h2n, h2r = 1e-4, 1e-4 * R  # larger step: second differences amplify rounding
        fd_nu = (compute_W(R, nu + hn, cfg) - compute_W(R, nu - hn, cfg)) / (2 * hn)
        fd_R = (compute_W(R + hr, nu, cfg) - compute_W(R - hr, nu, cfg)) / (2 * hr)
        fd_nu2 = (
            compute_W(R, nu + h2n, cfg) - 2 * compute_W(R, nu, cfg) + compute_W(R, nu - h2n, cfg)
        ) / h2n**2
        fd_R2 = (
            compute_W(R + h2r, nu, cfg) - 2 * compute_W(R, nu, cfg) + compute_W(R - h2r, nu, cfg)
        ) / h2r**2
        assert d[0] == approx(fd_nu, rel=1e-8)
        assert d[1] == approx(fd_R, rel=1e-8)
        assert d[2] == pytest.approx(fd_nu2, rel=1e-6, abs=1e-6)
        assert d[3] == pytest.approx(fd_R2, rel=1e-6, abs=1e-6)


class TestMetrics:
    @pytest.mark.parametrize("nu", [0.001, 0.4, 1.0, 1.4])
    def test_spherical_reduction(self, nu):
        R = 1.7
        mb = metrics_at(R, nu, CFG0)
        assert mb.h_R == pytest.approx(1.0, abs=1e-12)
        assert mb.h_nu == approx(R, rel=1e-12)
        assert mb.jacobian == approx(R * R * math.cos(nu), rel=1e-12)

    def test_equator_hR_is_one(self):
        assert metrics_at(2.3, 0.0, CFG2).h_R == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("nu", [0.05, 0.5, 1.1, 1.45])
    def test_cross_checks(self, mu, R, nu):
        cfg = SystemConfig(mu=mu, R0=1.0)
        mb = metrics_at(R, nu, cfg)
        assert mb.jac_over_hR2 * mb.h_R**2 == approx(mb.jacobian, rel=1e-9)
        assert mb.jac_over_hnu2 * mb.h_nu**2 == approx(mb.jacobian, rel=1e-9)
        # scale-factor product link
        W = compute_W(R, nu, cfg)
        dw_dnu = dW(R, nu, cfg)[0]
        for tb in bundles(abs(W), mu):
            lhs = mb.h_R**2 * mb.h_nu**2 * (1.0 + mu) ** 2
            rhs = tb.f_C**2 * tb.f_S**2 * R**2 * dw_dnu**2 / W**2
            assert lhs == approx(rhs, rel=1e-9)
            # jacobian equals product of the three scale factors (h_lam = R fC/hR)
            h_lam = R * tb.f_C / tb.h_R
            assert mb.jacobian == approx(mb.h_R * mb.h_nu * h_lam, rel=1e-9)

    def test_guard_band_fallback(self):
        # place W exactly on the border by scaling R
        mu = 2.0
        nu = 0.25
        w_unit = compute_W(1.0, nu, CFG2)
        R = (w_border(mu) / w_unit) ** (1.0 / mu)
        mb = metrics_at(R, nu, CFG2)
        assert mb.jac_over_hR2 * mb.h_R**2 == approx(mb.jacobian, rel=1e-9)
        assert mb.jac_over_hnu2 * mb.h_nu**2 == approx(mb.jacobian, rel=1e-9)
        # fallback agrees with nearby series evaluations
        mb_lo = metrics_at(0.85 * R, nu, CFG2)
        mb_hi = metrics_at(1.18 * R, nu, CFG2)
        assert mb_lo.h_R > mb.h_R > mb_hi.h_R  # h_R decreases with W

    @pytest.mark.parametrize("R", [1e-200, 1e-160])
    def test_jac_over_hnu2_at_tiny_R(self, R):
        # J = R h_nu f_C underflows to 0 at R = 1e-200 and is subnormal at
        # 1e-160; J/h_nu^2 = R f_C/h_nu = cos(nu) at mu = 0
        mb = metrics_at(R, 0.7, CFG0)
        assert mb.jac_over_hnu2 == approx(math.cos(0.7), rel=1e-14)

    def test_R_over_R0_beyond_the_float_range(self):
        # R/R0 = 1e310 overflows; log R - log R0 does not, and mu = 0 takes
        # no 0 * inf = NaN from it
        got = metrics_at(1e300, 0.7, SystemConfig(mu=0.0, R0=1e-10))
        assert got == metrics_at(1e300, 0.7, SystemConfig(mu=0.0, R0=1.0))

    def test_negative_nu_even(self):
        a = metrics_at(1.2, 0.6, CFG2)
        b = metrics_at(1.2, -0.6, CFG2)
        assert a.h_R == b.h_R
        assert a.h_nu == b.h_nu
        assert a.jacobian == b.jacobian


class TestForwardTransform:
    def test_equator(self):
        c = sos_to_cartesian(SosPoint(R=2.0, nu=0.0, lam=0.0), CFG2)
        assert (c.x, c.y, c.z) == (2.0, 0.0, 0.0)

    def test_pole(self):
        c = sos_to_cartesian(SosPoint(R=2.0, nu=math.pi / 2), CFG2)
        assert c.x == 0.0 and c.y == 0.0
        assert c.z == approx(2.0 / math.sqrt(3.0), rel=1e-15)

    def test_reference_point(self):
        c = sos_to_cartesian(SosPoint(R=1.0, nu=math.pi / 6), CFG2)
        assert c.x == pytest.approx(math.cos(math.pi / 6), abs=1e-13)
        assert c.z == pytest.approx(Z_REF_MU2_NU30, abs=1e-13)

    def test_longitude(self):
        c = sos_to_cartesian(SosPoint(R=1.0, nu=0.3, lam=2.0), CFG2)
        assert math.atan2(c.y, c.x) == approx(2.0, rel=1e-12)

    def test_south_mirror(self):
        n = sos_to_cartesian(SosPoint(R=1.0, nu=0.8), CFG2)
        s = sos_to_cartesian(SosPoint(R=1.0, nu=-0.8), CFG2)
        assert s.x == n.x and s.z == -n.z


class TestPole:
    """|nu| = pi/2 is the closed pole of the point kernel: s = +-sqrt(1+mu),
    f_C = 0, h_R = (1+mu)^(-1/2), h_nu = R (R0/R)^(mu/(1+mu)) and J = 0."""

    MUS = [0.0, 0.5, 2.0, 20.0, 200.0, 1000.0]

    @staticmethod
    @mpmath.workdps(50)
    def limits(R, mu, R0):
        e = 1 + mpmath.mpf(mu)
        R = mpmath.mpf(R)
        return float(1 / mpmath.sqrt(e)), float(R * (mpmath.mpf(R0) / R) ** (mu / e)), float(mpmath.sqrt(e))

    @pytest.mark.parametrize("mu", MUS)
    @pytest.mark.parametrize("R0", [1.0, 6.957e8])
    def test_metrics_at(self, mu, R0):
        cfg = SystemConfig(mu=mu, R0=R0)
        for R in (1e-300, 0.3 * R0, R0, 7.5 * R0, 1e300):
            h_R, h_nu, lim = self.limits(R, mu, R0)
            for nu in (math.pi / 2, -math.pi / 2):
                mb = metrics_at(R, nu, cfg)
                assert mb.h_R == approx(h_R, rel=1e-15)
                # the exponent 1/(1+mu) rounds: |log R| eps/(1+mu) relative
                assert mb.h_nu == approx(h_nu, rel=1e-13)
                assert (mb.jacobian, mb.jac_over_hR2, mb.jac_over_hnu2) == (0.0, 0.0, 0.0)
                assert s_at_point(R, nu, cfg) == math.copysign(lim, nu)
                c = sos_to_cartesian(SosPoint(R=R, nu=nu, lam=0.4), cfg)
                assert (c.x, c.y) == (0.0, 0.0)
                assert c.z == approx(math.copysign(R / lim, nu), rel=1e-15)

    @pytest.mark.parametrize("mu", [0.5, 2.0, 20.0, 200.0])
    def test_limit_of_the_oracle(self, mu):
        # the closed h_nu is the limit of the 50-digit metrics as nu -> pi/2
        _, h_nu, _ = self.limits(1.7, mu, 1.0)
        assert mp_point(1.7, math.pi / 2 - 1e-9, mu)[4] == approx(h_nu, rel=1e-12)


class TestInverseTransform:
    def test_equator_axis_points(self):
        p = cartesian_to_sos(CartesianPoint(1.0, 0.0, 0.0), CFG2)
        assert (p.R, p.nu, p.lam) == (1.0, 0.0, 0.0)
        p = cartesian_to_sos(CartesianPoint(0.0, 0.0, 1.0 / math.sqrt(3.0)), CFG2)
        assert p.R == approx(1.0, rel=1e-15)
        assert p.nu == math.pi / 2

    def test_origin_degenerate(self):
        with pytest.raises(DegenerateOriginError):
            cartesian_to_sos(CartesianPoint(0.0, 0.0, 0.0), CFG2)

    def test_roundtrip_reference(self):
        p0 = SosPoint(R=1.0, nu=math.pi / 6, lam=0.0)
        p1 = cartesian_to_sos(sos_to_cartesian(p0, CFG2), CFG2)
        assert p1.R == approx(p0.R, rel=1e-9)
        assert p1.nu == pytest.approx(p0.nu, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        mu=st.floats(0.0, 6.0),
        logR=st.floats(math.log(0.1), math.log(10.0)),
        nu=st.floats(-1.55, 1.55),
        lam=st.floats(-3.1, 3.1),
    )
    # s underflowed to 0 here while sin(nu) did not: h_nu divided by zero
    @example(mu=1.0, logR=-1.0, nu=5e-324, lam=0.0)
    def test_roundtrip_property(self, mu, logR, nu, lam):
        cfg = SystemConfig(mu=mu, R0=1.0)
        p0 = SosPoint(R=math.exp(logR), nu=nu, lam=lam)
        c = sos_to_cartesian(p0, cfg)
        # membership of the R-spheroid
        assert c.x**2 + c.y**2 + (1.0 + mu) * c.z**2 == approx(p0.R**2, rel=1e-10)
        p1 = cartesian_to_sos(c, cfg)
        assert p1.R == approx(p0.R, rel=1e-9)
        assert p1.nu == pytest.approx(p0.nu, abs=1e-9)
        assert p1.lam == pytest.approx(p0.lam, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.0, 2.0])
    @pytest.mark.parametrize("v", [1e-200, 1e200])
    def test_extreme_scale(self, mu, v):
        # x^2 + (1+mu) z^2 underflows at 1e-200 and overflows at 1e200
        p = cartesian_to_sos(CartesianPoint(v, 0.0, v), SystemConfig(mu=mu))
        R, nu = mp_cartesian_nu(v, 0.0, v, mu)
        assert p.R == cartesian_R_s(v, 0.0, v, mu)[0]
        assert p.R == approx(R, rel=1e-15)
        assert p.nu == approx(nu, rel=1e-12)

    @pytest.mark.parametrize(
        "mu, x, z", [(20.0, 0.5, 3e-320), (2.0, 0.5, 1.47488209e-315), (1000.0, 0.5, 1.47488209e-315)]
    )
    def test_subnormal_z(self, mu, x, z):
        # (1+mu) z, and |z|/R below the normal range, round at the subnormal spacing
        p = cartesian_to_sos(CartesianPoint(x, 0.0, z), SystemConfig(mu=mu))
        assert p.nu == pytest.approx(mp_cartesian_nu(x, 0.0, z, mu)[1], rel=1e-12, abs=0.0)

    def test_near_axis_logit_beyond_float_exp(self):
        # x = log tan^2 nu is about 1424 here, so e^(x/2) overflows
        p = cartesian_to_sos(CartesianPoint(1e-300, 0.0, 1.0), SystemConfig(mu=200.0, R0=1e10))
        assert p.nu == math.pi / 2


class TestTinyNu:
    """The inverse transform keeps full relative accuracy down to nu ~ 1e-40.

    The reference nu solves (R/R0)^mu sin(nu)/cos(nu)^(1+mu) = W(s) in 40
    digits, with R and s = (1+mu) z / R in closed form; s_at_point must give
    back that s.
    """

    CFG20 = SystemConfig(mu=20.0, R0=1.0)

    @pytest.mark.parametrize("z", [0.0362, 3.62e-7, 3.62e-12, 3.62e-22, 3.62e-25])
    def test_nu_and_s_match_closed_inversion(self, z):
        c = CartesianPoint(5.936, 0.0, z)
        p = cartesian_to_sos(c, self.CFG20)
        with mpmath.workdps(40):
            R = mpmath.sqrt(mpmath.mpf(c.x) ** 2 + 21 * mpmath.mpf(z) ** 2)
            s = 21 * mpmath.mpf(z) / R
            t = s * s / 21
            log_target = mpmath.log(mpmath.sqrt(t) / (1 - t) ** 10.5) - 20 * mpmath.log(R)

            def g(u):
                nu = mpmath.exp(u)
                return mpmath.log(mpmath.sin(nu)) - 21 * mpmath.log(mpmath.cos(nu)) - log_target

            nu_ref = float(mpmath.exp(mpmath.findroot(g, log_target)))
            s_ref = float(s)
        assert p.nu == pytest.approx(nu_ref, rel=1e-12, abs=0.0)
        assert s_at_point(p.R, p.nu, self.CFG20) == pytest.approx(s_ref, rel=1e-12, abs=0.0)

    def test_below_float_range_is_zero(self):
        # nu ~ 1e-330 is not representable: the equator value comes back
        p = cartesian_to_sos(CartesianPoint(1e15, 0.0, 1e-20), self.CFG20)
        assert p.nu == 0.0


class TestSubnormalS:
    """Where s is below the normal range but sin(nu) need not be, s/sin(nu)
    takes its limit sqrt(1+mu) (R/R0)^mu / cos(nu)^(1+mu): at mu = 1 and
    R = 1/e, h_nu is the equator's R^2/sqrt(2) = e^-2/sqrt(2) to all digits
    (it moves by O(nu^2)).  The quotient of the two underflowed numbers was
    off by 9.4e-4 at nu = 1e-320 and divided by 0 at nu = 5e-324."""

    CFG1 = SystemConfig(mu=1.0)
    R = 0.36787944117144233  # 1/e rounded
    TINY = [5e-324, -5e-324, 1e-320, 2e-310, 0.0]
    REL = 1e-14

    @classmethod
    def limit(cls):
        with mpmath.workdps(30):
            return float(mpmath.mpf(cls.R) ** 2 / mpmath.sqrt(2))

    @pytest.mark.parametrize("nu", TINY)
    def test_from_R_nu(self, nu):
        mb = metrics_at(self.R, nu, self.CFG1)
        assert mb.h_nu == approx(self.limit(), rel=self.REL)
        assert mb.jacobian == approx(self.R * self.limit(), rel=self.REL)

    @pytest.mark.parametrize("z", TINY)
    def test_from_cartesian(self, z):
        p, _, _, mb, _ = cartesian_point(CartesianPoint(self.R, 0.0, z), self.CFG1)
        assert p.R == self.R
        assert mb.h_nu == approx(self.limit(), rel=self.REL)

    def test_arrays(self):
        nu = np.array(self.TINY + [0.7])
        mb = metrics_at(np.full(nu.size, self.R), nu, self.CFG1)
        for k in range(nu.size - 1):
            assert mb.h_nu[k] == approx(self.limit(), rel=self.REL)
        # a normal s keeps the quotient, and its float call's value
        assert mb.h_nu[-1] == approx(metrics_at(self.R, 0.7, self.CFG1).h_nu, rel=1e-15)
        z = np.array(self.TINY)
        _, _, _, mb, _ = cartesian_point(CartesianPoint(np.full(z.size, self.R), 0.0, z), self.CFG1)
        for h_nu in mb.h_nu.tolist():
            assert h_nu == approx(self.limit(), rel=self.REL)


class TestGeometricInvariants:
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_cone_invariance(self, mu):
        # scaling a position along its origin ray preserves W and the bundle
        cfg = SystemConfig(mu=mu, R0=1.0)
        rng = random.Random(7)
        for _ in range(40):
            p = SosPoint(R=rng.uniform(0.3, 3.0), nu=rng.uniform(-1.4, 1.4), lam=0.0)
            if abs(p.nu) < 1e-3:
                continue
            c = sos_to_cartesian(p, cfg)
            c2 = CartesianPoint(2 * c.x, 2 * c.y, 2 * c.z)
            p2 = cartesian_to_sos(c2, cfg)
            w1 = compute_W(p.R, abs(p.nu), cfg)
            w2 = compute_W(p2.R, abs(p2.nu), cfg)
            assert w2 == approx(w1, rel=1e-9)
            for t1, t2 in zip(bundles(w1, mu), bundles(w2, mu)):
                for f in ("s", "h_R", "f_S", "f_C"):
                    assert getattr(t2, f) == pytest.approx(getattr(t1, f), abs=1e-9)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_position_magnitude(self, mu):
        # |r|^2 = R^2 (1 - mu s^2/(1+mu)^2)
        cfg = SystemConfig(mu=mu, R0=1.0)
        for nu in (-1.2, -0.5, 0.3, 0.9, 1.5):
            for R in (0.4, 1.0, 2.5):
                p = SosPoint(R=R, nu=nu, lam=1.1)
                c = sos_to_cartesian(p, cfg)
                W = compute_W(R, abs(nu), cfg)
                for tb in bundles(W, mu):
                    ref = R * R * (1.0 - mu * tb.s * tb.s / (1.0 + mu) ** 2)
                    assert c.x**2 + c.y**2 + c.z**2 == approx(ref, rel=1e-10)


class TestClosedPointOracle:
    """The closed point kernel against the 50-digit `mp_point` oracle, from
    the equator to pi/2 - 1e-12 and up to mu = 200, R0 = 1."""

    NUS = [1e-12, 1e-6, 0.03, 0.7, 1.3, 1.57, 1.5707, 1.570796, 1.5707963, math.pi / 2 - 1e-12]
    RS = [0.5, 1.0, 2.2]
    MUS = [0.0, 0.5, 2.0, 20.0, 200.0]
    REL = 1e-12

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def oracle(R, nu, mu):
        return mp_point(R, nu, mu)

    def points(self, mu):
        for R in self.RS:
            for nu in self.NUS:
                yield R, nu, self.oracle(R, nu, mu)

    @pytest.mark.parametrize("mu", MUS)
    def test_metrics_at(self, mu):
        cfg = SystemConfig(mu=mu, R0=1.0)
        for R, nu, (_, _, _, h_R, h_nu, jac) in self.points(mu):
            for sign in (1.0, -1.0):
                mb = metrics_at(R, sign * nu, cfg)
                assert mb.h_R == approx(h_R, rel=self.REL)
                assert mb.h_nu == approx(h_nu, rel=self.REL)
                assert mb.jacobian == approx(jac, rel=self.REL)
                assert mb.jac_over_hR2 == approx(jac / h_R**2, rel=self.REL)
                assert mb.jac_over_hnu2 == approx(jac / h_nu**2, rel=self.REL)

    @pytest.mark.parametrize("mu", MUS)
    def test_sos_to_cartesian(self, mu):
        cfg = SystemConfig(mu=mu, R0=1.0)
        for R, nu, (_, rho, z, _, _, _) in self.points(mu):
            c = sos_to_cartesian(SosPoint(R=R, nu=-nu, lam=0.0), cfg)
            assert c.x == approx(rho, rel=self.REL)
            assert c.z == approx(-z, rel=self.REL)

    @pytest.mark.parametrize("mu", MUS)
    def test_cartesian_to_sos(self, mu):
        # the inverse takes log W, so (1-t)^(-(1+mu)/2) cannot overflow
        cfg = SystemConfig(mu=mu, R0=1.0)
        for R, nu, (_, rho, z, _, _, _) in self.points(mu):
            for sign in (1.0, -1.0):
                p = cartesian_to_sos(CartesianPoint(rho, 0.0, sign * z), cfg)
                assert p.R == approx(R, rel=self.REL)
                assert p.nu == approx(sign * nu, rel=self.REL)

    @pytest.mark.parametrize("mu", MUS)
    def test_s_at_point(self, mu):
        cfg = SystemConfig(mu=mu, R0=1.0)
        for R, nu, (s, _, _, _, _, _) in self.points(mu):
            assert s_at_point(R, nu, cfg) == approx(s, rel=self.REL)
            assert s_at_point(R, -nu, cfg) == approx(-s, rel=self.REL)

    @pytest.mark.parametrize("mu", MUS)
    def test_equator(self, mu):
        # t = 0 there: h_R = 1, h_nu = R (R/R0)^mu / sqrt(1+mu), J = R h_nu
        cfg = SystemConfig(mu=mu, R0=1.0)
        for R in self.RS:
            with mpmath.workdps(50):
                h_nu = float(mpmath.mpf(R) ** (1 + mpmath.mpf(mu)) / mpmath.sqrt(1 + mpmath.mpf(mu)))
            mb = metrics_at(R, 0.0, cfg)
            assert mb.h_R == 1.0
            assert mb.h_nu == approx(h_nu, rel=self.REL)
            assert mb.jacobian == approx(R * h_nu, rel=self.REL)
            assert s_at_point(R, 0.0, cfg) == 0.0
            assert sos_to_cartesian(SosPoint(R=R, nu=0.0), cfg) == CartesianPoint(R, 0.0, 0.0)

    @pytest.mark.parametrize("mu", MUS)
    def test_trig_from_W_robust(self, mu):
        # wherever W itself is a finite float
        cfg = SystemConfig(mu=mu, R0=1.0)
        checked = 0
        for R, nu, (s, rho, _, h_R, _, _) in self.points(mu):
            try:
                W = compute_W(R, nu, cfg)
            except ArithmeticError:
                continue
            if not math.isfinite(W):
                continue
            tb = trig_from_W_robust(W, mu)
            assert tb.s == approx(s, rel=self.REL)
            assert tb.h_R == approx(h_R, rel=self.REL)
            assert tb.f_S == approx(s * h_R, rel=self.REL)
            assert tb.f_C == approx(rho / R * h_R, rel=self.REL)
            checked += 1
        assert checked >= 10

    def test_metric_checks_at_mu_100(self):
        # dW/dnu^2 / W^2 overflowed in metric.hR_hnu_link here
        checks = [c for c in run_suite(SystemConfig(mu=100.0, R0=1.0), "full") if c.name.startswith("metric.")]
        assert len(checks) == 4 and [c.name for c in checks if not c.passed] == []
