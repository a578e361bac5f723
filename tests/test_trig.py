import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosharmonics import trig, verify
from sosharmonics.errors import NearBorderError, PoleLimitError
from sosharmonics.series import eval_series_many, w_border
from sosharmonics.trig import (
    d_fC2_dW,
    d_fS_over_fC_dW,
    d_hR2_dW,
    d_s_dW,
    s_limit,
    s_on_reference,
    trig_from_W_robust,
    w_from_s,
)

from _oracles import (
    FS_REF_MU2_NU30,
    HR_REF_MU2_NU30,
    S_REF_MU2_NU30,
    W_BORDER_MU2,
    W_REF_MU2_NU30,
    approx,
)
from _witness import series_bundle

MUS = [0.3, 0.5, 1.0, 2.0, 5.0]


def w_grid(mu):
    b = w_border(mu)
    return [f * b for f in (0.05, 0.3, 0.6, 0.85)] + [b / f for f in (0.85, 0.4, 0.08)]


def assert_bundle_consistent(tb, tol=1e-12):
    assert tb.f_S**2 + tb.f_C**2 == pytest.approx(1.0, abs=tol)
    if tb.mu > 0:
        mu = tb.mu
        assert tb.f_S**2 == pytest.approx(
            (1.0 + mu) * (1.0 - tb.h_R**2) / mu, abs=tol
        )
        assert tb.f_C**2 == pytest.approx(
            ((1.0 + mu) * tb.h_R**2 - 1.0) / mu, abs=tol
        )
    assert 0.0 <= tb.s <= s_limit(tb.mu) + tol
    assert 1.0 / math.sqrt(1.0 + tb.mu) - tol <= tb.h_R <= 1.0 + tol


class TestSeriesPath:
    def test_w_zero(self):
        tb = series_bundle(0.0, 2.0)
        assert (tb.f_S, tb.f_C, tb.h_R, tb.s) == (0.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("nu", [0.1, 0.6, 1.2])
    def test_spherical_limit(self, nu):
        tb = series_bundle(math.tan(nu), 0.0)
        assert tb.f_S == approx(math.sin(nu), rel=1e-14)
        assert tb.f_C == approx(math.cos(nu), rel=1e-14)
        assert tb.h_R == 1.0

    def test_reference_spheroid_values(self):
        # W at (R0, pi/6) for mu=2; closed forms sqrt(3)/2, 1/sqrt(1.5)
        tb = series_bundle(W_REF_MU2_NU30, 2.0)
        assert tb.s == pytest.approx(S_REF_MU2_NU30, abs=1e-13)
        assert tb.h_R == pytest.approx(HR_REF_MU2_NU30, abs=1e-13)
        assert tb.f_S == pytest.approx(FS_REF_MU2_NU30, abs=1e-13)

    def test_guard_band_refused(self):
        with pytest.raises(NearBorderError, match="guard band"):
            series_bundle(W_BORDER_MU2, 2.0)

    @pytest.mark.parametrize("mu", [0.0, 2.0])
    def test_nan_W_rejected(self, mu):
        with pytest.raises(ValueError, match="non-negative"):
            series_bundle(math.nan, mu)

    @pytest.mark.parametrize("W", [math.nan, np.array([0.5, math.nan])])
    def test_robust_rejects_nan_W(self, W):
        # a NaN W gave a bundle of NaN
        with pytest.raises(ValueError, match="non-negative"):
            trig_from_W_robust(W, 2.0)

    def test_witness_rows_raise_the_first_W_error(self):
        # the band W first: its NearBorderError, then a negative W's ValueError
        def witness(Ws, mu):
            return eval_series_many(verify._witness_rows(verify._TRIG_SERIES, np.array(Ws), mu))

        with pytest.raises(NearBorderError):
            witness([0.1, W_BORDER_MU2, -1.0], 2.0)
        with pytest.raises(ValueError):
            witness([0.1, -1.0, W_BORDER_MU2], 2.0)
        with pytest.raises(ValueError):
            witness([0.5, math.nan], 0.0)

    @pytest.mark.parametrize("mu", MUS)
    def test_invariants_on_grid(self, mu):
        for W in w_grid(mu):
            assert_bundle_consistent(series_bundle(W, mu))


class TestRobustPath:
    def test_w_zero_limit(self):
        tb = trig_from_W_robust(0.0, 2.0)
        assert tb.s == 0.0

    def test_reference_values(self):
        tb = trig_from_W_robust(W_REF_MU2_NU30, 2.0)
        assert tb.s == pytest.approx(S_REF_MU2_NU30, abs=1e-14)

    def test_works_on_border(self):
        tb = trig_from_W_robust(W_BORDER_MU2, 2.0)
        assert_bundle_consistent(tb)
        # resubstitution into the closed inversion recovers W
        assert w_from_s(tb.s, 2.0) == approx(W_BORDER_MU2, rel=1e-12)

    @pytest.mark.parametrize("mu", MUS)
    def test_agrees_with_series(self, mu):
        for W in w_grid(mu):
            a = series_bundle(W, mu)
            b = trig_from_W_robust(W, mu)
            for f in ("h_R", "f_S", "f_C", "s"):
                assert getattr(a, f) == pytest.approx(getattr(b, f), abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(
        mu=st.floats(0.01, 10.0),
        logW=st.floats(math.log(1e-4), math.log(1e4)),
    )
    def test_invariants_property(self, mu, logW):
        tb = trig_from_W_robust(math.exp(logW), mu)
        assert_bundle_consistent(tb)

    def test_huge_W_approaches_pole(self):
        tb = trig_from_W_robust(1e12, 2.0)
        assert tb.s == pytest.approx(s_limit(2.0), abs=1e-7)
        assert tb.h_R == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-7)


class TestWFromS:
    def test_zero(self):
        assert w_from_s(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("nu", [0.2, 0.8, 1.3])
    def test_spherical(self, nu):
        assert w_from_s(math.sin(nu), 0.0) == approx(math.tan(nu), rel=1e-14)

    def test_reference_value(self):
        assert w_from_s(S_REF_MU2_NU30, 2.0) == approx(W_REF_MU2_NU30, rel=1e-15)

    def test_pole_raises(self):
        with pytest.raises(PoleLimitError):
            w_from_s(s_limit(2.0), 2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            w_from_s(-0.1, 2.0)

    @pytest.mark.parametrize("s", [math.nan, np.array([0.5, math.nan])])
    def test_nan_rejected(self, s):
        # a NaN s gave a NaN W
        with pytest.raises(ValueError, match="non-negative"):
            w_from_s(s, 2.0)

    @pytest.mark.parametrize("mu", MUS)
    def test_strictly_increasing(self, mu):
        lim = s_limit(mu)
        ss = [f * lim for f in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999)]
        ws = [w_from_s(s, mu) for s in ss]
        assert all(b > a for a, b in zip(ws, ws[1:]))


class TestSOnReference:
    def test_equator(self):
        assert s_on_reference(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
    def test_pole(self, mu):
        assert s_on_reference(math.pi / 2, mu) == approx(s_limit(mu), rel=1e-15)

    def test_mu2_nu30(self):
        assert s_on_reference(math.pi / 6, 2.0) == approx(S_REF_MU2_NU30, rel=1e-15)

    def test_odd(self):
        assert s_on_reference(-0.4, 2.0) == -s_on_reference(0.4, 2.0)

    @pytest.mark.parametrize("nu", [1.6, -1.6, np.array([0.3, 1.6])])
    def test_nu_beyond_the_pole_raises(self, nu):
        with pytest.raises(ValueError, match=r"nu must lie in \[-pi/2, pi/2\]"):
            s_on_reference(nu, 2.0)


class TestIdentities:
    @pytest.mark.parametrize("mu", MUS)
    def test_ratio_identity(self, mu):
        # f_S^2/f_C^2 = (1+mu) s^2 / ((1+mu) - s^2)
        for W in w_grid(mu):
            for bundle in (trig_from_W_robust, series_bundle):
                tb = bundle(W, mu)
                lhs = tb.f_S**2 / tb.f_C**2
                rhs = (1.0 + mu) * tb.s**2 / ((1.0 + mu) - tb.s**2)
                assert lhs == approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("mu", MUS)
    def test_power_form_identity(self, mu):
        # W^(-1/mu) (f_S/f_C)^((mu+1)/mu) = sqrt(1+mu)^(1/mu) * s, in logs
        for W in w_grid(mu):
            for bundle in (trig_from_W_robust, series_bundle):
                tb = bundle(W, mu)
                lhs = (-math.log(W) + (mu + 1.0) * math.log(tb.f_S / tb.f_C)) / mu
                rhs = 0.5 * math.log(1.0 + mu) / mu + math.log(tb.s)
                assert lhs == pytest.approx(rhs, abs=1e-8)

    @pytest.mark.parametrize("mu", MUS)
    def test_roundtrip_w_of_s(self, mu):
        for W in w_grid(mu):
            for bundle in (trig_from_W_robust, series_bundle):
                tb = bundle(W, mu)
                assert w_from_s(tb.s, mu) == approx(W, rel=1e-10)


def d_fS2_dW(tb):
    """d(f_S^2)/dW = -d(f_C^2)/dW, as f_S^2 + f_C^2 = 1."""
    return -d_fC2_dW(tb)


class TestDerivatives:
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize(
        "value, analytic",
        [
            (lambda tb: tb.h_R**2, d_hR2_dW),
            (lambda tb: tb.f_C**2, d_fC2_dW),
            (lambda tb: tb.f_S**2, d_fS2_dW),
            (lambda tb: tb.f_S / tb.f_C, d_fS_over_fC_dW),
            (lambda tb: tb.s, d_s_dW),
        ],
    )
    def test_against_central_differences(self, mu, value, analytic):
        for W in w_grid(mu):
            step = 1e-6 * W
            hi = trig_from_W_robust(W + step, mu)
            lo = trig_from_W_robust(W - step, mu)
            fd = (value(hi) - value(lo)) / (2.0 * step)
            ref = analytic(trig_from_W_robust(W, mu))
            assert fd == pytest.approx(ref, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_log_tangent_derivative(self, mu):
        # d/dW ln(f_S/f_C) = h_R^2/W
        for W in w_grid(mu):
            step = 1e-6 * W
            hi = trig_from_W_robust(W + step, mu)
            lo = trig_from_W_robust(W - step, mu)
            fd = (math.log(hi.f_S / hi.f_C) - math.log(lo.f_S / lo.f_C)) / (2 * step)
            tb = trig_from_W_robust(W, mu)
            assert fd == approx(tb.h_R**2 / W, rel=1e-6)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    def test_radial_integrand_derivative(self, mu):
        # d/dW [W^2 h_R^2/(2 f_S^2)] = W h_R^2
        for W in w_grid(mu):
            step = 1e-6 * W
            hi = trig_from_W_robust(W + step, mu)
            lo = trig_from_W_robust(W - step, mu)
            f = lambda tb: tb.W**2 * tb.h_R**2 / (2.0 * tb.f_S**2)
            fd = (f(hi) - f(lo)) / (2 * step)
            tb = trig_from_W_robust(W, mu)
            assert fd == approx(W * tb.h_R**2, rel=1e-6)


class TestMonotonicity:
    @pytest.mark.parametrize("mu", MUS)
    def test_s_increasing_in_W(self, mu):
        ws = [w_border(mu) * f for f in (0.02, 0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 10.0, 100.0)]
        ss = [trig_from_W_robust(w, mu).s for w in ws]
        assert all(b > a for a, b in zip(ss, ss[1:]))
        assert ss[-1] < s_limit(mu)


# the most Newton steps of `solve_logit` over log W in [-1000, 2000]
LOGIT_STEPS = {0.0: 0, 0.5: 4, 2.0: 5, 20.0: 7, 200.0: 8, 1000.0: 10, 1e6: 16}


@pytest.mark.parametrize("mu", LOGIT_STEPS)
def test_solve_logit_seeds_right_of_the_root_and_descends(monkeypatch, mu):
    """Each step forms softplus once, at the iterates of every element: the
    seed is the first, the root the last (the stalled step).  An element's
    Newton steps are the strict descents of its iterates."""
    iterates = []
    logaddexp = np.logaddexp

    def recorded(zero, x):
        iterates.append(np.array(x))
        return logaddexp(zero, x)

    monkeypatch.setattr(trig.np, "logaddexp", recorded)
    log_w = np.concatenate([np.linspace(-1000.0, 2000.0, 3001), np.linspace(-5.0, 5.0, 501)])
    root = trig.solve_logit(log_w, mu)
    monkeypatch.undo()
    assert (iterates[0] >= root).all() and (iterates[-1] == root).all()
    steps = np.zeros(log_w.shape, dtype=int)
    for before, after in zip(iterates, iterates[1:]):
        assert (after <= before).all()
        steps += after < before
    assert steps.max() <= LOGIT_STEPS[mu], log_w[steps.argmax()]
