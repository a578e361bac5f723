"""Deeper cross-validation: mpmath series oracle, extremes, concurrency."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest
from numpy.polynomial.polynomial import polyval

from sosharmonics.coords import (
    SosPoint,
    SystemConfig,
    cartesian_to_sos,
    compute_W,
    metrics_at,
    sos_to_cartesian,
)
from sosharmonics.legendre import eval_q, p_poly
from sosharmonics.series import Region, SeriesKind, SeriesSpec, eval_series, w_border
from sosharmonics.trig import trig_from_W_robust

from _oracles import approx, mp_series
from _witness import series_bundle


class TestSeriesAgainstMpmath:
    @pytest.mark.parametrize("kind", [SeriesKind.SA, SeriesKind.SC])
    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("a_small", [-3.5, -1.0, 0.75])
    def test_both_regions(self, mu, a_small, kind):
        border = w_border(mu)
        for region, W in (
            (Region.SMALL_NU, 0.35 * border),
            (Region.SMALL_NU, 0.8 * border),
            (Region.LARGE_NU, border / 0.8),
            (Region.LARGE_NU, border / 0.1),
        ):
            a = a_small if region is Region.SMALL_NU else a_small / (1.0 + mu)
            got = eval_series(SeriesSpec(a_small, mu, kind), W).value
            ref = mp_series(a, mu, region is Region.LARGE_NU, kind is SeriesKind.SC, W)
            assert got == approx(ref, rel=1e-12)


class TestExtremes:
    def test_near_pole_metrics_finite(self):
        cfg = SystemConfig(mu=2.0, R0=1.0)
        nu = math.pi / 2 - 1e-8
        mb = metrics_at(1.0, nu, cfg)
        for v in (mb.h_R, mb.h_nu, mb.jacobian, mb.jac_over_hR2, mb.jac_over_hnu2):
            assert math.isfinite(v) and v > 0.0
        assert mb.jac_over_hR2 * mb.h_R**2 == approx(mb.jacobian, rel=1e-9)
        assert mb.jac_over_hnu2 * mb.h_nu**2 == approx(mb.jacobian, rel=1e-9)
        assert mb.h_R == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-7)

    @pytest.mark.parametrize("mu", [20.0, 50.0])
    def test_large_mu_roundtrip(self, mu):
        cfg = SystemConfig(mu=mu, R0=1.0)
        for nu in (0.2, 0.7, 1.3):
            p = SosPoint(R=1.0, nu=nu)
            back = cartesian_to_sos(sos_to_cartesian(p, cfg), cfg)
            assert back.R == approx(1.0, rel=1e-9)
            assert back.nu == pytest.approx(nu, abs=1e-9)

    @pytest.mark.parametrize("mu", [20.0, 50.0])
    def test_large_mu_bundle_consistent(self, mu):
        border = w_border(mu)
        for W in (0.3 * border, border, 5.0 * border):
            tb = trig_from_W_robust(W, mu)
            assert tb.f_S**2 + tb.f_C**2 == pytest.approx(1.0, abs=1e-12)

    def test_tiny_positive_mu_matches_spherical(self):
        # continuity of the family at the spherical end
        W = 0.6
        a = trig_from_W_robust(W, 1e-9)
        b = trig_from_W_robust(W, 0.0)
        assert a.s == pytest.approx(b.s, abs=1e-8)
        assert a.h_R == pytest.approx(1.0, abs=1e-8)


class TestConcurrency:
    def test_parallel_invocations_match_serial(self):
        # pure value-in/value-out contract: many threads, shared caches
        cfg = SystemConfig(mu=2.0, R0=1.0)
        points = [(1.0 + 0.01 * i, -1.4 + 0.07 * i) for i in range(40)]

        def work(args):
            R, nu = args
            W = compute_W(R, abs(nu), cfg)
            tb = series_bundle(W, 2.0) if W < 0.3 else trig_from_W_robust(W, 2.0)
            pol = polyval(tb.s, p_poly(9, 2.0))
            q = eval_q(4, 0.9 * tb.s, 2.0)
            mb = metrics_at(R, nu, cfg)
            return pol, q, mb.jacobian

        serial = list(map(work, points))
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(work, points))
        assert serial == parallel
