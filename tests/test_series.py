import inspect
import math
import re
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosharmonics import coords, series, trig, verify
from sosharmonics.coords import SystemConfig
from sosharmonics.errors import NonConvergentError, RegionViolationError
from sosharmonics.series import (
    Region,
    SeriesKind,
    SeriesResult,
    SeriesSpec,
    eval_series,
    eval_series_many,
    gen_binom,
    quantity_series,
    region_of,
    w_border,
)
from sosharmonics.trig import trig_from_W_robust

from _oracles import W_BORDER_MU2, approx, mp_binom, mp_series, mp_series_closed

QUANTITIES = ("hR2", "fC2", "fS2", "Snu", "jac", "jac_hR2", "jac_hnu2")


def sa(a, mu, region=Region.SMALL_NU):
    return SeriesSpec(a=a, mu=mu, region=region, kind=SeriesKind.SA)


def sc(a, mu, region=Region.SMALL_NU):
    return SeriesSpec(a=a, mu=mu, region=region, kind=SeriesKind.SC)


class TestGenBinom:
    def test_integer(self):
        assert gen_binom(5, 2) == 10.0

    def test_negative_one(self):
        assert gen_binom(-1, 3) == -1.0

    def test_half_integer(self):
        # direct product (-1.5)(-2.5)/2
        assert gen_binom(-1.5, 2) == pytest.approx(1.875, abs=0, rel=1e-15)

    def test_k_zero(self):
        assert gen_binom(-3.7, 0) == 1.0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            gen_binom(1.0, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-30, 30, allow_nan=False),
        k=st.integers(min_value=0, max_value=25),
    )
    def test_matches_mpmath(self, alpha, k):
        ref = mp_binom(alpha, k)
        assert gen_binom(alpha, k) == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestRegion:
    def test_border_value_mu2(self):
        assert w_border(2.0) == approx(W_BORDER_MU2, rel=1e-15)

    def test_border_mu0(self):
        assert w_border(0.0) == 1.0

    @pytest.mark.parametrize("mu", [1e-310, 5e-324])
    def test_border_where_one_over_mu_overflows(self, mu):
        # mu log1p(1/mu) gave 0.0 at 1e-310 and NaN (-0.0 * inf) at 5e-324
        assert w_border(mu) == 1.0
        assert region_of(0.5, mu) is Region.SMALL_NU

    def test_border_keeps_its_form_where_one_over_mu_is_finite(self):
        for mu in (1e-300, 1e-12, 0.5, 2.0, 200.0, 1e6):
            assert w_border(mu) == math.exp(-0.5 * mu * math.log1p(1.0 / mu)) / math.sqrt(1.0 + mu)

    def test_zero_W_is_small(self):
        for mu in (0.0, 0.5, 2.0, 7.0):
            assert region_of(0.0, mu) is Region.SMALL_NU

    def test_large_example(self):
        assert region_of(1.0, 2.0) is Region.LARGE_NU

    def test_guard_band(self):
        b = w_border(2.0)
        assert region_of(0.95 * b, 2.0) is Region.NEAR_BORDER
        assert region_of(b, 2.0) is Region.NEAR_BORDER
        assert region_of(b / 0.95, 2.0) is Region.NEAR_BORDER
        assert region_of(0.85 * b, 2.0) is Region.SMALL_NU
        assert region_of(b / 0.85, 2.0) is Region.LARGE_NU


class TestEvalSeries:
    def test_w_zero_single_term(self):
        res = eval_series(sa(0.0, 2.0), 0.0)
        assert res.value == 1.0
        assert res.est_rel_error == 0.0

    def test_mu0_a0_is_one(self):
        # every k >= 1 coefficient C(0, k) vanishes
        res = eval_series(sa(0.0, 0.0), 0.5)
        assert res.value == 1.0

    def test_mu0_geometric(self):
        # a = -1: sum (-W^2)^k = 1/(1 + W^2) = cos^2(nu) with W = tan(nu)
        res = eval_series(sa(-1.0, 0.0), 0.5)
        assert res.value == approx(0.8, rel=1e-14)

    @pytest.mark.parametrize("a", [-2.0, -1.0, -0.5, 0.5, 1.5])
    @pytest.mark.parametrize("W", [0.05, 0.4, 0.8])
    def test_mu0_small_closed_form(self, a, W):
        res = eval_series(sa(a, 0.0), W)
        assert res.value == approx((1.0 + W * W) ** a, rel=1e-12)

    @pytest.mark.parametrize("a", [-2.0, -0.5, 1.5])
    @pytest.mark.parametrize("W", [1.3, 4.0, 30.0])
    def test_mu0_large_closed_form(self, a, W):
        res = eval_series(sa(a, 0.0, Region.LARGE_NU), W)
        ref = W ** (2 * a) * (1.0 + W**-2.0) ** a
        assert res.value == approx(ref, rel=1e-12)

    def test_sc_a0_is_one(self):
        assert eval_series(sc(0.0, 2.0), 0.2).value == 1.0

    def test_est_rel_error_within_tol(self):
        res = eval_series(sa(-1.0, 2.0), 0.3)
        assert res.est_rel_error <= 1e-12
        assert res.terms_used < series.TERM_CAP

    def test_region_violation_small(self):
        with pytest.raises(RegionViolationError):
            eval_series(sa(0.0, 2.0), 0.5)  # above the mu=2 border

    def test_region_violation_large(self):
        with pytest.raises(RegionViolationError):
            eval_series(sa(0.0, 2.0, Region.LARGE_NU), 0.2)

    def test_nonconvergent_at_cap(self, monkeypatch):
        monkeypatch.setattr(series, "TERM_CAP", 40)
        with pytest.raises(NonConvergentError):
            eval_series(sa(0.0, 2.0), 0.999 * w_border(2.0))

    def test_spec_rejects_guard_band_region(self):
        with pytest.raises(ValueError):
            SeriesSpec(a=0.0, mu=2.0, region=Region.NEAR_BORDER, kind=SeriesKind.SA)


class TestTermBehaviour:
    @pytest.mark.parametrize("mu", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("frac", [0.3, 0.9])
    def test_terms_eventually_strictly_decreasing(self, mu, frac):
        # 10% inside the border the term ratio is bounded below 1
        W = frac * 0.9 * w_border(mu)
        terms = [abs(gen_binom(-mu * k, k)) * W ** (2 * k) for k in range(120)]
        tail = terms[40:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        res = eval_series(sa(0.0, mu), W)
        assert res.terms_used < series.TERM_CAP

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("W_frac", [0.2, 0.6])
    def test_ratio_identity(self, mu, W_frac):
        # S_A(a+c)/S_A(c) = S_C(a) with c the h_nu-part parameter
        W = W_frac * w_border(mu)
        a, c = -1.0, -(mu + 2.0)
        num = eval_series(sa(a + c, mu), W).value
        den = eval_series(sa(c, mu), W).value
        rat = eval_series(sc(a, mu), W).value
        assert num / den == approx(rat, rel=1e-10)

    @pytest.mark.parametrize("mu", [0.5, 2.0])
    @pytest.mark.parametrize("W", [0.1, 0.25])
    def test_log_binomial_identity(self, mu, W):
        # sum_{k>=1} C(-mu k, k) W^(2k)/k = ln(f_S^2/((1+mu) W^2 f_C^2));
        # the (1+mu) inside the log is fixed by the W -> 0 limit
        lhs = sum(mp_binom(-mu * k, k) * W ** (2 * k) / k for k in range(1, 200))
        tb = trig_from_W_robust(W, mu)
        rhs = math.log(tb.f_S**2 / ((1.0 + mu) * W * W * tb.f_C**2))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestDeepTerms:
    def test_term_product_survives_large_k(self):
        # far side of the large region: single term at k in the thousands
        t = series._term(a=-1.0, b=2.0 / 3.0, x=1.2, k=3000, cauchy=False)
        assert math.isfinite(t)

    def test_matches_mpmath_at_moderate_k(self):
        for k in (5, 37, 120):
            t = series._term(a=-1.5, b=-2.0, x=0.04, k=k, cauchy=False)
            ref = mp_binom(-1.5 - 2.0 * k, k) * 0.04**k
            assert t == approx(ref, rel=1e-11)


class TestTermKernel:
    def test_exact_zero_at_integer_alpha(self):
        # 0 <= alpha <= k-1 with alpha an integer: C(2, 4) and C(1, 2) vanish
        assert series._term(a=0.0, b=0.5, x=0.7, k=4, cauchy=False) == 0.0
        assert series._term(a=0.5, b=0.5, x=0.7, k=3, cauchy=True) == 0.0

    @pytest.mark.parametrize(
        "a, b, k, cauchy",
        [
            (-1.0, 50.0 / 51.0, 52, False),  # sine-reflected, 0 <= alpha <= k-1
            (0.5, 2.0 / 3.0, 2, False),  # alpha > k-1
            (-26.5, -50.0, 3, True),  # reflection, alpha < 0
            (1.5, 0.0, 7, False),  # mu = 0, alpha fixed
        ],
    )
    def test_each_case_matches_mpmath(self, a, b, k, cauchy):
        x = 0.37
        got = series._term(a=a, b=b, x=x, k=k, cauchy=cauchy)
        with mpmath.workdps(40):
            al = mpmath.mpf(a) + mpmath.mpf(b) * k
            c = a / mpmath.mpf(k) * mpmath.binomial(al - 1, k - 1) if cauchy else mpmath.binomial(al, k)
            ref = float(c * mpmath.mpf(x) ** k)
        assert got == approx(ref, rel=1e-13)


class TestAgainstMpmath:
    @pytest.mark.parametrize("mu", [2.0, 20.0, 50.0, 100.0, 1000.0])
    @pytest.mark.parametrize("frac", [0.3, 0.85, 0.89])
    def test_small_nu_sums_within_1e14(self, mu, frac):
        # lgamma(alpha+1) - lgamma(k+1) - lgamma(alpha-k+1) cancels large
        # log-gammas: 2.6e-14 off at mu = 20, 4.2e-12 at mu = 1000
        W = frac * w_border(mu)
        for name in QUANTITIES:
            spec = quantity_series(name, mu, Region.SMALL_NU)
            ref = mp_series(spec.a, mu, False, spec.kind is SeriesKind.SC, W)
            got = eval_series(spec, W).value
            assert abs(mpmath.mpf(got) - ref) <= 1e-14 * abs(ref), name

    @pytest.mark.parametrize("mu", [2.0, 20.0, 50.0])
    @pytest.mark.parametrize("frac", [0.85, 0.89, 1 / 0.89, 1 / 0.85])
    def test_est_rel_error_bounds_the_true_error(self, mu, frac):
        # a stop on three small terms ignored the tail: at mu = 50 and
        # border/0.85, hR2 was 1.9e-12 off with an estimate of 7.4e-15
        W = frac * w_border(mu)
        region = Region.LARGE_NU if frac > 1 else Region.SMALL_NU
        for name in QUANTITIES:
            spec = quantity_series(name, mu, region)
            res = eval_series(spec, W)
            ref = mp_series_closed(spec.a, mu, frac > 1, spec.kind is SeriesKind.SC, W)
            err = abs(mpmath.mpf(res.value) - ref) / abs(ref)
            assert err <= res.est_rel_error, name
            assert res.est_rel_error < 1e-12, name

    @pytest.mark.parametrize(
        "name, mu, frac",
        [("fS2", 50.0, 1 / 0.6), ("jac_hR2", 2.0, 0.89), ("jac_hnu2", 2.0, 1 / 0.85)],
    )
    def test_term_sum_oracle_matches_closed_form(self, name, mu, frac):
        # the large-nu fS2 terms at mu = 50 are exact zeros at k = 51, 102, ...
        # (alpha = 49 at k = 51); the term sum must run past them
        large = frac > 1
        spec = quantity_series(name, mu, Region.LARGE_NU if large else Region.SMALL_NU)
        W = frac * w_border(mu)
        cauchy = spec.kind is SeriesKind.SC
        summed = mp_series(spec.a, mu, large, cauchy, W)
        closed = mp_series_closed(spec.a, mu, large, cauchy, W)
        assert abs(summed - closed) <= mpmath.mpf(10) ** -30 * abs(closed)


def _mixed_batch():
    """Both regions and kinds at mu = 0, 2, 20, 200 from 0.03 W_border to
    W_border/0.02, rows of 1 to about 20,000 terms, an S_C row at a = 0, the
    large-nu fS2 at mu = 50 with its exact zero terms, and a large-nu row
    whose prefactor W^(2a) underflows."""
    rows = []
    for mu in (0.0, 2.0, 20.0, 200.0):
        border = w_border(mu)
        for name in QUANTITIES:
            for frac in (0.03, 0.3, 0.85):
                rows.append((quantity_series(name, mu, Region.SMALL_NU), frac * border))
            for frac in (0.85, 0.3, 0.02):
                rows.append((quantity_series(name, mu, Region.LARGE_NU), border / frac))
        rows.append((quantity_series("hR2", mu, Region.SMALL_NU), 0.0))
    rows.append((sc(0.0, 2.0), 0.2))
    rows.append((quantity_series("fS2", 50.0, Region.LARGE_NU), w_border(50.0) / 0.6))
    rows.append((quantity_series("Snu", 2.0, Region.LARGE_NU), 1e200))
    return rows


def _bits(res):
    return res.value.hex(), res.terms_used, res.est_rel_error.hex()


class TestBatchKernel:
    def test_each_row_gets_its_one_row_result_bit_for_bit(self):
        rows = _mixed_batch()
        batch = eval_series_many(rows)
        alone = [eval_series(spec, W) for spec, W in rows]
        assert [_bits(r) for r in batch] == [_bits(r) for r in alone]
        used = [r.terms_used for r in batch]
        assert min(used) == 1 and max(used) > 19000
        assert not any(math.isnan(r.value) or math.isnan(r.est_rel_error) for r in batch)

    def test_rows_of_the_mixed_batch_are_what_they_claim(self):
        sc_zero, fs2, underflow = eval_series_many(_mixed_batch())[-3:]
        assert (sc_zero.value, sc_zero.terms_used) == (1.0, 4)
        # the large-nu fS2 at mu = 50 runs past its zero terms at k = 51, 102
        assert fs2.terms_used > 102
        closed = mp_series_closed(-1.0, 50.0, True, False, w_border(50.0) / 0.6)
        assert fs2.value == approx(float(closed), rel=1e-13)
        assert underflow.value == 0.0  # W^(2a) underflowed
        assert math.isfinite(underflow.est_rel_error)

    def test_rows_sharing_a_family_get_their_one_row_results_bit_for_bit(self, monkeypatch):
        """Many W per family, whose W-free part a block forms once: both
        kinds and regions, the sine-reflected form (large-nu, with the exact
        zero terms of fS2 at mu = 50), S_C at a = 0.0 and -0.0, and mu = 0,
        where the small- and large-nu families of one a coincide."""
        rows = []
        for mu in (0.0, 2.0, 50.0):
            border = w_border(mu)
            specs = [
                quantity_series(name, mu, region)
                for name in QUANTITIES
                for region in (Region.SMALL_NU, Region.LARGE_NU)
            ]
            for a in (0.0, -0.0, 1.0, -2.5):
                for kind in SeriesKind:
                    specs += [SeriesSpec(a, mu, Region.SMALL_NU, kind), SeriesSpec(a, mu, Region.LARGE_NU, kind)]
            for spec in specs:
                if spec.region is Region.SMALL_NU:
                    rows += [(spec, f * border) for f in (0.05, 0.2, 0.5, 0.7, 0.85)]
                else:
                    rows += [(spec, border / f) for f in (0.85, 0.6, 0.2, 0.05)]
        families = []
        part = series._family_part

        def counted(fam, k):
            families.append(len(fam))
            return part(fam, k)

        monkeypatch.setattr(series, "_family_part", counted)
        monkeypatch.setattr(series, "_PARTS", {})  # the last batch's blocks form no part
        batch = eval_series_many(rows)
        assert families[0] < len(rows) // 4
        alone = [eval_series(spec, W) for spec, W in rows]
        assert [_bits(r) for r in batch] == [_bits(r) for r in alone]
        sc_zero = [r for (spec, _), r in zip(rows, batch) if spec.kind is SeriesKind.SC and spec.a == 0.0]
        assert {(r.value, r.terms_used) for r in sc_zero} == {(1.0, 4)}

    def test_order_and_company_do_not_change_a_row(self):
        rows = _mixed_batch()
        forward = [_bits(r) for r in eval_series_many(rows)]
        backward = [_bits(r) for r in eval_series_many(rows[::-1])]
        assert backward[::-1] == forward

    def test_block_cap_does_not_change_a_row(self, monkeypatch):
        rows = _mixed_batch()
        wide = [_bits(r) for r in eval_series_many(rows)]
        monkeypatch.setattr(series, "_BLOCK_CELLS", 100)
        monkeypatch.setattr(series, "_FIRST_BLOCK", 3)
        assert [_bits(r) for r in eval_series_many(rows)] == wide

    def test_a_row_past_the_term_cap_is_named(self):
        mu = 1000.0
        W = w_border(mu) / 0.85
        spec = quantity_series("hR2", mu, Region.LARGE_NU)
        rows = [(sa(-1.0, 2.0), 0.1), (spec, W), (sa(-1.0, 2.0, Region.LARGE_NU), 1.0)]
        expected = f"a={spec.a}, mu={mu}, W={W}"
        with pytest.raises(NonConvergentError, match=re.escape(expected)):
            eval_series_many(rows)

    def test_the_first_bad_row_raises(self):
        rows = [(sa(-1.0, 2.0), 0.1), (sa(0.0, 2.0), 0.5), (sa(0.0, 2.0), -1.0)]
        with pytest.raises(RegionViolationError):
            eval_series_many(rows)

    def test_empty_batch(self):
        assert eval_series_many([]) == []


def _rows_at(*mus):
    """Every quantity in both regions at each mu, three W a region."""
    rows = []
    for mu in mus:
        border = w_border(mu)
        for name in QUANTITIES:
            rows += [(quantity_series(name, mu, Region.SMALL_NU), f * border) for f in (0.05, 0.5, 0.85)]
            rows += [(quantity_series(name, mu, Region.LARGE_NU), border / f) for f in (0.85, 0.5, 0.05)]
    return rows


class TestFamilyPartSlot:
    """`_sum_rows` keeps the `_family_part` arrays of the batch it summed
    last, keyed per block by its families and k range, so a repeated batch
    forms no W-free part again."""

    @staticmethod
    def _formed(monkeypatch):
        """The (family bytes, k0, width) of each block whose part is formed,
        from an emptied slot on."""
        formed = []
        part = series._family_part

        def counted(fam, k):
            formed.append((fam.tobytes(), int(k[0]), k.size))
            return part(fam, k)

        monkeypatch.setattr(series, "_family_part", counted)
        monkeypatch.setattr(series, "_PARTS", {})
        return formed

    def test_a_repeated_verify_forms_no_family_part_and_keeps_its_bits(self, monkeypatch):
        formed = self._formed(monkeypatch)
        cfg = SystemConfig(mu=2.0, R0=1.0)
        first = verify.run_suite(cfg, "quick")
        assert len(formed) == 4  # 25/23/11/3 families x 32/64/128/256 k
        again = verify.run_suite(cfg, "quick")
        assert len(formed) == 4
        assert len(first) == 38
        assert [(c.name, c.max_residual.hex()) for c in again] == [(c.name, c.max_residual.hex()) for c in first]

    def test_a_batch_between_repeats_changes_no_result(self, monkeypatch):
        batch_a, batch_b = _rows_at(2.0, 20.0), _rows_at(0.5, 7.0)

        def cold(rows):
            monkeypatch.setattr(series, "_PARTS", {})
            return [_bits(r) for r in eval_series_many(rows)]

        expected = {"A": cold(batch_a), "B": cold(batch_b)}
        formed = self._formed(monkeypatch)
        for name in "ABA":
            assert [_bits(r) for r in eval_series_many(batch_a if name == "A" else batch_b)] == expected[name]
        n_formed = len(formed)
        assert [_bits(r) for r in eval_series_many(batch_a)] == expected["A"]
        assert len(formed) == n_formed  # A after A forms nothing

    def test_the_slot_holds_the_last_calls_blocks_read_only(self, monkeypatch):
        formed = self._formed(monkeypatch)
        eval_series_many(_rows_at(0.5, 7.0))
        formed.clear()
        eval_series_many(_rows_at(2.0, 20.0))  # no family of the call before
        assert formed and sorted(series._PARTS) == sorted(formed)
        arrays = [v for part in series._PARTS.values() for v in part if v is not None]
        assert arrays and not any(v.flags.writeable for v in arrays)
        with pytest.raises(ValueError):
            arrays[0][...] = 0.0

    def test_threads_sharing_the_slot_get_their_cold_results(self, monkeypatch):
        batches = [_rows_at(2.0), _rows_at(7.0)]
        expected = []
        for rows in batches:
            monkeypatch.setattr(series, "_PARTS", {})
            expected.append([_bits(r) for r in eval_series_many(rows)])
        failures = []

        def work(i):
            try:
                for j in range(8):
                    n = (i + j) % 2
                    if [_bits(r) for r in eval_series_many(batches[n])] != expected[n]:
                        failures.append((i, j))
            except Exception as exc:  # a thread's error would otherwise pass unseen
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


def _patch_every_binding(monkeypatch, fn, replacement):
    for name, module in list(sys.modules.items()):
        if name == "sosharmonics" or name.startswith("sosharmonics."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def test_verify_sums_each_series_suite_in_one_batch(monkeypatch):
    calls = []
    many = series.eval_series_many

    def counted(requests):
        calls.append(len(requests))
        return many(requests)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify summed a series through the one-row eval_series")

    _patch_every_binding(monkeypatch, many, counted)
    _patch_every_binding(monkeypatch, series.eval_series, forbidden)
    checks = verify.run_suite(SystemConfig(mu=2.0, R0=1.0), "quick")
    assert all(c.passed for c in checks)
    assert calls == [177]


@pytest.mark.parametrize("mu", [1e-310, 5e-324])
def test_verify_returns_where_one_over_mu_overflows(monkeypatch, mu):
    # a W_border of 0.0 raised a math domain error at 1e-310, and one of NaN
    # ran a series at W = NaN to the term cap at 5e-324
    witness = []
    many = series.eval_series_many

    def recorded(requests):
        witness.extend(W for _, W in requests)
        return many(requests)

    _patch_every_binding(monkeypatch, many, recorded)
    checks = verify.run_suite(SystemConfig(mu=mu, R0=1.0), "quick")
    assert len(checks) == 38 and witness
    assert not any(math.isnan(W) for W in witness)
    # only the checks that lose digits as 1/mu at small mu may fail
    assert {c.name for c in checks if not c.passed} <= {"trig.scale_factor_relations", "trig.power_form"}


def _closed_kernel_calls(monkeypatch, level):
    """The array size of each closed-kernel call of a mu = 2 `run_suite` at
    level, by kernel, and its count of `solve_logit` calls; every check
    passes, 38 of them at either level."""
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            assert trig._has_numpy(args), f"verify called {name} on floats"
            calls.append((name, next(a.size for a in args if isinstance(a, np.ndarray))))
            return fn(*args, **kwargs)

        return counted

    kernels = [
        (coords, "closed_point"), (coords, "closed_solve"), (trig, "trig_from_W_robust"), (coords, "cartesian_R_nu"),
        (trig, "solve_logit"), (trig, "closed_trig"), (trig, "s_on_reference"),
        (coords, "cartesian_R_s"), (coords, "cartesian_closed"), (coords, "cartesian_point"),
        (coords, "compute_W"), (coords, "dW_dnu"), (coords, "sos_to_cartesian"), (trig, "w_from_s"),
    ]
    for module, name in kernels:
        _patch_every_binding(monkeypatch, getattr(module, name), counting(name, getattr(module, name)))
    checks = verify.run_suite(SystemConfig(mu=2.0, R0=1.0), level)
    assert all(c.passed for c in checks)
    assert len(checks) == 38
    names = ("closed_point", "closed_solve", "trig_from_W_robust", "cartesian_R_nu", "compute_W", "dW_dnu", "w_from_s",
             "sos_to_cartesian")
    return {name: [n for k, n in calls if k == name] for name in names}, sum(k == "solve_logit" for k, _ in calls)


def test_verify_makes_one_call_per_closed_kernel_a_round(monkeypatch):
    # every suite's points go to one call of each kernel in the one shared
    # round: the metric suite's metrics, the other forward solves and the
    # trig bundles; the transform suite then makes both inverse solves in
    # one call and the cone check's forward solve; the metric suite's W and
    # dW/dnu and the trig suite's W(s) are one array call each
    assert _closed_kernel_calls(monkeypatch, "quick") == ({
        "closed_point": [15], "closed_solve": [103, 40], "trig_from_W_robust": [78], "cartesian_R_nu": [80],
        "compute_W": [15], "dW_dnu": [15], "w_from_s": [27], "sos_to_cartesian": [],
    }, 5)


def test_verify_full_level_makes_one_call_per_closed_kernel_a_round(monkeypatch):
    assert _closed_kernel_calls(monkeypatch, "full") == ({
        "closed_point": [33], "closed_solve": [223, 160], "trig_from_W_robust": [138], "cartesian_R_nu": [320],
        "compute_W": [33], "dW_dnu": [33], "w_from_s": [51], "sos_to_cartesian": [],
    }, 5)


def test_eval_series_keeps_the_signature_and_result_tracing_reads():
    # a span tracer reads (args[0].region.value, result.terms_used)
    params = inspect.signature(eval_series).parameters
    assert list(params) == ["spec", "W"]
    assert params["spec"].annotation in (SeriesSpec, "SeriesSpec")
    args = (quantity_series("hR2", 2.0, Region.SMALL_NU), 0.5 * W_BORDER_MU2)
    result = eval_series(*args)
    assert type(result) is SeriesResult
    assert args[0].region.value == "SmallNu"
    assert isinstance(result.terms_used, int) and result.terms_used > 1
