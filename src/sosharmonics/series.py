"""Pólya–Szegő power series with generalized binomial coefficients.

Every analytic quantity of the similar oblate spheroidal (SOS) coordinate
system (metric scale factors, Jacobian, generalized sine/cosine) is one of
two series families in the dimensionless cone parameter W:

    S_A = sum_k  C(a + b*k, k) * x^k
    S_C = sum_k  a/(a + b*k) * C(a + b*k, k) * x^k

where C is the generalized binomial coefficient.  A quantity is one spec
(a, mu, kind), a its small-nu parameter, and W alone picks which of its two
representations converges.  The small-nu region uses a, b = -mu and
x = W^2; the large-nu region uses a/(1+mu), b = mu/(1+mu) and
x = W^(-2/(1+mu)), together with the leading W-power prefactors that make
the returned value the full physical quantity (a/(1+mu) in the powers):

    S_A(large) = W^(2a)/(1+mu) * sum(...),   S_C(large) = W^(2a) * sum(...)

Convergence switches sides at W_border = sqrt(mu^mu / (1+mu)^(1+mu)).  The
engine classifies each row's W against it as `region_of` does, and a W in
the guard band around the border is refused with NearBorderError, the one
error of the band.  Every evaluation path takes the closed forms of the
trig and coords modules; these series are the witness that `verify` checks
those closed forms against.

Each term costs O(1), whatever k.  C(alpha, k) = Gamma(p)/(Gamma(K+1) Gamma(q))
with p = q + K, and its log is taken in the grouped Stirling form

    (q - 1/2) log1p(K/q) + K log(p/(K+1)) - log(K+1)/2 + 1 - log(2 pi)/2
        + w(p) - w(K+1) - w(q)

where w is the Binet remainder of Stirling's formula (DLMF §5.11), so no two
large log-gammas are subtracted.  alpha > k-1 takes (q, K) = (alpha-k+1, k);
alpha < 0 the reflection C(alpha, k) = (-1)^k C(k-alpha-1, k); and
0 <= alpha <= k-1 the sine-reflected form, which is an exact 0 at integer
alpha.  The S_C term is (a/k) C(a+bk-1, k-1) x^k.  In the sine-reflected
form p is the integer k, elsewhere K + 1 is, so one of the three remainders
is taken once per k for all series.

The terms are an array kernel.  `eval_series_many` sums a list of (spec, W)
rows, each with its own a, mu and kind, in blocks of k; its W fixes its
region, and with it the family (a, b, kind) that it sums.  The whole
log-gamma part of a term depends on its family and k alone; W enters only
through k log x.  So a block forms that W-free part once per family with a
running row (`_family_part`: the three forms above as masks, `math.lgamma`
only on arguments below 10), and per row only k log x, the exp, the
envelope and the rounding bound (`_kernel`); it then applies the
stop below to each row's running sums and drops the rows that stopped, and
the families left with none.  The first block is 32 terms wide and each
next one twice as wide, up to 65536 cells (rows x terms) a block, so a
block's memory stays flat however many rows or terms.  Each block keeps its
cells up to each row's stop, and each row's term list is gathered from them
once, at the end; W_border is formed once per mu of the batch.  A row's
terms are formed elementwise by the same operations in the same order
whatever its company, and its sums are accumulated in its own order, so
each row gets the bits its one-row call `eval_series` gets.  The one batch
of `verify --level quick` (177 rows of 25 families at mu = 2, 4 blocks)
costs 0.5 us a term at mu = 2, 0.45 us at mu = 20 and 0.3 us at mu = 200
(a 2 vCPU x86-64 host), nearly all of it in the array passes of the
blocks: the row bookkeeping is a few per cent, and the first blocks, where
most arguments are below 10 and go through `math.lgamma`, cost the most.

The W-free part of a block depends only on its families and its k range, so
`_sum_rows` keeps the read-only `_family_part` arrays of the batch it summed
last, keyed per block by its family array and (k0, width), and the next
call takes a block's part from there when its key is the same; that call's
blocks then replace the kept ones whole, once its rows are summed.  A batch
whose families and blocks repeat, as every `verify` at one mu after the
first or a loop of `eval_series` over W for one family, forms no part
again, and its results keep their bits, since a kept part is the very
array that `_family_part` returned; a first or one-shot call forms every
part, as it would without the slot.  The slot holds the last batch's
family cells, at most 65536 a block (as many as its rows): 4,448 (0.2 MB)
after a quick `verify` at mu = 2, 20,064 (1.0 MB) at mu = 20 and 139,221
(6.7 MB) at mu = 200.  A repeated quick `verify` takes about 17 % less
time than the first at mu = 2, and about half at mu = 200.

The sum stops when a bound on its whole tail is below DEFAULT_TOL*|sum|:
the largest of the last three term envelopes times r/(1-r).  The envelope
is |term| with the sine factor set to 1, which is smooth in k; r is the
limiting term ratio, (W/W_border)^2 on the small-nu side and
(W_border/W)^(2/(1+mu)) on the large-nu side, or the envelope's own last
ratio where that is larger.
`est_rel_error` is that tail bound plus a running bound on the rounding error
of the terms and of their correctly rounded sum (`math.fsum`), relative to
the value: a bound on the true relative error, not a guess at it.

The rounding bound of a term is _ROUNDING_FACTOR units of roundoff (4 u,
two ulps) times the magnitudes of the logs summed into it, plus two for
the exp and the sine.  That covers one ulp for each elementary function and
one for the products and sums that form each piece.  numpy's float64 log,
log1p, exp and sin are numpy's own SIMD code on x86-64 (AVX-512 among
them), not the C library's, and numpy's accuracy tests hold them to 1 ulp
(`umath-validation-set-*.csv`); the worst seen against 120-bit mpmath on
4000 arguments each in the kernel's ranges was 0.64 ulp (exp), so the factor
stands as it was for the C library.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NearBorderError, NonConvergentError

#: Guard factor defining the refused band [gamma*W_border, W_border/gamma].
BORDER_GUARD = 0.9

#: Hard cap on summed terms before giving up.
TERM_CAP = 20000

#: Relative truncation tolerance of every sum.
DEFAULT_TOL = 1e-14

# Unit roundoff, and the factor by which each term's rounding bound covers
# the roundings of the logs, the exp and the sine that form it (numpy's
# ufuncs included; see the module docstring).
_U = sys.float_info.epsilon / 2
_ROUNDING_FACTOR = 4.0

_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_CONST = 1.0 - _HALF_LOG_2PI  # the constant of the grouped form

# Below this the Binet remainder is lgamma minus Stirling's main part, whose
# rounding error is a few units of roundoff of lgamma(10) ~ 13 per argument;
# the scale below covers the two or three small arguments of one ratio.
_STIRLING_FROM = 10.0
_SMALL_Z_SCALE = 32.0

# Terms in the first array block of `eval_series_many`; each later block is
# twice as wide, and holds at most _BLOCK_CELLS cells (rows x terms), which
# bounds its memory however many rows run, as `cli._BLOCK_CELLS` does.
_FIRST_BLOCK = 32
_BLOCK_CELLS = 65536

# The read-only `_family_part` arrays of the last `_sum_rows` call, keyed per
# block by (its family array's bytes, k0, width); the next call reads them
# and then replaces the dict whole.
_PARTS: dict = {}


class Region(enum.Enum):
    """Convergence region of the series in W."""

    SMALL_NU = "SmallNu"
    LARGE_NU = "LargeNu"
    NEAR_BORDER = "NearBorder"


class SeriesKind(enum.Enum):
    SA = "SA"
    SC = "SC"


@dataclass(frozen=True)
class SeriesSpec:
    """One member of the series family: a is its small-nu parameter.

    The region, and with it the summed parameter (a or a/(1+mu)) and b, is
    fixed by the W of each evaluation and the family constant mu.
    """

    a: float
    mu: float
    kind: SeriesKind

    def __post_init__(self) -> None:
        if not self.mu >= 0:
            raise ValueError("mu must be non-negative")


@dataclass(frozen=True)
class SeriesResult:
    value: float
    terms_used: int
    est_rel_error: float


def gen_binom(alpha: float, k: int) -> float:
    """Generalized binomial coefficient C(alpha, k) for real alpha.

    C(alpha, k) = prod_{j=0}^{k-1} (alpha - j) / k!, with C(alpha, 0) = 1.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    out = 1.0
    for j in range(k):
        out *= (alpha - j) / (j + 1.0)
    return out


def w_border(mu: float) -> float:
    """Border value of W separating the two convergence regions."""
    if mu == 0.0:
        return 1.0
    # sqrt(mu^mu/(1+mu)^(1+mu)) in a form that cannot overflow; below about
    # 5.6e-309, where 1/mu overflows, log((1+mu)/mu) is taken without it
    inv = 1.0 / mu
    log_ratio = math.log1p(inv) if inv < math.inf else math.log1p(mu) - math.log(mu)
    return math.exp(-0.5 * mu * log_ratio) / math.sqrt(1.0 + mu)


def region_of(W: float, mu: float) -> Region:
    """Classify |W| against the convergence border with the BORDER_GUARD band."""
    return _region(abs(W), w_border(mu))


def _region(w: float, border: float) -> Region:
    """The region of w >= 0 against the border W_border."""
    if w < BORDER_GUARD * border:
        return Region.SMALL_NU
    if w > border / BORDER_GUARD:
        return Region.LARGE_NU
    return Region.NEAR_BORDER


def _binet(z: np.ndarray) -> np.ndarray:
    """Binet remainder lgamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), z > 0.

    From z = 10 on it is the Stirling series to B_14, whose next term is
    below 3e-17 there; below that, lgamma minus Stirling's main part.
    """
    r = 1.0 / (z * z)
    # B_2j / (2j (2j-1)) for j = 1..7
    out = (
        1.0 / 12.0
        + r * (-1.0 / 360.0
        + r * (1.0 / 1260.0
        + r * (-1.0 / 1680.0
        + r * (1.0 / 1188.0
        + r * (-691.0 / 360360.0
        + r / 156.0)))))
    ) / z
    small = z < _STIRLING_FROM
    if small.any():
        zs = z[small]
        lgamma = np.fromiter(map(math.lgamma, zs.tolist()), float, zs.size)
        out[small] = lgamma - (zs - 0.5) * np.log(zs) + zs - _HALF_LOG_2PI
    return out


def _family_params(a: float, b: float, bm1: float, cauchy: bool) -> tuple:
    """The W-free parameters (a, b, b - 1, cauchy, amp) that a row shares
    with every row of its family.  amp is the sign of a/k in the S_C family
    (+1 for S_A), and 0 for S_C at a = 0, whose terms all vanish."""
    amp = 1.0
    if cauchy:
        amp = 0.0 if a == 0.0 else math.copysign(1.0, a)
    return a, b, bm1, float(cauchy), amp


def _family_part(fam: np.ndarray, k: np.ndarray):
    """The W-free part of the terms of every family of fam (families x
    `_family_params`) at every k >= 1 of k, families x k arrays:

      lg       log|term| less k log x and log_a_k
      sign     the term's sign, times the sine factor where sine holds
      sc       the rounding bound's scale from lg, extra the sine form's
      sine     the mask of the sine-reflected form
      pd       pi times the rounding of gap, where sine holds
      log_a_k  log(|a|/k) of the S_C factor a/k (0 for S_A), or None if no
               family is S_C
      |amp|    families x 1

    The term is C(alpha, m) x^k with alpha = a + b k and m = k, or in the S_C
    family (a/k) C(alpha, m) x^k with alpha = a + b k - 1 and m = k - 1.
    gap = alpha - m + 1 is the same for both; it is formed from bm1 = b - 1
    so that k does not cancel against alpha.  C(alpha, m) is
    Gamma(p) / (Gamma(K+1) Gamma(q)) with p = q + K, and
      alpha < 0           (q, K) = (-alpha, m), times (-1)^m;
      alpha > m - 1       (q, K) = (gap, m);
      0 <= alpha <= m-1   (q, K) = (alpha + 1, -gap), so p = m, times
                          sin(pi gap) / (pi m): an exact 0 at integer alpha.
    One of p and K + 1 is the integer m or m + 1, whose Binet remainder is
    taken once per k for all families.  The error bound is a few roundoffs
    times the magnitudes of the logs summed into the term, plus the effect
    of the rounding of gap where the term depends on it sharply.
    """
    a, b, bm1, cauchy, amp = (fam[:, j : j + 1] for j in range(5))
    gap = (a + 1.0) + bm1 * k
    log_a_k = None
    sc_fams = cauchy[:, 0] == 1.0
    if sc_fams.any():  # the factor a/k of S_C
        log_a_k = np.zeros((len(fam), k.size))
        a_sc = np.abs(a[sc_fams])
        log_a_k[sc_fams] = np.log(np.where(a_sc == 0.0, 1.0, a_sc) / k)
    alpha = (a - cauchy) + b * k
    m = k - cauchy

    neg = alpha < 0.0
    sine = ~neg & (gap <= 0.0)
    q = np.where(neg, -alpha, np.where(sine, alpha + 1.0, gap))
    K = np.where(sine, -gap, m)
    p = np.where(sine, m, q + K)
    # Binet remainders at the integers k - 1 .. k + 1 (m = 0 is overwritten
    # below), then at m and m + 1
    w_int = _binet(np.maximum(np.arange(k[0] - 1.0, k[-1] + 2.0), 1.0))
    w_k, w_k1 = w_int[1:-1], w_int[2:]
    w_m = np.where(cauchy == 1.0, w_int[:-2], w_k)
    w_m1 = np.where(cauchy == 1.0, w_k, w_k1)
    w_p_q = _binet(np.stack((np.where(sine, K + 1.0, p), q)))
    l1p = np.log1p(K / q)
    lead = (q - 0.5) * l1p
    mid = K * np.log(p / (K + 1.0))
    half = 0.5 * np.log1p(K)
    lg = (
        lead + mid - half + _STIRLING_CONST
        + np.where(sine, w_m - w_p_q[0], w_p_q[0] - w_m1) - w_p_q[1]
    )
    sc = np.abs(lead) + np.abs(mid) + half + 1.0
    # p is the largest argument
    sc += np.where((q < _STIRLING_FROM) | (K + 1.0 < _STIRLING_FROM), _SMALL_Z_SCALE, 0.0)
    d_gap = (2.0 * _U) * (np.abs(a + 1.0) + np.abs(bm1 * k))
    # alpha > m - 1: 1/Gamma(gap) moves by about (log1p(m/gap) + 1/gap) per
    # unit of gap
    sc += np.where(neg | sine, 0.0, (l1p + 1.0 / q) * (d_gap / _U))
    m0 = m == 0.0  # C(alpha, 0) = 1
    lg[m0] = 0.0
    sc[m0] = 0.0
    sign = np.where(neg & (m % 2.0 == 1.0), -amp, amp)
    # the sine factor sin(pi gap) = (-1)^n sin(pi (gap - n)), n the nearest integer
    n = np.rint(gap)
    sin_pi = np.sin(math.pi * (gap - n))
    sign = np.where(sine, np.where(n % 2.0 == 0.0, sin_pi, -sin_pi) * sign, sign)
    log_m = np.where(sine, np.log(m), 0.0)
    lg = np.where(sine, -_LOG_PI - log_m - lg, lg)
    extra = np.where(sine, log_m + 2.0, 0.0)
    return lg, sign, sc, extra, sine, math.pi * d_gap, log_a_k, np.abs(amp)


def _kernel(part, row_fam: np.ndarray, log_x: np.ndarray, k: np.ndarray):
    """Terms, smooth envelopes and rounding bounds of every row at every k
    of k: three rows x k arrays.  part is `_family_part` at k, row_fam the
    family of each row and log_x (rows x 1) its log x, through which alone
    W enters: k log x meets the family's lg in the row's exp."""
    lg, sign, sc, extra, sine, pd, log_a_k, abs_amp = (
        None if v is None else v[row_fam] for v in part
    )
    log_env = k * log_x
    scale = np.abs(log_env) + 2.0
    if log_a_k is not None:
        log_env += log_a_k
        scale += np.abs(log_a_k)
    env = abs_amp * np.exp(log_env + lg)
    term = sign * env
    err = _ROUNDING_FACTOR * _U * (scale + sc + extra) * np.abs(term)
    return term, env, err + np.where(sine, pd * env, 0.0)


def _row_setup(
    spec: SeriesSpec, W: float, border: float, log_border: float
) -> tuple[Region, float, float, float, float, float]:
    """(region, a, b, b - 1, log x, rho) of one row, W_border(mu) = border =
    exp(log_border): a is the summed parameter and rho the limiting term
    ratio.  Raises NearBorderError where W is in the guard band."""
    if not W >= 0:
        raise ValueError("W must be non-negative")
    mu = spec.mu
    log_w = math.log(W) if W > 0.0 else -math.inf
    region = _region(W, border)
    if region is Region.SMALL_NU:
        return region, spec.a, -mu, -(1.0 + mu), 2.0 * log_w, math.exp(2.0 * (log_w - log_border))
    if region is Region.NEAR_BORDER:
        raise NearBorderError(f"W={W} lies in the guard band; use trig_from_W_robust")
    log_rho = 2.0 * (log_border - log_w) / (1.0 + mu)
    a = spec.a / (1.0 + mu)
    return region, a, mu / (1.0 + mu), -1.0 / (1.0 + mu), -2.0 * log_w / (1.0 + mu), math.exp(log_rho)


def eval_series(spec: SeriesSpec, W: float) -> SeriesResult:
    """Sum of the series at parameter W >= 0, truncated by its tail bound.

    W picks the region (`region_of`); in the large-nu region the leading
    W-power prefactors are included, so the returned value is the full
    quantity.  Raises ValueError if W is negative or NaN, NearBorderError if
    it is in the guard band and NonConvergentError if the tail bound does
    not fall below DEFAULT_TOL * |sum| within the term cap.
    """
    return eval_series_many([(spec, W)])[0]


def eval_series_many(requests) -> list[SeriesResult]:
    """`eval_series` of every (spec, W) row of requests, in one array pass.

    Each row's result has the bits of its one-row call: every term is formed
    elementwise and each running sum in the row's own order, so neither the
    other rows nor the block boundaries change it.  Raises the first row's
    error, in request order, before any summing; NonConvergentError names
    the first row still running at the term cap.
    """
    borders = {}  # (W_border, log W_border) of each mu
    setups = []  # (region, summed a) of each row
    families, row_fam, live, log_x, rho = {}, [], [], [], []
    for i, (spec, W) in enumerate(requests):
        if spec.mu not in borders:
            border = w_border(spec.mu)
            borders[spec.mu] = border, math.log(border)
        region, a, b, bm1, row_log_x, row_rho = _row_setup(spec, W, *borders[spec.mu])
        setups.append((region, a))
        if row_log_x == -math.inf:  # x = 0: the k = 0 term alone
            continue
        # the rows of a family share every W-free parameter; a zero a or b
        # takes its equal's sign, which reaches no term (it reaches only the
        # sign of a zero alpha, which enters as alpha < 0 and alpha + 1)
        key = (a, b, bm1, spec.kind is SeriesKind.SC)
        row_fam.append(families.setdefault(key, len(families)))
        live.append(i)
        log_x.append(row_log_x)
        rho.append(row_rho)
    summed = [([1.0], 0.0, 0.0)] * len(requests)
    if live:
        fam = np.array([_family_params(*key) for key in families])
        with np.errstate(all="ignore"):
            rows = _sum_rows(
                [(setups[i][1], *requests[i]) for i in live], fam, np.array(row_fam),
                np.array(log_x)[:, None], np.array(rho),
            )
        for i, row in zip(live, rows):
            summed[i] = row

    out = []
    for (spec, W), (region, a), (terms, tail, rounding) in zip(requests, setups, summed):
        total = math.fsum(terms)
        # the correctly rounded sum and the large-nu prefactor add a few roundings
        ops = 1.0
        if region is Region.LARGE_NU:
            pref = W ** (2.0 * a)
            if spec.kind is SeriesKind.SA:
                pref /= 1.0 + spec.mu
            value = pref * total
            ops += 3.0
        else:
            value = total
        if len(terms) == 1:
            est = 0.0
        elif total == 0.0:
            est = math.inf
        else:
            est = (tail + rounding) / abs(total) + ops * _U
        out.append(SeriesResult(value=value, terms_used=len(terms), est_rel_error=est))
    return out


def _sum_rows(requests, fam, row_fam, log_x, rho) -> list[tuple[list, float, float]]:
    """(terms, tail bound, summed rounding bounds) of each row, row i of
    family fam[row_fam[i]] (`_family_params`) at log x = log_x[i]; requests
    holds each row's (summed a, spec, W), which NonConvergentError names.

    The rows run block by block, a stopped row leaving the block and a
    family with no running row leaving with it; a block forms the W-free
    part of the terms once per family (`_family_part`) and the rest per row
    (`_kernel`).  The stop is the one of a plain loop over k: from k = 3 on,
    once the envelope is below cut * |partial|, the tail bound is the
    largest of the last three envelopes times r/(1-r), r the limiting ratio
    rho or the envelope's own last ratio where that is larger, and the row
    stops once that bound is at most DEFAULT_TOL * |partial|.  Each block
    keeps its cells up to each row's stop, and each row's terms are gathered
    from them once, at the end.

    A block whose families and k range the last call summed too takes that
    call's `_family_part` arrays (`_PARTS`); the blocks of this call then
    replace them, once it has summed every row.
    """
    global _PARTS
    kept, parts = _PARTS, {}
    n = len(requests)
    blocks = []  # (k0, rows, their kept cells per row, the kept cells)
    n_terms, tails, roundings = np.ones(n, dtype=int), np.zeros(n), np.zeros(n)
    rho = rho[:, None]
    # the tail test can pass only once an envelope is below cut * |partial|
    cut = np.where(rho > 0.0, DEFAULT_TOL * (1.0 - rho) / rho, np.inf)
    rows = np.arange(n)
    partial = np.ones((n, 1))
    rounding = np.zeros((n, 1))
    last_env = np.zeros((n, 2))  # envelopes of the last two terms
    k0, width = 1, _FIRST_BLOCK
    while rows.size:
        if k0 > TERM_CAP:
            a, spec, W = requests[rows[0]]
            raise NonConvergentError(
                f"no convergence within {TERM_CAP} terms (a={a}, mu={spec.mu}, W={W})"
            )
        width = min(width, max(1, _BLOCK_CELLS // rows.size), TERM_CAP - k0 + 1)
        k = np.arange(k0, k0 + width, dtype=float)
        key = (fam.tobytes(), k0, width)
        part = kept.get(key)
        if part is None:
            part = _family_part(fam, k)
            for v in part:
                if v is not None:
                    v.flags.writeable = False
        parts[key] = part
        t, env, err = _kernel(part, row_fam, log_x, k)
        # running sums in each row's order, from the carried ones
        sums = np.cumsum(np.hstack([partial, t]), axis=1)[:, 1:]
        errs = np.cumsum(np.hstack([rounding, err]), axis=1)[:, 1:]
        envs = np.hstack([last_env, env])
        e1, e2 = envs[:, :-2], envs[:, 1:-1]
        size = np.abs(sums)
        r = np.where(env <= rho * e2, rho, np.where(e2 > 0.0, env / e2, np.inf))
        tail = np.maximum(np.maximum(e1, e2), env) * r / (1.0 - r)
        stop = (k >= 3.0) & ~(env > cut * size) & (r < 1.0) & (tail <= DEFAULT_TOL * size)
        done = stop.any(axis=1)
        last = np.where(done, stop.argmax(axis=1), width - 1)  # each row's last kept cell
        blocks.append((k0, rows, last + 1, t[np.arange(width) <= last[:, None]]))
        n_terms[rows] = k0 + last + 1  # the k = 0 term and those up to the last kept
        at_stop = np.flatnonzero(done), last[done]
        tails[rows[done]] = tail[at_stop]
        roundings[rows[done]] = errs[at_stop]
        going = ~done
        rows, log_x, rho, cut = rows[going], log_x[going], rho[going], cut[going]
        # renumber the families that still have a running row
        running = np.zeros(len(fam), dtype=bool)
        running[row_fam[going]] = True
        fam, row_fam = fam[running], (np.cumsum(running) - 1)[row_fam[going]]
        partial, rounding = sums[going, -1:], errs[going, -1:]
        last_env = envs[going, -2:]
        k0 += width
        width *= 2
    _PARTS = parts
    # every row's terms in k order, its k = 0 term (1) first; a row in a
    # block ran whole through every earlier one, so its cells there are
    # the terms k0, k0 + 1, ... of its list
    ends = np.cumsum(n_terms)
    starts = ends - n_terms
    flat = np.ones(ends[-1])
    for k0, rows, counts, cells in blocks:
        seg = np.cumsum(counts) - counts  # each row's first cell in cells
        flat[np.arange(cells.size) + np.repeat(starts[rows] + k0 - seg, counts)] = cells
    flat = flat.tolist()
    return [
        (flat[start:end], tail, rounding)
        for start, end, tail, rounding in zip(
            starts.tolist(), ends.tolist(), tails.tolist(), roundings.tolist()
        )
    ]


_QUANTITY_TABLE = {
    # name: (small-nu a, kind); the large-nu region sums a/(1+mu)
    "hR2": (lambda mu: 0.0, SeriesKind.SA),
    "fC2": (lambda mu: -1.0, SeriesKind.SA),
    "fS2": (lambda mu: -(1.0 + mu), SeriesKind.SA),
    "Snu": (lambda mu: -(mu + 2.0), SeriesKind.SA),
    "jac": (lambda mu: -(mu + 3.0) / 2.0, SeriesKind.SA),
    "jac_hR2": (lambda mu: -(mu + 3.0) / 2.0, SeriesKind.SC),
    "jac_hnu2": (lambda mu: (mu + 1.0) / 2.0, SeriesKind.SC),
}


def quantity_series(name: str, mu: float) -> SeriesSpec:
    """Series family member behind a named SOS quantity.

      hR2       h_R^2                      S_A, a = 0
      fC2       f_C^2                      S_A, a = -1
      fS2       f_S^2 / ((1+mu) W^2)       S_A, a = -(1+mu)
      Snu       squared h_nu part          S_A, a = -(mu+2)
      jac       Jacobian part              S_A, a = -(mu+3)/2
      jac_hR2   (J/h_R^2) part             S_C, a = -(mu+3)/2
      jac_hnu2  (J/h_nu^2) part            S_C, a = (mu+1)/2

    External prefactors ((1+mu) W^2 for fS2, the R and dW/dnu factors of the
    metric quantities) are applied by the consuming modules.  The a listed
    is the small-nu one; the large-nu region sums a/(1+mu).
    """
    a, kind = _QUANTITY_TABLE[name]
    return SeriesSpec(a=a(mu), mu=mu, kind=kind)
