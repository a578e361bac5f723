"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own evaluation paths:
classical Legendre via the textbook Bonnet recursion, generalized binomials
via mpmath, explicit low-degree second-kind formulas.  The one exception is
`forward_solid` and `forward_meridional`, the forward recursions a backward
(Clenshaw) sum is checked against, which take Q_0 from the package's q0.  `approx` is
the relative comparison the test modules share.
"""

import math
import random

import mpmath
import pytest


def approx(expected, rel):
    """pytest.approx with a relative tolerance only.

    pytest's default absolute tolerance of 1e-12 would accept any value
    within 1e-12 of a tiny expected one, whatever `rel` says."""
    return pytest.approx(expected, rel=rel, abs=0.0)


def classical_p_coeffs(n_max):
    """Power-basis coefficients of classical Legendre P_n via Bonnet."""
    polys = [[1.0], [0.0, 1.0]]
    for n in range(1, n_max):
        nxt = [0.0] * (n + 2)
        for j, c in enumerate(polys[n]):
            nxt[j + 1] += (2 * n + 1) / (n + 1) * c
        for j, c in enumerate(polys[n - 1]):
            nxt[j] -= n / (n + 1) * c
        polys.append(nxt)
    return polys[: n_max + 1]


def q_classical(n, x):
    """Classical second-kind Legendre, explicit forms for n <= 3."""
    q0 = 0.5 * math.log((1.0 + x) / (1.0 - x))
    if n == 0:
        return q0
    if n == 1:
        return x * q0 - 1.0
    if n == 2:
        return 0.5 * (3.0 * x * x - 1.0) * q0 - 1.5 * x
    if n == 3:
        return 0.5 * (5.0 * x**3 - 3.0 * x) * q0 - (2.5 * x * x - 2.0 / 3.0)
    raise ValueError("explicit classical Q only for n <= 3")


def forward_solid(N, s, mu, q_degree, r):
    """([r^n P_n(s)] for n <= N, [r^n Q_n(s)] for n <= q_degree) by the
    forward three-term recursion with the radial factor inside the step, in
    floats: r s/(1+mu) and r^2 (1 - mu s^2/(1+mu)^2) scale the two terms."""
    from sosharmonics.legendre import q0

    e = 1.0 + mu
    rs = r * s
    damp = r * (r * (1.0 - mu * s * s / (e * e)))
    p, t = [1.0, rs / e], [0.0, r / e]
    for m in range(1, N):
        u, v = (2.0 * m + 1.0) / (m + 1.0) / e * rs, m / (m + 1.0) * damp
        p.append(u * p[m] - v * p[m - 1])
        t.append(u * t[m] - v * t[m - 1])
    q0_s, g = q0(s, mu), math.sqrt(e * e - mu * s * s)
    return p[: N + 1], [pn * q0_s - tn * g for pn, tn in zip(p, t[: q_degree + 1])]


def forward_meridional(N, z, rho, q_degree):
    """([r^n P_n^cl(z/r)] for n <= N, [r^n Q_n^cl(z/r)] for n <= q_degree)
    by the forward classical solid step in floats,
    u_(n+1) = ((2n+1) z u_n - n r^2 u_(n-1))/(n+1) with r^2 = z^2 + rho^2,
    from P_0 = 1, P_1 = z and the package's Q_0 = q0, r Q_1 = z q0 - r."""
    from sosharmonics.legendre import q0_meridional

    r2 = z * z + rho * rho
    q0, r = q0_meridional(z, rho)
    p, q = [1.0, z], [q0, z * q0 - r]
    for m in range(1, N):
        u, v = (2.0 * m + 1.0) / (m + 1.0) * z, m / (m + 1.0) * r2
        p.append(u * p[m] - v * p[m - 1])
        q.append(u * q[m] - v * q[m - 1])
    return p[: N + 1], q[: q_degree + 1]


def mp_binom(alpha, k):
    return float(mpmath.binomial(mpmath.mpf(repr(alpha)), k))


def mp_q0(s, mu):
    """High-precision zeroth second-kind function."""
    s = mpmath.mpf(repr(s))
    mu = mpmath.mpf(repr(mu))
    g = mpmath.sqrt((1 + mu) ** 2 - mu * s * s)
    return float(mpmath.log((s + g) ** 2 / ((1 + mu) * ((1 + mu) - s * s))) / 2)


# frozen high-precision anchors (40-digit evaluations)
W_BORDER_MU2 = 0.38490017945975051  # sqrt(4/27)
W_REF_MU2_NU30 = 0.76980035891950102  # W at R=R0, nu=pi/6, mu=2
S_REF_MU2_NU30 = 0.86602540378443865  # sqrt(3)*sin(pi/6)
HR_REF_MU2_NU30 = 0.81649658092772603  # 1/sqrt(1.5)
FS_REF_MU2_NU30 = 0.70710678118654752
Q0_AT_1_MU2 = 0.39768273061195282  # q0(1, mu=2)
Q3_CLASSICAL_HALF = -0.19865477147948233  # classical Q_3(0.5)
Z_REF_MU2_NU30 = 0.28867513459481288  # sin(pi/6)/sqrt(3)


def mp_cartesian_R_s(x, y, z, mu):
    """40-digit closed forms R = sqrt(x^2 + y^2 + (1+mu) z^2), s = (1+mu) z/R.

    Inputs are taken as the exact binary values of the floats given.
    """
    with mpmath.workdps(40):
        x, y, z, mu = (mpmath.mpf(v) for v in (x, y, z, mu))
        R = mpmath.sqrt(x * x + y * y + (1 + mu) * z * z)
        return R, (1 + mu) * z / R


def mp_legendre(n_max, s, mu):
    """(P, T, Q) lists of degrees 0..n_max at s, as 60-digit mpf values.

    P_n and T_n come from the Bonnet-like value recursion (no power basis),
    Q_n = P_n q0 - T_n sqrt((1+mu)^2 - mu s^2); Q is None on the axis
    |s| = sqrt(1+mu), where q0 diverges.  Inputs are taken as the exact
    binary values of the floats given.
    """
    with mpmath.workdps(60):
        s, mu = mpmath.mpf(s), mpmath.mpf(mu)
        e = 1 + mu
        p, t = [mpmath.mpf(1), s / e], [mpmath.mpf(0), 1 / e]
        for m in range(1, n_max):
            c1 = mpmath.mpf(2 * m + 1) / (m + 1) * s / e
            c0 = mpmath.mpf(m) / (m + 1) * (1 - mu * s * s / (e * e))
            p.append(c1 * p[m] - c0 * p[m - 1])
            t.append(c1 * t[m] - c0 * t[m - 1])
        p, t = p[: n_max + 1], t[: n_max + 1]
        if s * s >= e:
            return p, t, None
        g = mpmath.sqrt(e * e - mu * s * s)
        q0 = mpmath.log((s + g) ** 2 / (e * (e - s * s))) / 2
        return p, t, [pn * q0 - tn * g for pn, tn in zip(p, t)]


def mp_potential(a, b, R, s, mu):
    """(V, scale) of sum a_n R^n P_n(s) + b_n R^n Q_n(s), R0 = 1, in 40 digits.

    P_n and Q_n come from `mp_legendre`.  scale is the sum of the absolute
    terms, which bounds the size of every partial sum.
    """
    p, _, q = mp_legendre(max(len(a), len(b), 2), s, mu)
    with mpmath.workdps(40):
        R = mpmath.mpf(R)
        terms = [an * R**n * p[n] for n, an in enumerate(a)]
        terms += [bn * R**n * q[n] for n, bn in enumerate(b)]
        return float(mpmath.fsum(terms)), float(mpmath.fsum(abs(v) for v in terms))


def _mp_position(R, nu, mu):
    """(rho, z, t) at mpf R, nu, mu with R0 = 1, in the working precision:
    t = s^2/(1+mu) from the logit of the closed inversion (`mp.findroot`),
    rho = R sqrt(1-t) and z = R sqrt(t/(1+mu))."""
    log_w = mu * mpmath.log(R) + mpmath.log(mpmath.sin(nu)) - (1 + mu) * mpmath.log(mpmath.cos(nu))
    # x/2 + (mu/2) log(1 + e^x) = log W lies between these bounds
    hi = min(2 * log_w, 2 * log_w / (1 + mu))
    lo = min(2 * log_w - mu, (2 * log_w - mu) / (1 + mu)) - 1
    x = mpmath.findroot(
        lambda x: x / 2 + mu / 2 * mpmath.log1p(mpmath.exp(x)) - log_w,
        (lo, hi),
        solver="anderson",
    )
    t = 1 / (1 + mpmath.exp(-x))
    return R * mpmath.sqrt(1 - t), R * mpmath.sqrt(t / (1 + mu)), t


def mp_meridional(R, nu, mu):
    """(z, rho) at (R, nu) with R0 = 1 as mpf values, in the caller's
    working precision; inputs are taken as the exact binary values of the
    floats given."""
    rho, z, _ = _mp_position(*(mpmath.mpf(v) for v in (R, nu, mu)))
    return z, rho


def mp_solid(n, z, rho, second_kind=False):
    """(r^n P_n^cl(z/r) or r^n Q_n^cl(z/r), r^n) with r^2 = z^2 + rho^2, as
    mpf values in the caller's working precision (mpmath's `legendre`, or
    `legenq` for the Ferrers Q_n on the cut, Q_0 = atanh)."""
    z, rho = mpmath.mpf(z), mpmath.mpf(rho)
    r = mpmath.sqrt(z * z + rho * rho)
    f = mpmath.legenq(n, 0, z / r, type=2) if second_kind else mpmath.legendre(n, z / r)
    return r**n * f, r**n


def mp_point(R, nu, mu):
    """50-digit (s, rho, z, h_R, h_nu, J) at (R, nu) with R0 = 1.

    t = s^2/(1+mu) solves the closed inversion t/(1-t)^(1+mu) = W^2 with
    W = R^mu sin(nu)/cos(nu)^(1+mu), found by `mp.findroot` on its logit,
    both sides in log form.  The position is rho = R sqrt(1-t),
    z = R sqrt(t/(1+mu)); h_R and h_nu are the norms of its R and nu
    derivatives (`mp.diff`) and J = h_R h_nu rho.  Inputs are taken as the
    exact binary values of the floats given.
    """
    with mpmath.workdps(50):
        mu = mpmath.mpf(mu)

        def position(R, nu):
            return _mp_position(R, nu, mu)

        R, nu = mpmath.mpf(R), mpmath.mpf(nu)
        rho, z, t = position(R, nu)
        d_R = [mpmath.diff(lambda r: position(r, nu)[k], R) for k in (0, 1)]
        d_nu = [mpmath.diff(lambda n: position(R, n)[k], nu) for k in (0, 1)]
        h_R = mpmath.sqrt(d_R[0] ** 2 + d_R[1] ** 2)
        h_nu = mpmath.sqrt(d_nu[0] ** 2 + d_nu[1] ** 2)
        s = mpmath.sqrt((1 + mu) * t)
        return tuple(float(v) for v in (s, rho, z, h_R, h_nu, h_R * h_nu * rho))


W_SWEEP_MUS = (0.0, 0.5, 2.0, 20.0, 200.0, 1000.0, 1e4)


def w_sweep(mu, n=2000):
    """n seeded (R, nu) with R0 = 1 and 0 < |nu| < pi/2, either sign: R
    log-uniform in [1e-4, 1e4]; nu uniform for half the points, within
    10^-16..1 of a pole for a quarter and log-uniform in [1e-300, 1] for
    the rest."""
    rng = random.Random(f"W-sweep-{mu!r}")
    out = []
    while len(out) < n:
        R, k = 10.0 ** rng.uniform(-4.0, 4.0), len(out) % 4
        if k < 2:
            nu = rng.uniform(0.0, math.pi / 2)
        else:
            nu = math.pi / 2 - 10.0 ** rng.uniform(-16.0, 0.0) if k == 2 else 10.0 ** rng.uniform(-300.0, 0.0)
        if 0.0 < nu < math.pi / 2:
            out.append((R, rng.choice((1.0, -1.0)) * nu))
    return out


def mp_W_dW(R, nu, mu):
    """50-digit (W, dW/dnu) at (R, nu) with R0 = 1, as the products
    R^mu sin nu / cos^(1+mu) nu and R^mu (1 + mu sin^2 nu) / cos^(2+mu) nu,
    which mpf's exponent range holds at any float input."""
    with mpmath.workdps(50):
        R, nu, mu = (mpmath.mpf(v) for v in (R, nu, mu))
        sn, cs = mpmath.sin(nu), mpmath.cos(nu)
        return R**mu * sn / cs ** (1 + mu), R**mu * (1 + mu * sn * sn) / cs ** (2 + mu)


def mp_cartesian_nu(x, y, z, mu, R0=1.0):
    """50-digit (R, |nu|) of a Cartesian point, solved in nu itself.

    R and s = (1+mu) z / R are the closed forms and t = s^2/(1+mu); nu
    solves log sin nu - (1+mu) log cos nu = log W - mu log(R/R0) with
    W^2 = t/(1-t)^(1+mu), by `mp.findroot` on a bracket in log nu, or in
    log(pi/2 - nu) when nu >= pi/4.  Inputs are taken as the exact binary
    values of the floats given.
    """
    with mpmath.workdps(50):
        x, y, z, mu, R0 = (mpmath.mpf(v) for v in (x, y, z, mu, R0))
        R = mpmath.sqrt(x * x + y * y + (1 + mu) * z * z)
        t = (1 + mu) * z * z / (R * R)
        target = mpmath.log(t) / 2 - (1 + mu) / 2 * mpmath.log(1 - t) - mu * mpmath.log(R / R0)
        half_log2 = mpmath.log(2) / 2  # log sin and -log cos at pi/4
        if target < mu * half_log2:
            # nu = e^u < pi/4: sin nu <= nu and cos nu >= cos(pi/4) bound the root
            u = mpmath.findroot(
                lambda u: mpmath.log(mpmath.sin(mpmath.exp(u)))
                - (1 + mu) * mpmath.log(mpmath.cos(mpmath.exp(u))) - target,
                (target - (1 + mu) * half_log2 - 1, mpmath.log(mpmath.pi / 4)),
                solver="anderson",
            )
            nu = mpmath.exp(u)
        else:
            # pi/2 - nu = e^v <= pi/4, by the same bounds on the complement
            v = mpmath.findroot(
                lambda v: mpmath.log(mpmath.cos(mpmath.exp(v)))
                - (1 + mu) * mpmath.log(mpmath.sin(mpmath.exp(v))) - target,
                (-(target + half_log2) / (1 + mu) - 1, mpmath.log(mpmath.pi / 4)),
                solver="anderson",
            )
            nu = mpmath.pi / 2 - mpmath.exp(v)
        return float(R), float(nu)


def mp_cartesian_point(x, z, mu):
    """50-digit `eval` record fields of the Cartesian point (x, 0, z), R0 = 1.

    A dict of mpf values under the record's keys: R, nu, W, s, f_C, f_S,
    h_R, h_nu and jacobian.  R^2 = x^2 + (1+mu) z^2, t = (1+mu) z^2/R^2 and
    1 - t = x^2/R^2 are closed, and W = sqrt(t)/(1-t)^((1+mu)/2).  nu is
    solved in u = log tan nu, where log W - mu log R = u + (mu/2) log(1 + e^(2u)),
    so nu within 1e-50 of pi/2 stays resolved.  h_R, h_nu and J are taken
    as `mp_point` takes them: the norms of the R and nu derivatives
    (`mp.diff`) of the position solved back from (R, nu), here in log R and
    u (dnu = du/(e^u + e^-u)), and J = h_R h_nu rho.  Inputs are taken as
    the exact binary values of the floats given.
    """
    with mpmath.workdps(50):
        x, z, mu = (mpmath.mpf(v) for v in (x, z, mu))
        e = 1 + mu

        def logit(log_w, b):
            # y/2 + (b/2) log(1 + e^y) = log_w, between the bounds `mp_point` uses
            hi = min(2 * log_w, 2 * log_w / (1 + b))
            lo = min(2 * log_w - b, (2 * log_w - b) / (1 + b)) - 1
            return mpmath.findroot(
                lambda y: y / 2 + b / 2 * mpmath.log1p(mpmath.exp(y)) - log_w, (lo, hi), solver="anderson"
            )

        def position(log_r, u):
            t = 1 / (1 + mpmath.exp(-logit(mu * log_r + u + mu / 2 * mpmath.log1p(mpmath.exp(2 * u)), mu)))
            R = mpmath.exp(log_r)
            return R * mpmath.sqrt(1 - t), R * mpmath.sqrt(t / e)

        R = mpmath.sqrt(x * x + e * z * z)
        t = e * z * z / (R * R)
        log_w = mpmath.log(t) / 2 - e * mpmath.log(abs(x) / R)
        u = logit(log_w - mu * mpmath.log(R), mu) / 2
        log_r = mpmath.log(R)
        d_r = [mpmath.diff(lambda v: position(v, u)[k], log_r) for k in (0, 1)]
        d_u = [mpmath.diff(lambda v: position(log_r, v)[k], u) for k in (0, 1)]
        h_R = mpmath.sqrt(d_r[0] ** 2 + d_r[1] ** 2) / R
        h_nu = mpmath.sqrt(d_u[0] ** 2 + d_u[1] ** 2) * (mpmath.exp(u) + mpmath.exp(-u))
        s = mpmath.sqrt(e * t)
        f_C = abs(x) / R * h_R
        return {
            "R": R, "nu": mpmath.atan(mpmath.exp(u)), "W": mpmath.exp(log_w), "s": s,
            "f_C": f_C, "f_S": s * h_R, "h_R": h_R, "h_nu": h_nu, "jacobian": h_R * h_nu * abs(x),
        }


def _series_setup(a, mu, large, W):
    """(a, b, x, rho) of a series family member as mpf values, at the working
    precision: b and x as in `sosharmonics.series`, rho the limiting ratio of
    successive terms, (W/W_border)^2 or (W_border/W)^(2/(1+mu))."""
    a, mu, W = mpmath.mpf(a), mpmath.mpf(mu), mpmath.mpf(W)
    border = mpmath.sqrt(mu**mu / (1 + mu) ** (1 + mu))
    if large:
        return a, mu / (1 + mu), W ** (-2 / (1 + mu)), (border / W) ** (2 / (1 + mu))
    return a, -mu, W * W, (W / border) ** 2


def _large_prefactor(a, mu, W, cauchy):
    pref = mpmath.mpf(W) ** (2 * mpmath.mpf(a))
    return pref if cauchy else pref / (1 + mpmath.mpf(mu))


def mp_series(a, mu, large, cauchy, W, dps=40):
    """S_A (or, with cauchy, S_C) summed term by term in `dps` digits.

    The number of terms is fixed before summing, from the limiting ratio
    rho of successive terms, so that rho^n is below 10^-(dps-5): no term,
    exact zeros included, ends the sum.  The large-nu value carries the
    W^(2a) (and 1/(1+mu) for S_A) prefactor.  Inputs are taken as the exact
    binary values of the floats given.
    """
    with mpmath.workdps(dps):
        a, b, x, rho = _series_setup(a, mu, large, W)
        n = int((dps - 5) * mpmath.log(10) / -mpmath.log(rho)) + 50
        terms = [mpmath.mpf(1)]
        for k in range(1, n + 1):
            if cauchy:
                c = a / k * mpmath.binomial(a + b * k - 1, k - 1)
            else:
                c = mpmath.binomial(a + b * k, k)
            terms.append(c * x**k)
        total = mpmath.fsum(terms)
        return total * _large_prefactor(a, mu, W, cauchy) if large else total


def mp_series_closed(a, mu, large, cauchy, W, dps=40):
    """The same sum from its closed form, with no summation at all.

    With B the root of B = 1 + x B^b that tends to 1 as x -> 0,
    S_C = B^a and S_A = B^a / (1 - b + b/B) (Graham, Knuth and Patashnik,
    Concrete Mathematics, 2nd ed., eq. 5.58-5.61).  It is found in log form,
    y = log B solving y = log1p(x e^(b y)), whose left side minus right side
    increases from -log1p(x) at y = 0 and is positive at log1p(x) (b < 0)
    or at log1p(x)/(1-b) (0 <= b < 1).
    """
    with mpmath.workdps(dps + 10):
        a, b, x, _ = _series_setup(a, mu, large, W)
        hi = mpmath.log1p(x) if b < 0 else mpmath.log1p(x) / (1 - b)
        y = mpmath.findroot(
            lambda y: y - mpmath.log1p(x * mpmath.exp(b * y)), (mpmath.mpf(0), hi), solver="anderson"
        )
        B = mpmath.exp(y)
        total = B**a if cauchy else B**a / (1 - b + b / B)
        if large:
            total *= _large_prefactor(a, mu, W, cauchy)
        return +total
