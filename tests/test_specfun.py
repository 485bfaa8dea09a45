import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from ncwell import specfun
from ncwell.errors import ConvergenceError, DomainError
from ncwell.logscale import LogScaled, ls_exp
from ncwell.specfun import (
    OrderIndex,
    _u_abs_anchor_product,
    _u_cf,
    _u_pos_direct,
    bessel,
    bessel_deriv,
    hankel_integral_oracle,
    hankel_integral_scaled,
    j_integral_closed,
    kummer_u,
    kummer_u_ratio,
    laguerre,
    re_u_neg,
    y_integral_closed,
)


def rel_ls(a: LogScaled, b: LogScaled) -> float:
    if a.is_zero() and b.is_zero():
        return 0.0
    return (abs(a - b) / max(abs(a), abs(b))).to_float()


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------

def test_laguerre_degree_zero_is_one():
    for m in (-2, 0, 1, 7):
        for w in (0.0, 0.3, 12.5, -4.0):
            if m < 0:
                continue
            assert laguerre(0, m, w).to_float() == 1.0


def test_laguerre_degree_one_closed_form():
    for w in (0.0, 0.25, 1.0, 19.0):
        assert laguerre(1, 0, w).to_float() == pytest.approx(1.0 - w, rel=1e-14, abs=1e-14)


def test_laguerre_at_origin_is_binomial():
    for (n, m) in [(3, 0), (5, 2), (10, 7), (40, 1)]:
        assert laguerre(n, m, 0.0).to_float() == pytest.approx(math.comb(n + m, n), rel=1e-13)


def test_laguerre_high_degree_against_quadrature_oracle():
    # frozen from the scaled J-integral quadrature: L = oracle / ((n!/2) e^{-w} w^{m/2})
    expected = 606241.8038240813
    got = laguerre(1000, 4, 0.5).to_float()
    assert got == pytest.approx(expected, rel=1e-8)
    # and the runtime identity at full precision of the oracle
    s = 2.0 * math.sqrt(0.5)
    orc = hankel_integral_scaled(1000, 4, "J", s)
    assert rel_ls(j_integral_closed(1000, 4, s), orc) < 1e-8


def test_laguerre_negative_superscript_reduction():
    for (n, k, w) in [(10, 1, 0.5), (11, 4, 2.3), (5, 5, 1.0), (8, 2, -1.7)]:
        got = laguerre(n, -k, w)
        expect = (
            laguerre(n - k, k, w)
            * ls_exp(k * math.log(abs(w)) + math.lgamma(n - k + 1) - math.lgamma(n + 1))
            * ((-1) ** k if w > 0 else 1)
        )
        assert rel_ls(got, expect) < 1e-14


def test_laguerre_domain_errors():
    with pytest.raises(DomainError):
        laguerre(3, -5, 1.0)
    with pytest.raises(DomainError):
        laguerre(-1, 0, 1.0)
    with pytest.raises(DomainError):
        laguerre(3, 0, math.inf)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=1e-6, max_value=60.0),
)
def test_laguerre_three_term_recurrence_residual(n, m, w):
    lm1 = laguerre(n - 1, m, w)
    l0 = laguerre(n, m, w)
    lp1 = laguerre(n + 1, m, w)
    t1 = lp1 * (n + 1.0)
    t2 = l0 * (2.0 * n + 1.0 + m - w)
    t3 = lm1 * (n + m + 0.0)
    resid = t1 - t2 + t3
    scale = max(abs(t1), abs(t2), abs(t3))
    assert (abs(resid) / scale).to_float() < 1e-10


def test_laguerre_consecutive_zero_separation():
    # scan for zeros of L^m_N and check L^m_{N+1} is bounded away there
    n, m = 25, 3
    ws = [0.05 + 0.05 * i for i in range(1200)]
    vals = [laguerre(n, m, w).to_float() for w in ws]
    found = 0
    for i in range(len(ws) - 1):
        if (vals[i] < 0) != (vals[i + 1] < 0):
            lo, hi = ws[i], ws[i + 1]
            flo = vals[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = laguerre(n, m, mid).to_float()
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            w0 = 0.5 * (lo + hi)
            neighbor = laguerre(n + 1, m, w0).to_float()
            local_scale = max(abs(vals[i]), abs(vals[i + 1]))
            assert abs(neighbor) > 1e3 * local_scale * 1e-9
            found += 1
    assert found >= n // 2  # the scan window covers a good share of the zeros


# ---------------------------------------------------------------------------
# Tricomi U, positive argument
# ---------------------------------------------------------------------------

def test_kummer_u_111_matches_anchor_integral():
    # oracle: int_0^inf e^{-t}/(1+t) dt, frozen
    assert kummer_u(1, 1, 1.0).to_float() == pytest.approx(0.5963473623231941, rel=1e-12)


def test_kummer_u_ratio_111_against_two_quadratures():
    # U(2,1,1) = int e^{-t} t (1+t)^{-2} dt (Gamma(2) = 1); both sides frozen
    assert kummer_u_ratio(1, 1, 1.0) == pytest.approx(
        0.19269472464638815 / 0.5963473623231941, rel=1e-12
    )
    # and the runtime quadratures agree with themselves
    num, _ = integrate.quad(
        lambda t: math.exp(-t) * t / (1 + t) ** 2, 0, math.inf, epsabs=1e-13, epsrel=1e-12
    )
    den, _ = integrate.quad(
        lambda t: math.exp(-t) / (1 + t), 0, math.inf, epsabs=1e-13, epsrel=1e-12
    )
    assert kummer_u_ratio(1, 1, 1.0) == pytest.approx(num / den, rel=1e-11)


@pytest.mark.parametrize("a", [1, 3, 10, 25, 50])
@pytest.mark.parametrize("b,x", [(1, 1.0), (-3, 0.5), (0, 2.857142857142857), (-7, 4.0)])
def test_kummer_ratio_times_value_is_next_value(a, b, x):
    lhs = kummer_u(a, b, x) * kummer_u_ratio(a, b, x)
    rhs = kummer_u(a + 1, b, x)
    assert rel_ls(lhs, rhs) < 1e-11


def test_kummer_ratio_extreme_order_stable_under_cap_doubling(monkeypatch):
    # the quadrature's step halved (twice the nodes over the same range) moves the ratio by roundoff only
    r1 = kummer_u_ratio(1001, -3, 0.05)
    monkeypatch.setattr(specfun, "_UQ_NODES", specfun._u_quad_nodes(0.03, 140, 112))
    r2 = kummer_u_ratio(1001, -3, 0.05)
    assert math.isfinite(r1) and r1 > 0.0
    assert r1 == pytest.approx(r2, rel=1e-15)


def test_kummer_ratio_cap_exhaustion_raises(monkeypatch):
    # ten nodes cover too little of the integrand: the guard raises rather than return a bad ratio
    monkeypatch.setattr(specfun, "_UQ_NODES", specfun._u_quad_nodes(0.06, 5, 4))
    with pytest.raises(ConvergenceError, match=r"for a=1001, b=-3, x=0\.05$"):
        kummer_u_ratio(1001, -3, 0.05)


def test_kummer_ratio_at_huge_x_is_one_over_x_or_raises():
    # U(a+1,b,x)/U(a,b,x) = (1/x)(1 + O(a/x)); from x of about 1e154 on (x+1-b)^2 overflows, and
    # the guard raises where the continued fraction returned 2e-300 at x = 1e300
    for a, b in ((5, 1), (1001, -30)):
        for x in (1e20, 1e100, 1e150):
            assert kummer_u_ratio(a, b, x) * x == pytest.approx(1.0, rel=5e-16)
        with pytest.raises(ConvergenceError, match=rf"for a={a}, b={b}, x=1e\+300$"):
            kummer_u_ratio(a, b, 1e300)


def _u_ratio_50(a, b, x):
    """U(a+1,b,x)/U(a,b,x) at 50 digits.

    mp.hyperu below x = 1.  From x = 1 on, where hypercomb can take seconds
    to tens of seconds per value, the continued fraction of the a-recurrence
    converges in a few thousand terms: it runs backward at 60 digits from
    doubling depths until two depths agree to 1e-55.
    """
    if x < 1.0:
        with mp.workdps(50):
            return mp.hyperu(a + 1, b, x) / mp.hyperu(a, b, x)
    with mp.workdps(60):
        x, depth, old = mp.mpf(x), 64, None
        while True:
            r = mp.mpf(0)
            # U(j-1) = (2j - b + x) U(j) - j (j - b + 1) U(j+1), so r_{j-1} = 1 / (2j - b + x - j (j - b + 1) r_j)
            for j in range(a + depth, a, -1):
                r = 1 / ((2 * j - b + x) - j * (j - b + 1) * r)
            if old is not None and abs(r - old) < mp.mpf(10) ** -55 * r:
                return r
            old, depth = r, 2 * depth


def test_u_ratio_quadrature_within_1e_15_of_50_digits():
    # ratios past the series seam (a+m+1) x = 1, m = 1 - b, to 3e5, and to 5e5 up to a = 11, past
    # the 4.7e5 that the V = 20000 golden well reaches at a = 11; the worst measured is 5.9e-16, at
    # a = 1 next to the seam
    worst = 0.0
    for a in (1, 2, 11, 1001, 10001, 100001):
        for b in (1, -1, -4, -30):
            for ax in (1.01, 4.5, 60.0, 3000.0, 3e5, *((5e5,) if a <= 11 else ())):
                x = ax / (a + 2 - b)
                want = _u_ratio_50(a, b, x)
                got = _u_cf(a, b, x)
                assert kummer_u_ratio(a, b, x) == got
                worst = max(worst, float(abs(got - want) / want))
    # the continued fraction that the quadrature replaced raised ConvergenceError here
    worst = max(worst, float(abs(kummer_u_ratio(100001, 1, 4.5e-5) / _u_ratio_50(100001, 1, 4.5e-5) - 1)))
    assert worst <= 1e-15


def test_kummer_u_bound_exterior_matches_k_bessel_quadrature():
    # theta = 20/21, V = 6, E = 3: x = theta (V - E); kappa^2 = 2 (V - E)
    theta, v, e = 20.0 / 21.0, 6.0, 3.0
    x = theta * (v - e)
    kappa = math.sqrt(2.0 * (v - e))
    s = math.sqrt(2.0 * theta) * kappa
    assert x == pytest.approx(s * s / 4.0, rel=1e-15)
    n = 10
    orc = hankel_integral_oracle(n, 0, "K", s)
    closed = 0.25 * math.factorial(n) ** 2 * kummer_u(n + 1, 1, x).to_float()
    assert closed == pytest.approx(orc, rel=1e-8)


def test_kummer_u_domain_errors():
    with pytest.raises(DomainError):
        kummer_u(0, 1, 1.0)
    with pytest.raises(DomainError):
        kummer_u(1, 2, 1.0)
    with pytest.raises(DomainError):
        kummer_u(1, 1, -1.0)
    with pytest.raises(DomainError):
        kummer_u_ratio(1, 1, 0.0)


def test_kummer_transform_consistency():
    # x^m U(a+m, 1+m, x) against the direct b <= 1 evaluation
    for (a, m, x) in [(3, 0, 1.0), (5, 2, 0.8), (11, 0, 20.0 / 7.0), (8, 4, 2.5)]:
        left = kummer_u(a, 1 - m, x)
        right = ls_exp(m * math.log(x)) * LogScaled.from_log(*_u_abs_anchor_product(a + m, 1 + m, x))
        assert rel_ls(left, right) < 1e-10


def test_u_ratio_series_and_cf_agree_at_dispatch_boundary():
    # the quadrature (the ratio's route above the seam) against the series quotient on both sides of it
    for (a, m, x) in [(10, 0, 0.09), (10, 2, 0.08), (50, 1, 0.02), (30, 4, 0.03), (1, 0, 0.5), (1000, 3, 0.001)]:
        quad = _u_cf(a, 1 - m, x)
        ser = (LogScaled.from_log(*_u_pos_direct(a + 1, m, x)) / LogScaled.from_log(*_u_pos_direct(a, m, x))).to_float()
        assert quad == pytest.approx(ser, rel=1e-11)


# ---------------------------------------------------------------------------
# Re U across the cut
# ---------------------------------------------------------------------------

def test_re_u_neg_n0_m0_is_exponential_integral():
    for w in (0.05, 0.5, 1.7, 5.0, 20.0):
        expect = -math.exp(-w) * special.expi(w)
        assert re_u_neg(0, 0, w).to_float() == pytest.approx(expect, rel=1e-12)


def test_re_u_neg_vs_order_limit_oracle():
    # average of the noninteger-order connection formula at nu = m +- 1e-6
    def nu_limit(n, m, w, eps=1e-6):
        with mp.workdps(60):
            w_ = mp.mpf(w)
            tot = mp.mpf(0)
            for nu in (m - eps, m + eps):
                nu_ = mp.mpf(nu)
                t1 = mp.gamma(nu_) / mp.gamma(n + 1 + nu_) * mp.hyp1f1(n + 1, 1 - nu_, -w_)
                t2 = (
                    mp.gamma(-nu_)
                    / mp.factorial(n)
                    * w_**nu_
                    * mp.cos(mp.pi * nu_)
                    * mp.hyp1f1(n + nu_ + 1, 1 + nu_, -w_)
                )
                tot += t1 + t2
            return float(tot / 2)

    got = re_u_neg(3, 2, 0.4).to_float()
    assert got == pytest.approx(nu_limit(3, 2, 0.4), rel=1e-8)
    got = re_u_neg(6, 1, 2.5).to_float()
    assert got == pytest.approx(nu_limit(6, 1, 2.5), rel=1e-8)


@pytest.mark.parametrize(
    "n,m,w",
    [(0, 0, 0.3), (2, 1, 0.4225), (5, 2, 1.0), (12, 3, 4.0), (20, 6, 10.0)],
)
def test_re_u_neg_reproduces_y_integral(n, m, w):
    s = 2.0 * math.sqrt(w)
    orc = hankel_integral_scaled(n, m, "Y", s)
    assert rel_ls(y_integral_closed(n, m, s), orc) < 1e-6


def test_re_u_neg_recurrence_path_matches_direct_series():
    # the anchored recurrence (n > 64) against the series evaluated at full n
    from ncwell.specfun import _reu_direct

    for (n, m, w) in [(200, 2, 0.8), (120, 0, 3.0), (1001, 4, 0.45)]:
        got = re_u_neg(n, m, w)
        ref = LogScaled.from_log(*_reu_direct(n, m, w))
        assert rel_ls(got, ref) < 1e-9


def test_re_u_neg_domain_errors():
    with pytest.raises(DomainError):
        re_u_neg(0, 0, -1.0)
    with pytest.raises(DomainError):
        re_u_neg(0, -1, 1.0)
    with pytest.raises(DomainError):
        re_u_neg(-1, 0, 1.0)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=8),
    st.floats(min_value=0.05, max_value=30.0),
)
def test_re_u_neg_fuzz_against_high_precision(n, m, w):
    got = re_u_neg(n, m, w)
    with mp.workdps(80):
        ref = mp.re(mp.hyperu(n + 1, 1 - m, mp.mpc(-w, 0)))
        if ref == 0:
            assert got.is_zero()
            return
        mine = mp.mpf(got.sign) * mp.e ** mp.mpf(got.logmag)
        assert abs(float((mine - ref) / ref)) < 1e-11


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=100, max_value=1500),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0.05, max_value=8.0),
)
def test_re_u_neg_recurrence_fuzz(n, m, w):
    # the anchored-recurrence path against mpmath at indices past the
    # direct-series threshold
    got = re_u_neg(n, m, w)
    with mp.workdps(60):
        ref = mp.re(mp.hyperu(n + 1, 1 - m, mp.mpc(-w, 0)))
        mine = mp.mpf(got.sign) * mp.e ** mp.mpf(got.logmag)
        assert abs(float((mine - ref) / ref)) < 1e-8


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------

def test_bessel_trivial_values():
    assert bessel("J", 0, 0.0) == 1.0
    for m in (1, 2, 9):
        assert bessel("J", m, 0.0) == 0.0
    assert bessel("I", 0, 0.0) == 1.0


def test_bessel_wronskian_identity():
    for m in (0, 1, 4, 9):
        for x in (0.2, 1.0, 3.7, 25.0):
            lhs = bessel("J", m + 1, x) * bessel("Y", m, x) - bessel("J", m, x) * bessel(
                "Y", m + 1, x
            )
            assert lhs == pytest.approx(2.0 / (math.pi * x), rel=1e-12)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel("Y", 0, 0.0)
    with pytest.raises(DomainError):
        bessel("K", 2, -1.0)
    with pytest.raises(DomainError):
        bessel("Q", 0, 1.0)
    with pytest.raises(DomainError):
        bessel("J", -1, 1.0)


def test_bessel_deriv_matches_finite_differences():
    h = 1e-6
    for kind in ("J", "Y", "I", "K"):
        for m in (0, 1, 3):
            for x in (0.7, 2.5, 9.0):
                fd = (bessel(kind, m, x + h) - bessel(kind, m, x - h)) / (2 * h)
                assert bessel_deriv(kind, m, x) == pytest.approx(fd, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def test_hankel_oracle_small_s_limit():
    # C_0(0) = 1: integral -> int r e^{-r^2} dr = 1/2
    assert hankel_integral_oracle(0, 0, "J", 1e-8) == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("n,m,s", [(0, 0, 1.0), (2, 1, 1.3), (10, 3, 3.0), (40, 8, 3.0), (40, 0, 0.3)])
def test_hankel_oracle_j_identity(n, m, s):
    orc = hankel_integral_oracle(n, m, "J", s)
    assert j_integral_closed(n, m, s).to_float() == pytest.approx(orc, rel=1e-8)


def test_hankel_oracle_y_cross_validates_re_u_neg():
    n, m, s = 2, 1, 1.3
    w = s * s / 4.0
    orc = hankel_integral_oracle(n, m, "Y", s)
    closed = (
        -(w ** (-m / 2.0))
        / (2.0 * math.pi)
        * math.factorial(n + m)
        * math.factorial(n)
        * re_u_neg(n, m, w).to_float()
    )
    assert closed == pytest.approx(orc, rel=1e-8)


def test_hankel_oracle_i_identity():
    for (n, m, s) in [(4, 1, 1.5), (10, 0, 2.0)]:
        w = s * s / 4.0
        orc = hankel_integral_oracle(n, m, "I", s)
        closed = (
            math.factorial(n) / 2.0 * math.exp(w) * w ** (m / 2.0) * laguerre(n, m, -w).to_float()
        )
        assert closed == pytest.approx(orc, rel=1e-8)


def test_hankel_oracle_range_cap():
    with pytest.raises(DomainError):
        hankel_integral_oracle(60, 10, "J", 1.0)
    with pytest.raises(DomainError):
        hankel_integral_oracle(0, 0, "J", -1.0)


def test_order_index_validation():
    OrderIndex(3, -3)
    with pytest.raises(DomainError):
        OrderIndex(2, -3)
    with pytest.raises(DomainError):
        OrderIndex(-1, 5)


@pytest.mark.parametrize("call, message", [
    (lambda: bessel("J", 1, -1.0), "J_m needs x >= 0, got -1.0"),
    (lambda: bessel_deriv("Q", 1, 1.0), "kind must be one of J, Y, I, K, got 'Q'"),
    (lambda: hankel_integral_oracle(1, 0, "Q", 1.0), "kind must be one of J, Y, I, K, got 'Q'"),
    (lambda: hankel_integral_oracle(-1, 0, "J", 1.0), "oracle needs n >= 0 and m >= 0, got n=-1, m=0"),
    (lambda: hankel_integral_oracle(1, -2, "J", 1.0), "oracle needs n >= 0 and m >= 0, got n=1, m=-2"),
    (lambda: hankel_integral_oracle(1, 0, "J", 0.0), "oracle needs s > 0, got 0.0"),
    (lambda: hankel_integral_scaled(1, 0, "Q", 1.0), "kind must be one of J, Y, I, K, got 'Q'"),
    (lambda: hankel_integral_scaled(-1, 0, "J", 1.0), "hankel_integral_scaled needs n, m >= 0 and s > 0"),
    (lambda: hankel_integral_scaled(1, -2, "J", 1.0), "hankel_integral_scaled needs n, m >= 0 and s > 0"),
    (lambda: hankel_integral_scaled(1, 0, "J", -0.5), "hankel_integral_scaled needs n, m >= 0 and s > 0"),
])
def test_cylinder_and_oracle_domain_errors(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
