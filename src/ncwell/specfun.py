"""Special functions backing the Fock-basis matrix elements of the well.

The radial matrix elements mix three ingredient families:

* generalized Laguerre polynomials L^m_n(w), evaluated by forward
  three-term recurrence with per-step renormalization (stable here because
  the arguments of interest sit in the oscillatory range w < 4n, and the
  renormalization keeps intermediates in float range for n ~ 2000),
* the Tricomi function U(a, b, x) for positive argument and integer b <= 1,
  via a continued fraction for first-parameter ratios plus a
  quadrature-backed anchor at a = 1,
* Re[U(n+1, 1-m, -w)], the real part across the branch cut on the negative
  axis, via the integer-b logarithmic series with ln(-w) -> ln(w).  The
  series is exact but cancels catastrophically when (n+m+1)*w is large, so
  the evaluation escalates its working precision when a double-precision
  pass is detected to have lost too many digits.  For large n the value is
  instead propagated by the same three-term recurrence that the Laguerre
  branch obeys: W_n = (n+m)! * Re[U(n+1, 1-m, -w)] satisfies
  (n+1) W_{n+1} = (2n+1+m-w) W_n - (n+m) W_{n-1}.

An adaptive quadrature of the defining Hankel-type integrals is provided as
an independent oracle for all of the closed forms above.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate, special

from .errors import ConvergenceError, DomainError
from .logscale import LogScaled, ZERO, ls_exp

EULER_GAMMA = 0.5772156649015328606

# direct-series evaluation is used up to this index; beyond it the value is
# anchored low and carried up by recurrence
_DIRECT_N = 64

# escalate to mpmath when a double pass lost more than this many digits
_MAX_LOST_DIGITS = 3.5

_RENORM_HI = 1e250
_RENORM_LO = 1e-250


@dataclass(frozen=True)
class OrderIndex:
    """Index pair (n, m) of a matrix element row; requires n >= 0, n + m >= 0."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"oscillator level n must be >= 0, got {self.n}")
        if self.n + self.m < 0:
            raise DomainError(
                f"matrix element needs n + m >= 0, got n={self.n}, m={self.m}"
            )


def _check_int(value, name):
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# generalized Laguerre polynomials
# ---------------------------------------------------------------------------

def _laguerre_sweep(m: int, w: float, targets):
    """Forward recurrence for L^m_n(w), m >= 0; returns {n: (mantissa, log_scale)}."""
    nmax = max(targets)
    out = {}
    lp, lc, ls = 1.0, 1.0 + m - w, 0.0
    if 0 in targets:
        out[0] = (lp, ls)
    if 1 in targets:
        out[1] = (lc, ls)
    for n in range(2, nmax + 1):
        lp, lc = lc, ((2 * n - 1 + m - w) * lc - (n - 1 + m) * lp) / n
        a = abs(lp) + abs(lc)
        if a > _RENORM_HI or (0.0 < a < _RENORM_LO):
            lp /= a
            lc /= a
            ls += math.log(a)
        if n in targets:
            out[n] = (lc, ls)
    return out


def _laguerre_sweep_grid(m: int, w: np.ndarray, targets):
    """_laguerre_sweep on an array of arguments, one lane per w.

    Every lane runs the scalar arithmetic in the same order, and a lane's
    log scale grows by math.log of its own renormalization factor, so each
    lane's (mantissa, log_scale) equals the scalar sweep's bit for bit.
    Returns {n: (mantissa array, log_scale array)}.
    """
    nmax = max(targets)
    out = {}
    lp = np.ones_like(w)
    lc = (1.0 + m) - w
    ls = np.zeros_like(w)
    if 0 in targets:
        out[0] = (lp.copy(), ls.copy())
    if 1 in targets:
        out[1] = (lc.copy(), ls.copy())
    for n in range(2, nmax + 1):
        lp, lc = lc, ((2 * n - 1 + m - w) * lc - (n - 1 + m) * lp) / n
        a = np.abs(lp) + np.abs(lc)
        renorm = (a > _RENORM_HI) | (a < _RENORM_LO)
        if renorm.any():
            for i in np.flatnonzero(renorm & (a > 0.0)):
                lp[i] /= a[i]
                lc[i] /= a[i]
                ls[i] += math.log(a[i])
        if n in targets:
            out[n] = (lc.copy(), ls.copy())
    return out


def _ls_from_sweep(mant: float, scale: float) -> LogScaled:
    """LogScaled value of a sweep row stored as (mantissa, log scale)."""
    if mant == 0.0:
        return ZERO
    return LogScaled.from_log(1 if mant > 0 else -1, math.log(abs(mant)) + scale)


def _lower_order(base: LogScaled, n: int, k: int, w: float) -> LogScaled:
    """L^{-k}_n(w) from base = L^k_{n-k}(w): (-w)^k ((n-k)!/n!) base."""
    if w == 0.0 or base.is_zero():
        return ZERO
    # (-w)^k is negative only for w > 0 and odd k
    sign = (-1) ** k if w > 0 else 1
    lg = k * math.log(abs(w)) + math.lgamma(n - k + 1) - math.lgamma(n + 1)
    return base * LogScaled.from_log(sign, lg)


def laguerre(n: int, m: int, w: float) -> LogScaled:
    """Generalized Laguerre polynomial L^m_n(w).

    Negative superscripts reduce through
    L^{-k}_n(w) = (-w)^k ((n-k)!/n!) L^k_{n-k}(w), which requires n >= k.
    """
    n = _check_int(n, "n")
    m = _check_int(m, "m")
    if n < 0:
        raise DomainError(f"degree n must be >= 0, got {n}")
    if not math.isfinite(w):
        raise DomainError("argument w must be finite")
    if m < 0:
        k = -m
        if n < k:
            raise DomainError(
                f"L^m_n with m < 0 needs n >= -m, got n={n}, m={m}"
            )
        return _lower_order(laguerre(n - k, k, w), n, k, w)
    return _ls_from_sweep(*_laguerre_sweep(m, w, {n})[n])


# ---------------------------------------------------------------------------
# Tricomi U, positive argument, integer b <= 1
# ---------------------------------------------------------------------------

def _u_cf(a: int, b: int, x: float, tol: float = 5e-15, max_iter: int = 200_000) -> float:
    """U(a+1,b,x)/U(a,b,x) by the continued fraction of the a-recurrence.

    U is the minimal solution of
    U(a-1) = (x + 2a - b) U(a) - a (a - b + 1) U(a+1)
    for increasing a, so the Pincherle continued fraction converges to the
    ratio.  Modified Lentz evaluation.
    """
    tiny = 1e-300
    f = tiny
    c = tiny
    d = 0.0
    for j in range(max_iter):
        if j == 0:
            aj, bj = 1.0, x + 2.0 * (a + 1) - b
        else:
            aj = -(a + j) * (a + j + 1.0 - b)
            bj = x + 2.0 * (a + j) + 2.0 - b
        d = bj + aj * d
        if d == 0.0:
            d = tiny
        c = bj + aj / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < tol:
            return f
    raise ConvergenceError(
        f"U-ratio continued fraction did not converge within {max_iter} "
        f"iterations for a={a}, b={b}, x={x}"
    )


def _u_cf_grid(a: int, b: int, x: np.ndarray, tol: float = 5e-15, max_iter: int = 200_000) -> np.ndarray:
    """_u_cf on an array of x, one lane per x, bit-identical to the scalar.

    The modified-Lentz steps run on all live lanes at once; a lane leaves
    the live set on the iteration where the scalar loop would return.
    """
    tiny = 1e-300
    out = np.empty_like(x)
    if x.size == 0:
        return out
    live = np.arange(x.size)
    xs = x
    f = np.full_like(x, tiny)
    c = f.copy()
    d = np.zeros_like(x)
    for j in range(max_iter):
        if j == 0:
            aj, bj = 1.0, xs + 2.0 * (a + 1) - b
        else:
            aj = -(a + j) * (a + j + 1.0 - b)
            bj = xs + 2.0 * (a + j) + 2.0 - b
        d = bj + aj * d
        d[d == 0.0] = tiny
        c = bj + aj / c
        c[c == 0.0] = tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < tol
        if done.any():
            out[live[done]] = f[done]
            keep = ~done
            live, xs, f, c, d = live[keep], xs[keep], f[keep], c[keep], d[keep]
            if live.size == 0:
                return out
    raise ConvergenceError(
        f"U-ratio continued fraction did not converge within {max_iter} "
        f"iterations for a={a}, b={b}, x={float(xs[0])}"
    )


def kummer_u_ratio(a: int, b: int, x: float, max_iter: int = 200_000) -> float:
    """U(a+1,b,x) / U(a,b,x) for x > 0, integer b <= 1, integer a >= 1."""
    a = _check_int(a, "a")
    b = _check_int(b, "b")
    if a < 1:
        raise DomainError(f"first parameter a must be a positive integer, got {a}")
    if b > 1:
        raise DomainError(f"second parameter b must be <= 1, got {b}")
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"U ratio needs x > 0, got {x}")
    return _u_cf(a, b, x, max_iter=max_iter)


def _u_anchor_quad(b: int, x: float) -> float:
    """U(1, b, x) = int_0^inf e^{-xt} (1+t)^{b-2} dt by adaptive quadrature."""
    last = None
    for eps in (1e-14, 1e-12):
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            try:
                val, _ = integrate.quad(
                    lambda t: math.exp(-x * t) * (1.0 + t) ** (b - 2),
                    0.0,
                    np.inf,
                    epsabs=eps,
                    epsrel=10 * eps,
                    limit=300,
                )
                return val
            except integrate.IntegrationWarning as exc:
                last = exc
    raise ConvergenceError(f"anchor quadrature failed for b={b}, x={x}: {last}")


def _u_abs_anchor_product(a: int, b: int, x: float) -> LogScaled:
    """|U(a,b,x)| from the a=1 anchor times a product of CF ratios."""
    anchor = _u_anchor_quad(b, x)
    logmag = math.log(anchor)
    for j in range(1, a):
        logmag += math.log(_u_cf(j, b, x))
    return LogScaled.from_log(1, logmag)


def kummer_u(a: int, b: int, x: float) -> LogScaled:
    """Tricomi confluent hypergeometric U(a, b, x), x > 0, integer b <= 1.

    Positive for these arguments.  Small a*x is evaluated by the integer-b
    logarithmic series; otherwise the a = 1 quadrature anchor is propagated
    upward with continued-fraction ratios.
    """
    a = _check_int(a, "a")
    b = _check_int(b, "b")
    if a < 1:
        raise DomainError(f"first parameter a must be a positive integer, got {a}")
    if b > 1:
        raise DomainError(f"second parameter b must be <= 1, got {b}")
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"kummer_u needs x > 0, got {x}")
    m = 1 - b
    if (a + m + 1) * x <= 4.0:
        val = _u_pos_direct(a, m, x)
    else:
        val = _u_abs_anchor_product(a, b, x)
    if val.sign <= 0:
        raise ConvergenceError(
            f"U({a},{b},{x}) evaluated non-positive; arguments out of the stable range"
        )
    return val


# ---------------------------------------------------------------------------
# integer-b logarithmic series (shared by the cut and the positive axis)
# ---------------------------------------------------------------------------

def _lost_digits(max_piece_log: float, result: LogScaled) -> float:
    if result.is_zero():
        return math.inf
    return (max_piece_log - result.logmag) / math.log(10.0)


def _reu_pieces_float(n: int, m: int, w: float):
    """Double-precision pass for Re[U(n+1,1-m,-w)].

    Returns (value, max_piece_log, t_piece_log); the last is the log
    magnitude of the all-positive tail piece (or None for m = 0), a cheap
    lower bound on the result scale used to seed the escalated precision.
    """
    A = n + m + 1
    lnw = math.log(w)
    # M(A, m+1, -w) = e^{-w} M(-n, m+1, w): finite sum, all-term tracking
    pv, t, pmax = 0.0, 1.0, 1.0
    for r in range(n):
        pv += t
        t *= (r - n) * w / ((m + 1 + r) * (r + 1.0))
        pmax = max(pmax, abs(t))
    pv += t
    if not math.isfinite(pv):
        return None, math.inf, None
    # digamma-weighted series
    br = EULER_GAMMA
    for i in range(m + 1, A):
        br += 1.0 / i
    s, t, smax, r = 0.0, 1.0, 0.0, 0
    while True:
        contrib = t * br
        s += contrib
        smax = max(smax, abs(contrib))
        t *= (A + r) * (-w) / ((m + 1 + r) * (r + 1.0))
        br += 1.0 / (A + r) - 1.0 / (1 + r) - 1.0 / (m + 1 + r)
        r += 1
        if r > 4 and abs(t) * (abs(br) + 1.0) < 1e-19 * max(abs(s), 1e-280):
            break
        if not math.isfinite(s) or r > 500_000:
            return None, math.inf, None
    if not (math.isfinite(pv) and math.isfinite(s)):
        return None, math.inf, None
    pref_log = m * lnw - math.lgamma(m + 1.0) - math.lgamma(n + 1.0)
    # piece 1: -pref * e^{-w} P * ln w
    if pv != 0.0 and lnw != 0.0:
        p1 = LogScaled.from_log(
            -1 if (pv > 0) == (lnw > 0) else 1,
            pref_log - w + math.log(abs(pv)) + math.log(abs(lnw)),
        )
    else:
        p1 = ZERO
    # piece 2: -pref * S
    if s != 0.0:
        p2 = LogScaled.from_log(-1 if s > 0 else 1, pref_log + math.log(abs(s)))
    else:
        p2 = ZERO
    # piece 3: sum_{r<m} (n+1)_r (m-1-r)! w^r / ((n+m)! r!), all positive
    p3 = ZERO
    t3max = -math.inf
    for r in range(m):
        tl = (
            math.lgamma(n + 1.0 + r)
            - math.lgamma(n + 1.0)
            + math.lgamma(m - r + 0.0)
            - math.lgamma(n + m + 1.0)
            - math.lgamma(r + 1.0)
            + r * lnw
        )
        t3max = max(t3max, tl)
        p3 = p3 + LogScaled.from_log(1, tl)
    result = p1 + p2 + p3
    max_piece_log = max(
        pref_log - w + math.log(max(pmax, 1e-300)) + math.log(max(abs(lnw), 1e-300)),
        pref_log + math.log(max(smax, 1e-300)),
        t3max,
    )
    t_piece_log = p3.logmag if p3.sign else None
    return result, max_piece_log, t_piece_log


def _reu_direct_mp(n: int, m: int, w: float, dps: int) -> LogScaled:
    """Arbitrary-precision evaluation of the cut series.

    The series is exact, so the only error is roundoff amplified by the
    cancellation between its pieces; each pass measures that amplification
    directly (largest term magnitude vs result magnitude) and escalates the
    working precision in one step when too few digits survive.
    """
    def attempt(prec):
        with mp.workdps(prec):
            A = n + m + 1
            w_ = mp.mpf(w)
            lnw = mp.log(w_)
            pv, t = mp.mpf(0), mp.mpf(1)
            mx_pv = 0
            for r in range(n + 1):
                pv += t
                if t:
                    mx_pv = max(mx_pv, mp.mag(t))
                t *= (r - n) * w_ / ((m + 1 + r) * (r + 1))
            br = mp.euler + mp.harmonic(A - 1) - mp.harmonic(m)
            s, t, r = mp.mpf(0), mp.mpf(1), 0
            mx_s = -(10**9)
            while True:
                contrib = t * br
                s += contrib
                if contrib:
                    mx_s = max(mx_s, mp.mag(contrib))
                t *= (A + r) * (-w_) / ((m + 1 + r) * (r + 1))
                br += mp.mpf(1) / (A + r) - mp.mpf(1) / (1 + r) - mp.mpf(1) / (m + 1 + r)
                r += 1
                if r > 4 and abs(t) * (abs(br) + 1) < mp.mpf(10) ** (-prec - 8) * max(
                    abs(s), mp.mpf(10) ** -9999
                ):
                    break
                if r > 2_000_000:
                    raise ConvergenceError("cut series stalled in mp pass")
            # all-positive tail sum, incremental terms
            t3 = mp.mpf(0)
            if m >= 1:
                term = mp.gamma(m) / mp.gamma(n + m + 1)
                for r in range(m):
                    t3 += term
                    if r < m - 1:
                        term *= (n + 1 + r) * w_ / ((m - 1 - r) * (r + 1))
            pref = w_**m / (mp.factorial(m) * mp.factorial(n))
            p1 = -pref * mp.e**(-w_) * pv * lnw
            p2 = -pref * s
            val = p1 + p2 + t3
            # largest intermediate at the overall scale bounds the roundoff
            mx = mp.mag(pref) + max(mx_s, mx_pv - int(w * 1.4427))
            for piece in (p1, p2, t3):
                if piece:
                    mx = max(mx, mp.mag(piece))
            if val == 0:
                return 0, 0.0, prec * 3.4
            lost_bits = mx - mp.mag(val)
            return int(mp.sign(val)), float(mp.log(abs(val))), lost_bits / 3.32

    for _ in range(5):
        sign, logmag, lost = attempt(dps)
        if dps - lost >= 17:
            return LogScaled.from_log(sign, logmag) if sign else ZERO
        dps = int(lost) + 26
    raise ConvergenceError(
        f"cut series failed to stabilize for n={n}, m={m}, w={w}"
    )


def _reu_direct(n: int, m: int, w: float) -> LogScaled:
    val, max_piece_log, t_piece_log = _reu_pieces_float(n, m, w)
    if val is not None and _lost_digits(max_piece_log, val) <= _MAX_LOST_DIGITS:
        return val
    if val is not None and not val.is_zero():
        lost = _lost_digits(max_piece_log, val)
    else:
        # overflow or total cancellation: bound the loss from the term growth
        lost = (2.0 * math.sqrt((n + m + 1) * w) + w) / math.log(10.0) + 10.0
    if t_piece_log is not None and math.isfinite(max_piece_log):
        # the positive tail piece bounds the result scale from below
        lost = max(lost, (max_piece_log - t_piece_log) / math.log(10.0))
    dps = 24 + int(min(lost, 20000.0))
    return _reu_direct_mp(n, m, w, dps)


def _anchor_index(m: int, w: float) -> int:
    """First index safely inside the oscillatory band of the n-recurrence.

    The scaled cut values W_n = (n+m)! Re[U(n+1,1-m,-w)] are the minimal
    solution both below the radial turning point (n < w/4) and inside the
    centrifugal window (n < m^2/(4w)), so the forward recurrence may only
    start above both.
    """
    radial = 0.9 * w
    centrifugal = 0.28 * m * m / w if w > 0.0 else 0.0
    return math.ceil(max(radial, centrifugal)) + 2


def re_u_neg(n: int, m: int, w: float) -> LogScaled:
    """Re[U(n+1, 1-m, -w)], the branch-cut average, for w > 0 and integer m >= 0.

    Large n is reached by anchoring the logarithmic series past the
    recurrence turning points and carrying the value up with the shared
    three-term recurrence.
    """
    n = _check_int(n, "n")
    m = _check_int(m, "m")
    if n < 0 or m < 0:
        raise DomainError(f"re_u_neg needs n >= 0 and m >= 0, got n={n}, m={m}")
    if not (w > 0.0) or not math.isfinite(w):
        raise DomainError(f"re_u_neg needs w > 0, got {w}")
    if n <= _DIRECT_N:
        return _reu_direct(n, m, w)
    n_anchor = min(n - 1, max(0, _anchor_index(m, w)))
    v0 = _reu_direct(n_anchor, m, w)
    v1 = _reu_direct(n_anchor + 1, m, w)
    # W_j = (j+m)! * V_j obeys the Laguerre recurrence; run it in scaled floats
    l0 = v0.logmag + math.lgamma(n_anchor + m + 1.0) if not v0.is_zero() else -math.inf
    l1 = v1.logmag + math.lgamma(n_anchor + m + 2.0) if not v1.is_zero() else -math.inf
    ls = max(l0, l1)
    lp = v0.sign * math.exp(l0 - ls)
    lc = v1.sign * math.exp(l1 - ls)
    for j in range(n_anchor + 2, n + 1):
        lp, lc = lc, ((2 * j - 1 + m - w) * lc - (j - 1 + m) * lp) / j
        a = abs(lp) + abs(lc)
        if a > _RENORM_HI or (0.0 < a < _RENORM_LO):
            lp /= a
            lc /= a
            ls += math.log(a)
    if lc == 0.0:
        return ZERO
    return LogScaled.from_log(
        1 if lc > 0 else -1,
        math.log(abs(lc)) + ls - math.lgamma(n + m + 1.0),
    )


def _u_pos_direct(a: int, m: int, x: float) -> LogScaled:
    """U(a, 1-m, x) for x > 0 by the integer-b logarithmic series.

    Intended for the small-a*x region where the series terms stay bounded;
    escalates to mpmath if a double pass cancels badly.
    """
    A = a + m
    lnx = math.log(x)
    mv, t, mmax, r = 0.0, 1.0, 1.0, 0
    while True:
        mv += t
        t *= (A + r) * x / ((m + 1 + r) * (r + 1.0))
        mmax = max(mmax, abs(t))
        r += 1
        if r > 3 and abs(t) < 1e-19 * max(abs(mv), 1e-280):
            break
        if not math.isfinite(mv) or r > 500_000:
            mv = math.nan
            break
    br = EULER_GAMMA
    for i in range(m + 1, A):
        br += 1.0 / i
    s, t, smax, r = 0.0, 1.0, 0.0, 0
    while math.isfinite(mv):
        contrib = t * br
        s += contrib
        smax = max(smax, abs(contrib))
        t *= (A + r) * x / ((m + 1 + r) * (r + 1.0))
        br += 1.0 / (A + r) - 1.0 / (1 + r) - 1.0 / (m + 1 + r)
        r += 1
        if r > 4 and abs(t) * (abs(br) + 1.0) < 1e-19 * max(abs(s), 1e-280):
            break
        if not math.isfinite(s) or r > 500_000:
            mv = math.nan
            break
    if math.isfinite(mv) and math.isfinite(s):
        pref_log = m * lnx - math.lgamma(m + 1.0) - math.lgamma(a + 0.0)
        sgn = (-1) ** (m + 1)
        p1 = ZERO
        if mv != 0.0 and lnx != 0.0:
            p1 = LogScaled.from_log(
                sgn * (1 if (mv > 0) == (lnx > 0) else -1),
                pref_log + math.log(abs(mv)) + math.log(abs(lnx)),
            )
        p2 = ZERO
        if s != 0.0:
            p2 = LogScaled.from_log(sgn * (1 if s > 0 else -1), pref_log + math.log(abs(s)))
        p3 = ZERO
        t3max = -math.inf
        for r in range(m):
            tl = (
                math.lgamma(a + 0.0 + r)
                - math.lgamma(a + 0.0)
                + math.lgamma(m - r + 0.0)
                - math.lgamma(A + 0.0)
                - math.lgamma(r + 1.0)
                + r * lnx
            )
            t3max = max(t3max, tl)
            p3 = p3 + LogScaled.from_log((-1) ** r, tl)
        val = p1 + p2 + p3
        max_piece_log = max(
            pref_log + math.log(max(mmax, 1e-300)) + math.log(max(abs(lnx), 1e-300)),
            pref_log + math.log(max(smax, 1e-300)),
            t3max,
        )
        if _lost_digits(max_piece_log, val) <= _MAX_LOST_DIGITS:
            return val
    # rare: fall back to high precision through the same series
    def attempt(prec):
        with mp.workdps(prec):
            x_ = mp.mpf(x)
            lnx_ = mp.log(x_)
            mv_, t_ = mp.mpf(0), mp.mpf(1)
            r_ = 0
            while True:
                mv_ += t_
                t_ *= (A + r_) * x_ / ((m + 1 + r_) * (r_ + 1))
                r_ += 1
                if r_ > 3 and abs(t_) < mp.mpf(10) ** (-prec - 8) * abs(mv_):
                    break
            br_ = mp.euler + mp.harmonic(A - 1) - mp.harmonic(m)
            s_, t_, r_ = mp.mpf(0), mp.mpf(1), 0
            mx_s = -(10**9)
            while True:
                contrib = t_ * br_
                s_ += contrib
                if contrib:
                    mx_s = max(mx_s, mp.mag(contrib))
                t_ *= (A + r_) * x_ / ((m + 1 + r_) * (r_ + 1))
                br_ += mp.mpf(1) / (A + r_) - mp.mpf(1) / (1 + r_) - mp.mpf(1) / (m + 1 + r_)
                r_ += 1
                if r_ > 4 and abs(t_) * (abs(br_) + 1) < mp.mpf(10) ** (-prec - 8) * abs(s_):
                    break
            t3_ = mp.mpf(0)
            if m >= 1:
                term = mp.gamma(m) / mp.gamma(A)
                for rr in range(m):
                    t3_ += term
                    if rr < m - 1:
                        term *= (a + rr) * (-x_) / ((m - 1 - rr) * (rr + 1))
            pref = (-1) ** (m + 1) * x_**m / (mp.factorial(m) * mp.factorial(a - 1))
            val_ = pref * (mv_ * lnx_ + s_) + t3_
            mx = mp.mag(pref) + mx_s
            for piece in (pref * mv_ * lnx_, pref * s_, t3_):
                if piece:
                    mx = max(mx, mp.mag(piece))
            if val_ == 0:
                return 0, 0.0, prec * 3.4
            return int(mp.sign(val_)), float(mp.log(abs(val_))), (mx - mp.mag(val_)) / 3.32

    dps = 30
    for _ in range(5):
        sign, logmag, lost = attempt(dps)
        if dps - lost >= 17:
            return LogScaled.from_log(sign, logmag) if sign else ZERO
        dps = int(lost) + 26
    raise ConvergenceError(f"U series failed to stabilize for a={a}, m={m}, x={x}")


def _u_ratio_1m(a: int, m: int, x: float) -> float:
    """U(a+1,1-m,x)/U(a,1-m,x) with a series/continued-fraction dispatch.

    The continued fraction converges slowly as x -> 0, precisely where the
    logarithmic series is cheap and cancellation-free, so small a*x routes
    through the series.
    """
    if (a + m + 1) * x <= 4.0:
        return (_u_pos_direct(a + 1, m, x) / _u_pos_direct(a, m, x)).to_float()
    return _u_cf(a, 1 - m, x)


def _u_ratio_1m_grid(a: int, m: int, x: np.ndarray) -> np.ndarray:
    """_u_ratio_1m on an array of x with the same series/CF dispatch per lane.

    Series lanes stay scalar; the continued-fraction lanes run batched.
    """
    series = (a + m + 1) * x <= 4.0
    out = np.empty_like(x)
    out[~series] = _u_cf_grid(a, 1 - m, x[~series])
    for i in np.flatnonzero(series):
        out[i] = _u_ratio_1m(a, m, float(x[i]))
    return out


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------

_BESSEL = {"J": special.jv, "Y": special.yv, "I": special.iv, "K": special.kv}


def bessel(kind: str, m: int, x: float) -> float:
    """Cylinder function J/Y/I/K of integer order m >= 0 at x."""
    if kind not in _BESSEL:
        raise DomainError(f"kind must be one of J, Y, I, K, got {kind!r}")
    m = _check_int(m, "m")
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    if kind in ("Y", "K"):
        if not (x > 0.0):
            raise DomainError(f"{kind}_m needs x > 0, got {x}")
    elif x < 0.0:
        raise DomainError(f"{kind}_m needs x >= 0, got {x}")
    return float(_BESSEL[kind](m, x))


def bessel_deriv(kind: str, m: int, x: float) -> float:
    """d/dx of the cylinder function, via C'_m = C_{m-1} - (m/x) C_m.

    K flips the first term: K'_m = -K_{m-1} - (m/x) K_m.
    """
    if kind not in _BESSEL:
        raise DomainError(f"kind must be one of J, Y, I, K, got {kind!r}")
    m = _check_int(m, "m")
    if not (x > 0.0):
        raise DomainError(f"derivative recurrence needs x > 0, got {x}")
    fn = _BESSEL[kind]
    lead = -fn(m - 1, x) if kind == "K" else fn(m - 1, x)
    return float(lead - (m / x) * fn(m, x))


# ---------------------------------------------------------------------------
# quadrature oracle for the Hankel-type integrals
# ---------------------------------------------------------------------------

def _integrand_support(p: int):
    """Peak log-height and cutoff radius of r^p e^{-r^2}."""
    rpk = math.sqrt(p / 2.0) if p > 0 else 1e-3
    fpk = p * math.log(rpk) - rpk * rpk if p > 0 else 0.0
    rmax = max(rpk, 1.0)
    while p * math.log(rmax) - rmax * rmax > fpk - 46.0:
        rmax += 0.25
    return rpk, fpk, rmax


def _hankel_quad(n: int, m: int, kind: str, s: float) -> tuple[float, float]:
    """Quadrature of int_0^inf r^{2n+m+1} e^{-r^2} C_m(s r) dr.

    Returns (value_scaled, log_scale): true value = value_scaled * e^{log_scale}.
    Panels are split at the zeros of the oscillatory kinds.
    """
    p = 2 * n + m + 1
    _, fpk, rmax = _integrand_support(p)
    fn = _BESSEL[kind]

    def f(r):
        if r <= 0.0:
            return 0.0
        return math.exp(p * math.log(r) - r * r - fpk) * fn(m, s * r)

    points = None
    if kind in ("J", "Y"):
        count = int(s * rmax / math.pi) + m + 6
        zeros = special.jn_zeros(m, count) if kind == "J" else special.yn_zeros(m, count)
        points = [z / s for z in zeros if z / s < rmax]
        if not points:
            points = None
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(
                f,
                0.0,
                rmax,
                points=points,
                limit=80 + 4 * (len(points) if points else 0),
                epsabs=1e-13,
                epsrel=1e-12,
            )
        except integrate.IntegrationWarning as exc:
            raise ConvergenceError(
                f"Hankel-integral quadrature failed for n={n}, m={m}, kind={kind}, "
                f"s={s}: {exc}"
            ) from exc
    return val, fpk


def hankel_integral_oracle(n: int, m: int, kind: str, s: float) -> float:
    """Adaptive quadrature of int_0^inf r^{2n+m+1} e^{-r^2} C_m(s r) dr.

    Exists purely as an independent check of the closed forms; n + m is
    capped so the plain-float result stays representable.
    """
    n = _check_int(n, "n")
    m = _check_int(m, "m")
    if kind not in _BESSEL:
        raise DomainError(f"kind must be one of J, Y, I, K, got {kind!r}")
    if n < 0 or m < 0:
        raise DomainError(f"oracle needs n >= 0 and m >= 0, got n={n}, m={m}")
    if not (s > 0.0):
        raise DomainError(f"oracle needs s > 0, got {s}")
    if n + m > 64:
        raise DomainError(
            f"oracle quadrature is restricted to n + m <= 64, got {n + m}"
        )
    val, log_scale = _hankel_quad(n, m, kind, s)
    return val * math.exp(log_scale)


def hankel_integral_scaled(n: int, m: int, kind: str, s: float) -> LogScaled:
    """Log-scaled variant of the quadrature oracle, usable at large n."""
    n = _check_int(n, "n")
    m = _check_int(m, "m")
    if kind not in _BESSEL:
        raise DomainError(f"kind must be one of J, Y, I, K, got {kind!r}")
    if n < 0 or m < 0 or not (s > 0.0):
        raise DomainError("hankel_integral_scaled needs n, m >= 0 and s > 0")
    val, log_scale = _hankel_quad(n, m, kind, s)
    if val == 0.0:
        return ZERO
    return LogScaled.from_log(1 if val > 0 else -1, math.log(abs(val)) + log_scale)


# ---------------------------------------------------------------------------
# closed forms the oracle checks (shared with tests and the selftest hook)
# ---------------------------------------------------------------------------

def j_integral_closed(n: int, m: int, s: float) -> LogScaled:
    """(n!/2) e^{-w} w^{m/2} L^m_n(w) with w = s^2/4."""
    w = 0.25 * s * s
    pref = ls_exp(math.lgamma(n + 1.0) - math.log(2.0) - w + 0.5 * m * math.log(w))
    return pref * laguerre(n, m, w)


def y_integral_closed(n: int, m: int, s: float) -> LogScaled:
    """-(w^{-m/2}/2pi) (n+m)! n! Re[U(n+1,1-m,-w)] with w = s^2/4."""
    w = 0.25 * s * s
    pref = ls_exp(
        -0.5 * m * math.log(w)
        - math.log(2.0 * math.pi)
        + math.lgamma(n + m + 1.0)
        + math.lgamma(n + 1.0),
        sign=-1,
    )
    return pref * re_u_neg(n, m, w)


def i_integral_closed(n: int, m: int, s: float) -> LogScaled:
    """(n!/2) e^{w} w^{m/2} L^m_n(-w) with w = s^2/4."""
    w = 0.25 * s * s
    pref = ls_exp(math.lgamma(n + 1.0) - math.log(2.0) + w + 0.5 * m * math.log(w))
    return pref * laguerre(n, m, -w)


def k_integral_closed(n: int, m: int, s: float) -> LogScaled:
    """(1/4) n! (n+m)! w^{-m/2} U(n+1,1-m,w) with w = s^2/4."""
    w = 0.25 * s * s
    pref = ls_exp(
        math.lgamma(n + 1.0)
        + math.lgamma(n + m + 1.0)
        - math.log(4.0)
        - 0.5 * m * math.log(w)
    )
    return pref * kummer_u(n + 1, 1 - m, w)


_CLOSED_FORMS = {
    "J": j_integral_closed,
    "Y": y_integral_closed,
    "I": i_integral_closed,
    "K": k_integral_closed,
}


def _rel_diff_ls(a: LogScaled, b: LogScaled) -> float:
    if a.is_zero() and b.is_zero():
        return 0.0
    denom = abs(b) if not b.is_zero() else abs(a)
    return abs(a - b).to_float() / denom.to_float() if denom.to_float() != 0 else math.inf


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def selftest(fast: bool = True) -> list[CheckResult]:
    """Oracle-equivalence suites: closed forms against the quadrature oracle.

    Returns one result per suite; the CLI selftest command prints them.
    """
    results = []

    def run(name, pairs, tol):
        worst = 0.0
        worst_at = None
        for (n, m, kind, s) in pairs:
            got = _CLOSED_FORMS[kind](n, m, s)
            ref = hankel_integral_scaled(n, m, kind, s)
            rel = _rel_diff_ls(got, ref)
            if rel > worst:
                worst, worst_at = rel, (n, m, kind, s)
        results.append(
            CheckResult(name, worst <= tol, f"worst rel {worst:.3e} at {worst_at} (tol {tol:g})")
        )

    ns_j = (0, 2, 7, 20, 40) if fast else tuple(range(0, 41, 2))
    run(
        "J-integral closed form vs quadrature",
        [(n, m, "J", s) for n in ns_j for m in (0, 3, 8) for s in (0.3, 1.0, 3.0)],
        1e-8,
    )
    ns_y = (0, 3, 10, 20) if fast else tuple(range(0, 21))
    run(
        "Y-integral closed form vs quadrature",
        [
            (n, m, "Y", 2.0 * math.sqrt(w))
            for n in ns_y
            for m in (0, 2, 6)
            for w in (0.05, 0.5, 3.0, 10.0)
        ],
        1e-6,
    )
    run(
        "I-integral closed form vs quadrature",
        [(n, m, "I", s) for n in (0, 4, 10) for m in (0, 2) for s in (0.7, 2.0)],
        1e-8,
    )
    run(
        "K-integral closed form vs quadrature",
        [(n, m, "K", s) for n in (0, 3, 10) for m in (0, 2) for s in (0.7, 2.0)],
        1e-8,
    )

    # Kummer transform: U(a,1-m,x) == x^m U(a+m,1+m,x); right side evaluated
    # independently through the anchor/continued-fraction route at b = 1+m
    worst = 0.0
    worst_at = None
    for (a, m, x) in [(3, 0, 1.0), (5, 2, 0.8), (11, 0, 20.0 / 7.0), (8, 4, 2.5), (20, 1, 5.0)]:
        left = kummer_u(a, 1 - m, x)
        right = ls_exp(m * math.log(x)) * _u_abs_anchor_product(a + m, 1 + m, x)
        rel = _rel_diff_ls(left, right)
        if rel > worst:
            worst, worst_at = rel, (a, m, x)
    results.append(
        CheckResult(
            "Kummer transform consistency",
            worst <= 1e-10,
            f"worst rel {worst:.3e} at {worst_at} (tol 1e-10)",
        )
    )

    # ratio consistency: CF against series across the dispatch boundary
    worst = 0.0
    worst_at = None
    for (a, m, x) in [(10, 0, 0.2), (10, 2, 0.3), (50, 1, 0.06), (30, 4, 0.1)]:
        cf = _u_cf(a, 1 - m, x)
        ser = (_u_pos_direct(a + 1, m, x) / _u_pos_direct(a, m, x)).to_float()
        rel = abs(cf - ser) / abs(ser)
        if rel > worst:
            worst, worst_at = rel, (a, m, x)
    results.append(
        CheckResult(
            "U-ratio series vs continued fraction",
            worst <= 1e-11,
            f"worst rel {worst:.3e} at {worst_at} (tol 1e-11)",
        )
    )

    # Wronskian of J and Y
    worst = 0.0
    for m in (0, 1, 5):
        for x in (0.3, 2.0, 11.0):
            lhs = bessel("J", m + 1, x) * bessel("Y", m, x) - bessel("J", m, x) * bessel("Y", m + 1, x)
            rel = abs(lhs - 2.0 / (math.pi * x)) / (2.0 / (math.pi * x))
            worst = max(worst, rel)
    results.append(
        CheckResult("J/Y cross-product identity", worst <= 1e-12, f"worst rel {worst:.3e} (tol 1e-12)")
    )

    return results
