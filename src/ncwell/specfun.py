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

def _recurrence_rows(m: int, w: float, j0: int, lp: float, lc: float, ls: float, targets):
    """Run j y_j = (2j-1+m-w) y_{j-1} - (j-1+m) y_{j-2} upward from row j0.

    (lp, lc) are rows j0-2 and j0-1 as mantissas at the common log scale ls;
    the pair is renormalized whenever it leaves [1e-250, 1e250].  L^m_n(w)
    and the scaled cut values (n+m)! Re[U(n+1,1-m,-w)] both obey this
    recurrence.  Returns {j: (mantissa, log_scale)} for the targets >= j0.
    """
    out = {}
    j = j0
    # run up to each target in turn, so the steps test no membership
    for target in sorted(t for t in targets if t >= j0):
        for j in range(j, target + 1):
            lp, lc = lc, ((2 * j - 1 + m - w) * lc - (j - 1 + m) * lp) / j
            a = abs(lp) + abs(lc)
            if a > _RENORM_HI or (0.0 < a < _RENORM_LO):
                lp /= a
                lc /= a
                ls += math.log(a)
        out[target] = (lc, ls)
        j = target + 1
    return out


def _laguerre_sweep(m: int, w: float, targets):
    """Forward recurrence for L^m_n(w), m >= 0; returns {n: (mantissa, log_scale)}."""
    lp, lc = 1.0, 1.0 + m - w
    out = _recurrence_rows(m, w, 2, lp, lc, 0.0, targets)
    if 0 in targets:
        out[0] = (lp, 0.0)
    if 1 in targets:
        out[1] = (lc, 0.0)
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


def _ls_from_sweep(mant: float, scale: float, log_div: float = 0.0) -> LogScaled:
    """LogScaled value of a sweep row stored as (mantissa, log scale), over e^log_div."""
    if mant == 0.0:
        return ZERO
    return LogScaled.from_log(1 if mant > 0 else -1, math.log(abs(mant)) + scale - log_div)


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


def _check_u_args(a, b, x, what: str) -> tuple[int, int]:
    """(a, b) as ints; U needs integer a >= 1, integer b <= 1 and finite x > 0."""
    a = _check_int(a, "a")
    b = _check_int(b, "b")
    if a < 1:
        raise DomainError(f"first parameter a must be a positive integer, got {a}")
    if b > 1:
        raise DomainError(f"second parameter b must be <= 1, got {b}")
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"{what} needs x > 0, got {x}")
    return a, b


def kummer_u_ratio(a: int, b: int, x: float, max_iter: int = 200_000) -> float:
    """U(a+1,b,x) / U(a,b,x) for x > 0, integer b <= 1, integer a >= 1."""
    a, b = _check_u_args(a, b, x, "U ratio")
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
    a, b = _check_u_args(a, b, x, "kummer_u")
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


_SERIES_FAILED = (None, math.inf, None)


def _log_series_float(a: int, m: int, z: float):
    """Double-precision integer-b log series for U(a, 1-m, z) (DLMF 13.2.9).

    z > 0 is the positive axis.  z = -w < 0 is the branch cut, where ln z is
    read as ln w, so the value is Re[U(a, 1-m, -w)].  The sign of z picks
    the M factor (the convergent series for z > 0, Kummer's finite form
    e^z M(1-a, m+1, -z) on the cut) and the signs of the prefactor and of
    the tail terms; the digamma-weighted series and the combination are
    shared.  Returns (value, max_piece_log, t_piece_log), or (None, inf,
    None) on overflow; t_piece_log is the log magnitude of the tail piece
    (None for m = 0), which on the cut is all positive and so a cheap lower
    bound on the result scale, used to seed the escalated precision.
    """
    A = a + m
    cut = z < 0.0
    lnz = math.log(abs(z))
    if cut:
        n, w = a - 1, -z
        mv, t, mmax = 0.0, 1.0, 1.0
        for r in range(n):
            mv += t
            t *= (r - n) * w / ((m + 1 + r) * (r + 1.0))
            mmax = max(mmax, abs(t))
        mv += t
    else:
        mv, t, mmax, r = 0.0, 1.0, 1.0, 0
        while True:
            mv += t
            t *= (A + r) * z / ((m + 1 + r) * (r + 1.0))
            mmax = max(mmax, abs(t))
            r += 1
            if r > 3 and abs(t) < 1e-19 * max(abs(mv), 1e-280):
                break
            if not math.isfinite(mv) or r > 500_000:
                return _SERIES_FAILED
    if not math.isfinite(mv):
        return _SERIES_FAILED
    # digamma-weighted series
    br = EULER_GAMMA
    for i in range(m + 1, A):
        br += 1.0 / i
    s, t, smax, r = 0.0, 1.0, 0.0, 0
    while True:
        contrib = t * br
        s += contrib
        smax = max(smax, abs(contrib))
        t *= (A + r) * z / ((m + 1 + r) * (r + 1.0))
        br += 1.0 / (A + r) - 1.0 / (1 + r) - 1.0 / (m + 1 + r)
        r += 1
        if r > 4 and abs(t) * (abs(br) + 1.0) < 1e-19 * max(abs(s), 1e-280):
            break
        if not math.isfinite(s) or r > 500_000:
            return _SERIES_FAILED
    if not math.isfinite(s):
        return _SERIES_FAILED
    pref_log = m * lnz - math.lgamma(m + 1.0) - math.lgamma(a + 0.0)
    # the cut's M factor carries e^z; the prefactor is -1 on the cut and
    # (-1)^(m+1) on the positive axis, where the tail terms alternate
    m_log = pref_log + z if cut else pref_log
    sgn = -1 if cut else (-1) ** (m + 1)
    tail_sgn = 1 if cut else -1
    # piece 1: pref * M * ln z
    p1 = ZERO
    if mv != 0.0 and lnz != 0.0:
        p1 = LogScaled.from_log(
            sgn * (1 if (mv > 0) == (lnz > 0) else -1),
            m_log + math.log(abs(mv)) + math.log(abs(lnz)),
        )
    # piece 2: pref * S
    p2 = ZERO
    if s != 0.0:
        p2 = LogScaled.from_log(sgn * (1 if s > 0 else -1), pref_log + math.log(abs(s)))
    # piece 3: sum_{r<m} (+-1)^r (a)_r (m-1-r)! |z|^r / (A-1)! / r!
    p3 = ZERO
    t3max = -math.inf
    for r in range(m):
        tl = (
            math.lgamma(a + 0.0 + r)
            - math.lgamma(a + 0.0)
            + math.lgamma(m - r + 0.0)
            - math.lgamma(A + 0.0)
            - math.lgamma(r + 1.0)
            + r * lnz
        )
        t3max = max(t3max, tl)
        p3 = p3 + LogScaled.from_log(tail_sgn**r, tl)
    result = p1 + p2 + p3
    max_piece_log = max(
        m_log + math.log(max(mmax, 1e-300)) + math.log(max(abs(lnz), 1e-300)),
        pref_log + math.log(max(smax, 1e-300)),
        t3max,
    )
    t_piece_log = p3.logmag if p3.sign else None
    return result, max_piece_log, t_piece_log


def _reu_pieces_float(n: int, m: int, w: float):
    """Double-precision pass for Re[U(n+1,1-m,-w)]; see _log_series_float."""
    return _log_series_float(n + 1, m, -w)


def _log_series_mp(a: int, m: int, z: float, dps: int, failure: str) -> LogScaled:
    """_log_series_float in arbitrary precision, starting at dps digits.

    The series is exact, so the only error is roundoff amplified by the
    cancellation between its pieces; each pass measures that amplification
    directly (largest term magnitude vs result magnitude) and escalates the
    working precision in one step when too few digits survive.  Raises
    ConvergenceError(failure) when five passes do not stabilize.
    """
    cut = z < 0.0

    def attempt(prec):
        with mp.workdps(prec):
            A = a + m
            z_ = mp.mpf(z)
            mz, lnz = -z_, mp.log(abs(z_))
            tol, tiny = mp.mpf(10) ** (-prec - 8), mp.mpf(10) ** -9999
            if cut:
                n = a - 1
                mv, t = mp.mpf(0), mp.mpf(1)
                mx_mv = 0
                for r in range(n + 1):
                    mv += t
                    if t:
                        mx_mv = max(mx_mv, mp.mag(t))
                    t *= (r - n) * mz / ((m + 1 + r) * (r + 1))
            else:
                mv, t, r = mp.mpf(0), mp.mpf(1), 0
                while True:
                    mv += t
                    t *= (A + r) * z_ / ((m + 1 + r) * (r + 1))
                    r += 1
                    if r > 3 and abs(t) < tol * abs(mv):
                        break
            br = mp.euler + mp.harmonic(A - 1) - mp.harmonic(m)
            s, t, r = mp.mpf(0), mp.mpf(1), 0
            mx_s = -(10**9)
            while True:
                contrib = t * br
                s += contrib
                if contrib:
                    mx_s = max(mx_s, mp.mag(contrib))
                t *= (A + r) * z_ / ((m + 1 + r) * (r + 1))
                br += mp.mpf(1) / (A + r) - mp.mpf(1) / (1 + r) - mp.mpf(1) / (m + 1 + r)
                r += 1
                if r > 4 and abs(t) * (abs(br) + 1) < tol * max(abs(s), tiny):
                    break
                if r > 2_000_000:
                    raise ConvergenceError("integer-b log series stalled in mp pass")
            # tail sum, incremental terms
            t3 = mp.mpf(0)
            if m >= 1:
                term = mp.gamma(m) / mp.gamma(A)
                for r in range(m):
                    t3 += term
                    if r < m - 1:
                        term *= (a + r) * mz / ((m - 1 - r) * (r + 1))
            pref = abs(z_)**m / (mp.factorial(m) * mp.factorial(a - 1))
            if cut:
                p1 = -pref * mp.e**z_ * mv * lnz
                p2 = -pref * s
                val = p1 + p2 + t3
                # largest intermediate at the overall scale bounds the roundoff
                mx = mp.mag(pref) + max(mx_s, mx_mv - int(-z * 1.4427))
            else:
                pref = (-1) ** (m + 1) * pref
                p1, p2 = pref * mv * lnz, pref * s
                val = pref * (mv * lnz + s) + t3
                mx = mp.mag(pref) + mx_s
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
    raise ConvergenceError(failure)


def _reu_direct_mp(n: int, m: int, w: float, dps: int) -> LogScaled:
    """Re[U(n+1,1-m,-w)] by the cut series in arbitrary precision."""
    failure = f"cut series failed to stabilize for n={n}, m={m}, w={w}"
    return _log_series_mp(n + 1, m, -w, dps, failure)


def _reu_direct(n: int, m: int, w: float) -> LogScaled:
    val, max_piece_log, t_piece_log = _reu_pieces_float(n, m, w)
    lost = _lost_digits(max_piece_log, val) if val is not None else math.inf
    if lost <= _MAX_LOST_DIGITS:
        return val
    if val is None or val.is_zero():
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


def _reu_rows(m: int, w: float, n: int, count: int) -> list[LogScaled]:
    """Re[U(j+1, 1-m, -w)] at rows j = n .. n+count-1, from one pass.

    Rows up to _DIRECT_N come from the series.  Higher rows anchor the
    series at two rows past the recurrence turning points and carry
    W_j = (j+m)! Re[U(j+1,1-m,-w)] up with the shared three-term recurrence.
    """
    top = n + count - 1
    if top <= _DIRECT_N:
        return [_reu_direct(j, m, w) for j in range(n, top + 1)]
    n_anchor = min(n - 1, max(0, _anchor_index(m, w)))
    v0 = _reu_direct(n_anchor, m, w)
    v1 = _reu_direct(n_anchor + 1, m, w)
    l0 = v0.logmag + math.lgamma(n_anchor + m + 1.0) if not v0.is_zero() else -math.inf
    l1 = v1.logmag + math.lgamma(n_anchor + m + 2.0) if not v1.is_zero() else -math.inf
    ls = max(l0, l1)
    lp = v0.sign * math.exp(l0 - ls)
    lc = v1.sign * math.exp(l1 - ls)
    rows = _recurrence_rows(m, w, n_anchor + 2, lp, lc, ls, range(n, top + 1))
    if n == n_anchor + 1:
        rows[n] = (lc, ls)  # the upper anchor row itself
    return [_ls_from_sweep(*rows[j], math.lgamma(j + m + 1.0)) for j in range(n, top + 1)]


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
    return _reu_rows(m, w, n, 1)[0]


def _u_pos_direct(a: int, m: int, x: float) -> LogScaled:
    """U(a, 1-m, x) for x > 0 by the integer-b logarithmic series.

    Intended for the small-a*x region where the series terms stay bounded;
    escalates to mpmath if a double pass cancels badly.
    """
    val, max_piece_log, _ = _log_series_float(a, m, x)
    if val is not None and _lost_digits(max_piece_log, val) <= _MAX_LOST_DIGITS:
        return val
    # rare: fall back to high precision through the same series
    return _log_series_mp(a, m, x, 30, f"U series failed to stabilize for a={a}, m={m}, x={x}")


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

    def run(name, cases, rel_of, tol):
        worst = 0.0
        worst_at = None
        for case in cases:
            rel = rel_of(*case)
            if rel > worst:
                worst, worst_at = rel, case
        results.append(
            CheckResult(name, worst <= tol, f"worst rel {worst:.3e} at {worst_at} (tol {tol:g})")
        )

    def closed_vs_quad(n, m, kind, s):
        return _rel_diff_ls(_CLOSED_FORMS[kind](n, m, s), hankel_integral_scaled(n, m, kind, s))

    ns_j = (0, 2, 7, 20, 40) if fast else tuple(range(0, 41, 2))
    run(
        "J-integral closed form vs quadrature",
        [(n, m, "J", s) for n in ns_j for m in (0, 3, 8) for s in (0.3, 1.0, 3.0)],
        closed_vs_quad,
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
        closed_vs_quad,
        1e-6,
    )
    run(
        "I-integral closed form vs quadrature",
        [(n, m, "I", s) for n in (0, 4, 10) for m in (0, 2) for s in (0.7, 2.0)],
        closed_vs_quad,
        1e-8,
    )
    run(
        "K-integral closed form vs quadrature",
        [(n, m, "K", s) for n in (0, 3, 10) for m in (0, 2) for s in (0.7, 2.0)],
        closed_vs_quad,
        1e-8,
    )

    # Kummer transform: U(a,1-m,x) == x^m U(a+m,1+m,x); right side evaluated
    # independently through the anchor/continued-fraction route at b = 1+m
    def kummer_transform(a, m, x):
        right = ls_exp(m * math.log(x)) * _u_abs_anchor_product(a + m, 1 + m, x)
        return _rel_diff_ls(kummer_u(a, 1 - m, x), right)

    run(
        "Kummer transform consistency",
        [(3, 0, 1.0), (5, 2, 0.8), (11, 0, 20.0 / 7.0), (8, 4, 2.5), (20, 1, 5.0)],
        kummer_transform,
        1e-10,
    )

    # ratio consistency: CF against series across the dispatch boundary
    def ratio_cf_vs_series(a, m, x):
        ser = (_u_pos_direct(a + 1, m, x) / _u_pos_direct(a, m, x)).to_float()
        return abs(_u_cf(a, 1 - m, x) - ser) / abs(ser)

    run(
        "U-ratio series vs continued fraction",
        [(10, 0, 0.2), (10, 2, 0.3), (50, 1, 0.06), (30, 4, 0.1)],
        ratio_cf_vs_series,
        1e-11,
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
