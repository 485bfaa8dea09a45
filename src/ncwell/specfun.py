"""Special functions backing the Fock-basis matrix elements of the well.

The radial matrix elements mix three ingredient families:

* generalized Laguerre polynomials L^m_n(w), evaluated by forward
  three-term recurrence with per-step renormalization (stable here because
  the arguments of interest sit in the oscillatory range w < 4n, and the
  renormalization keeps intermediates in float range for n ~ 2000),
* the Tricomi function U(a, b, x) for positive argument and integer b <= 1,
  via the integer-b logarithmic series for |U| and a series/quadrature seam
  for first-parameter ratios,
* Re[U(n+1, 1-m, -w)], the real part across the branch cut on the negative
  axis, via the integer-b logarithmic series with ln(-w) -> ln(w).  The
  series is exact but cancels catastrophically when (n+m+1)*w is large, so
  the evaluation escalates its working precision when a double-precision
  pass is detected to have lost too many digits.  That pass sums the three
  pieces of the series as floats relative to their shared prefactor, so
  a kept pass is off by float roundoff times the measured cancellation.
  The escalated pass is the same combination in fixed-point integers, with
  mpmath left for the constants and the final log.
  For large n the value is instead propagated by the same three-term
  recurrence that the Laguerre branch obeys: W_n = (n+m)! *
  Re[U(n+1, 1-m, -w)] satisfies (n+1) W_{n+1} = (2n+1+m-w) W_n - (n+m) W_{n-1}.

An adaptive quadrature of the defining Hankel-type integrals is provided as
an independent oracle for all of the closed forms above.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .logscale import LogScaled, ZERO, log_to_float, ls_exp

EULER_GAMMA = 0.5772156649015328606

# the zero of a (sign, log magnitude) pair, the value format below the public functions
_ZERO_PAIR = (0, 0.0)

# direct-series evaluation is used up to this index; beyond it the value is
# anchored low and carried up by recurrence
_DIRECT_N = 64

# escalate to mpmath when a double pass lost more than this many digits
_MAX_LOST_DIGITS = 3.5

# guard bits of the fixed-point pieces of _log_series_mp, and the most terms
# its digamma-weighted series may run before it raises ConvergenceError
_GUARD_BITS = 40
_MP_MAX_TERMS = 2_000_000

_RENORM_HI = 1e250
_RENORM_LO = 1e-250
_LOG_HI, _LOG_LO = math.log(_RENORM_HI), math.log(_RENORM_LO)

# the lane kernels run their lanes in blocks: _recurrence_rows_grid
# _REC_BLOCK steps at a time and _cut_series_grid's digamma series
# _SERIES_BLOCK iterations, fewer when the lanes times the steps would pass
# _BLOCK_CELLS, which also caps a block of _cut_m_sum's lanes times terms
# (up to _REC_BLOCK terms) and _u_ratio_1m_grid's quadrature lanes times
# nodes: with 64 kB block buffers a bound-spectrum pass peaks within 0.2 MB
# of an unblocked pass, with 128 kB 0.6 MB above it
_REC_BLOCK = 64
_SERIES_BLOCK = 32
# a _recurrence_rows_grid call of _REC_SCALAR_LANES or fewer runs each lane on
# _recurrence_rows (Python 3.11, numpy 2.4, 2-core host: a Laguerre sweep of 6
# lanes took 0.92-0.98x the lane time at N = 10^3 and 10^4, of 8 lanes
# 1.26-1.30x)
_REC_SCALAR_LANES = 6
_BLOCK_CELLS = 8_192


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
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
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
    recurrence.  Returns {j: (mantissa, log_scale)} for the targets, each
    >= j0 - 2 (a target below j0 is one of the two start rows).
    """
    out = {}
    j = j0
    # run up to each target in turn, so the steps test no membership
    for target in sorted(targets):
        for j in range(j, target + 1):
            lp, lc = lc, ((2 * j - 1 + m - w) * lc - (j - 1 + m) * lp) / j
            a = abs(lp) + abs(lc)
            if a > _RENORM_HI or (0.0 < a < _RENORM_LO):
                lp /= a
                lc /= a
                ls += math.log(a)
        out[target] = (lc if target >= j0 - 1 else lp, ls)
        j = max(j, target + 1)
    return out


def _room(a: np.ndarray) -> np.ndarray:
    """Log of the growth or shrinkage a pair sum a may take and stay in [1e-250, 1e250].

    A margin of 1 covers the rounding of the steps and of a.  A sum of 0 or
    NaN is never renormalized (the recurrence keeps it 0 or NaN), so its
    room is inf; a sum outside the range has negative room.
    """
    pos = a > 0.0
    return np.where(pos, min(_LOG_HI, -_LOG_LO) - 1.0 - np.abs(np.log(np.where(pos, a, 1.0))), math.inf)


def _recurrence_rows_grid(m, w: np.ndarray, j0: np.ndarray, lp: np.ndarray, lc: np.ndarray,
                          ls: np.ndarray, targets, count: bool = False):
    """_recurrence_rows on numpy lanes, lane i starting at its own row j0[i].

    m is one order for every lane (an int) or an int array of per-lane
    orders.  Every running lane does the scalar arithmetic in the same order
    (2j-1+m and j-1+m are exact integers either way), and its log scale
    grows by math.log of its own renormalization factor, so each lane's
    (mantissa, log_scale) equals the scalar runner's bit for bit.  Returns
    {t: (mantissa array, log_scale array)}; a lane's entry at a target below
    its j0 - 2 is its row j0 - 2, not its row t.  A call of _REC_SCALAR_LANES
    lanes or fewer runs each lane on _recurrence_rows, which keeps that
    contract too.

    The steps run in blocks of up to _REC_BLOCK, fewer when the lanes times
    the steps would pass _BLOCK_CELLS.  A block fills its coefficient rows
    2j-1+m-w and j-1+m at once, and writes each step's row into a buffer
    that holds the block's rows last first, so the two rows a step reads
    are one slice: a step is one multiply of the stacked coefficients by
    that slice, one subtract and one divide by j (as a float).  The views
    of every step are built once per call, a short block filling the last
    of the coefficient rows and running the last of the steps.  Lanes that
    have not started run the steps on zeros; just before a lane's first
    step its two start rows are copied into the buffer, so lanes join
    mid-block.

    The renormalization test runs only on a step where a lane may have left
    [1e-250, 1e250].  A step j changes |y_{j-1}| + |y_j| by at most a factor
    1 + (2j - 1 + |m| + |w|) / min(j, j - 1 + m) either way, which does not
    grow with j, and a lane's room is the log of the change it may take
    from its start pair or its last test.  A block ends early on the first
    step where the factor at the block's first step, taken on every step
    since, could use up the room of a running or joining lane.  That step
    is tested and renormalized as the scalar does after it, so every lane
    is renormalized on the scalar's step.

    With count, every lane must start on the same row j0, and each target's
    entry gains a third array: the sign changes of each lane's rows j0 - 2
    up to t, a zero row counting as positive (renormalization keeps signs).
    They are counted once per block, from the buffer's rows, and such a call
    runs on the lanes however few they are.
    """
    targets = sorted(targets)
    if w.size <= _REC_SCALAR_LANES and not count:
        runs = [
            _recurrence_rows(*lane, targets)
            for lane in zip(np.broadcast_to(m, w.shape).tolist(), w.tolist(), j0.tolist(), lp.tolist(),
                            lc.tolist(), ls.tolist())
        ]
        return {t: (np.array([r[t][0] for r in runs]), np.array([r[t][1] for r in runs])) for t in targets}
    order = np.argsort(j0, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    starts, w, ls = j0[order], w[order], ls[order]
    lanes = starts.size
    # rows j0 - 1 and j0 - 2 of each lane, in the order a step reads them
    pairs = np.empty((2, lanes))
    lc0, lp0 = np.take(lc, order, out=pairs[0]), np.take(lp, order, out=pairs[1])
    lane_m = isinstance(m, np.ndarray)
    if lane_m:
        m = m[order].astype(float)
    begin = starts.tolist()
    if count and begin[:1] != begin[-1:]:
        raise ValueError("a counted recurrence needs every lane to start on the same row")
    out = {}

    def emit(t, row, changes=None):
        # row holds row t of the lanes started by t; a lane starting at t + 1 is at its
        # row j0 - 1, one starting later at its row j0 - 2
        k1, k2 = bisect.bisect_right(begin, t), bisect.bisect_right(begin, t + 1)
        out[t] = (np.concatenate((row[:k1], lc0[k1:k2], lp0[k2:]))[inverse], ls[inverse])
        if count:
            out[t] += (changes[inverse],)

    first = begin[0] if lanes else math.inf
    # the sign changes of each lane's rows so far: none at row j0 - 2, the start pair's at j0 - 1
    changes = ((lp0 < 0.0) != (lc0 < 0.0)).astype(int)
    for t in targets:
        if t < first:
            emit(t, lp0, changes if t == first - 1 else np.zeros_like(changes))
    if not targets or targets[-1] < first:
        return out
    last = targets[-1]
    grow = float(np.abs(m).max()) + float(np.abs(w).max()) - 1.0
    low = min(float(m.min() if lane_m else m) - 1.0, 0.0)

    def spend(j):
        # log of the factor of step j; without a bound (j - 1 + m < 1), more than any room
        lg = math.log1p((2 * j + grow) / (j + low)) if j + low >= 1.0 else math.inf
        return lg if lg < 2.0 * _LOG_HI else 2.0 * _LOG_HI

    def due(room, j, lg):
        # the first step from j on after which a lane with this room may have left the range
        return j + math.floor(max(room / lg, 0.0)) if room < math.inf else math.inf

    # the lanes starting at row gstart[h] are lanes [gb[h], gb[h + 1]), with room groom[h]
    gb = [0, *(np.flatnonzero(np.diff(starts)) + 1).tolist(), lanes]
    gstart = [begin[b] for b in gb[:-1]]
    groom = np.minimum.reduceat(_room(np.abs(lp0) + np.abs(lc0)), gb[:-1]).tolist()

    steps = max(1, min(_REC_BLOCK, _BLOCK_CELLS // lanes))
    rows = np.zeros((steps + 2, lanes))
    coef = np.empty((steps, 2, lanes))
    prod = np.empty((2, lanes))
    prod0, prod1 = prod
    # step s of a full block: its coefficient rows, the two rows it reads and the row it writes;
    # a block of size steps fills the last size coefficient rows and runs the last size views
    views = [(coef[s], rows[steps - s:steps - s + 2], rows[steps - 1 - s]) for s in range(steps)]
    ti = bisect.bisect_left(targets, first)
    room, j, g = math.inf, first, 0
    with np.errstate(all="ignore"):
        while j <= last:
            lg = spend(j)
            end = min(j + steps, last + 1) - 1
            test = due(room, j, lg)
            for h in range(g, bisect.bisect_right(gstart, end, g)):
                test = min(test, due(groom[h], gstart[h], lg))
            end = min(end, test)
            size = end - j + 1
            # exact integers as floats, so no cast runs in the loops
            block = coef[steps - size:]
            if lane_m:
                np.add(np.arange(2.0 * j - 1.0, 2 * end, 2.0)[:, None], m, out=block[:, 0])
                np.subtract(block[:, 0], w, out=block[:, 0])
                np.add(np.arange(j - 1.0, end)[:, None], m, out=block[:, 1])
            else:
                np.subtract(np.arange(2.0 * j - 1.0 + m, 2 * end + m, 2.0)[:, None], w, out=block[:, 0])
                block[:, 1] = np.arange(j - 1.0 + m, end + m)[:, None]
            # joins[s] is (a, b) when lanes [a, b) start at step s of the block, else None
            joins = [None] * size
            room -= size * lg
            while g < len(gstart) and gstart[g] <= end:
                joins[gstart[g] - j] = gb[g], gb[g + 1]
                room = min(room, groom[g] - (end - gstart[g] + 1) * lg)
                g += 1
            # rows[size + 1 - s] is row j - 2 + s; the last two rows of the previous block move up
            if j > first:
                rows[size:size + 2] = rows[:2]
            # the divisors j, j + 1, ... as exact floats
            divs = np.arange(float(j), end + 1.0).tolist()
            for (cf, read, row), div, join in zip(views[steps - size:], divs, joins):
                if join:
                    a, b = join
                    read[:, a:b] = pairs[:, a:b]
                np.multiply(cf, read, prod)
                np.subtract(prod0, prod1, row)
                np.divide(row, div, row)
            if count:
                # row end - i changes sign from row end - i - 1 at crossed[i]
                crossed = (rows[:size] < 0.0) != (rows[1:size + 1] < 0.0)
            while ti < len(targets) and targets[ti] < end:
                t = targets[ti]
                emit(t, rows[end - t], changes + np.count_nonzero(crossed[end - t:], axis=0) if count else None)
                ti += 1
            if count:
                changes = changes + np.count_nonzero(crossed, axis=0)
            if end == test:
                k = bisect.bisect_right(begin, end)
                lp, lc = rows[1, :k], rows[0, :k]
                a = np.abs(lp) + np.abs(lc)
                for i in np.flatnonzero(((a > _RENORM_HI) | (a < _RENORM_LO)) & (a > 0.0)).tolist():
                    lp[i] /= a[i]
                    lc[i] /= a[i]
                    ls[i] += math.log(a[i])
                    a[i] = abs(lp[i]) + abs(lc[i])
                room = float(_room(a).min(initial=math.inf))
            if ti < len(targets) and targets[ti] == end:
                emit(end, rows[0], changes)
                ti += 1
            j = end + 1
    return out


def _lane_rows(swept, row: np.ndarray):
    """The arrays of row[i] at each lane i (mantissa, log scale and any count), from _recurrence_rows_grid's {row: ...}."""
    out = [np.empty(row.size, a.dtype) for a in next(iter(swept.values()))]
    for t, arrays in swept.items():
        sel = row == t
        for o, a in zip(out, arrays):
            o[sel] = a[sel]
    return out


def _laguerre_start(m, w):
    """(j0, lp, lc, ls) starting the recurrence of L^m_n(w) at j0 = 2 from rows 0 and 1.

    m and w may be numpy lanes; 1.0 + m is exact, so every lane's row 1 is the scalar's.
    """
    return 2, 1.0, 1.0 + m - w, 0.0


def _laguerre_sweep(m: int, w: float, targets):
    """Forward recurrence for L^m_n(w), m >= 0; returns {n: (mantissa, log_scale)}."""
    return _recurrence_rows(m, w, *_laguerre_start(m, w), targets)


def _laguerre_sweep_grid(m, w: np.ndarray, targets, count: bool = False):
    """_laguerre_sweep on an array of arguments, one lane per w, bit for bit.

    m is one order (an int) or an int array of per-lane orders.  Returns
    {n: (mantissa array, log_scale array)}, with count also the sign changes
    of L^m_0(w), ..., L^m_n(w) at each lane.
    """
    return _recurrence_rows_grid(m, w, *np.broadcast_arrays(*_laguerre_start(m, w)), targets, count)


def _sweep_pair(mant: float, scale: float, log_div: float = 0.0) -> tuple[int, float]:
    """(sign, log magnitude) of a sweep row stored as (mantissa, log scale), over e^log_div; (0, 0.0) if zero."""
    if mant == 0.0:
        return _ZERO_PAIR
    return 1 if mant > 0 else -1, math.log(abs(mant)) + scale - log_div


def _lowering_log(n: int, k: int) -> float:
    """log((n-k)!/n!) as -log of the exact integer n!/(n-k)!, rounded once; lgamma's ulp near n = 1000 is 9e-13."""
    return -math.log(math.perm(n, k))


def _lower_order(base: tuple[int, float], lowering: float, k: int, w: float) -> tuple[int, float]:
    """L^{-k}_n(w) from base = L^k_{n-k}(w): (-w)^k ((n-k)!/n!) base, as (sign, log magnitude) pairs.

    lowering is _lowering_log(n, k), which a caller lowering many lanes of one n takes once.
    """
    if w == 0.0 or base[0] == 0:
        return _ZERO_PAIR
    # (-w)^k is negative only for w > 0 and odd k
    sign = (-1) ** k if w > 0 else 1
    return base[0] * sign, base[1] + (k * math.log(abs(w)) + lowering)


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
    k = max(-m, 0)
    if n < k:
        raise DomainError(
            f"L^m_n with m < 0 needs n >= -m, got n={n}, m={m}"
        )
    val = _sweep_pair(*_laguerre_sweep(abs(m), w, {n - k})[n - k])
    return LogScaled.from_log(*(_lower_order(val, _lowering_log(n, k), k, w) if k else val))


# ---------------------------------------------------------------------------
# Tricomi U, positive argument, integer b <= 1
# ---------------------------------------------------------------------------

def _u_quad_nodes(step: float, left: int, right: int) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoid nodes of _u_quad: (u / sigma, log cosh v) at v = step i, i = -left .. right.

    u = _UQ_SCALE sigma sinh(v); du/dv is sigma _UQ_SCALE cosh(v), whose
    constant factor cancels in the ratio.
    """
    v = step * np.arange(-left, right + 1, dtype=float)
    return _UQ_SCALE * np.sinh(v), np.log(np.cosh(v))


# _u_quad's map scale and node table: 127 nodes, v in [-4.2, 3.36].  Toward
# t = 0 the integrand falls only like e^{a u}, and at a = 1 sigma can be 0.76
# (b = 5, in the selftest's Kummer transform), so the table reaches further
# left than right.  Against 50-digit mpmath ratios at a = 1 .. 1e5, b = 1 ..
# -30 and (a+2-b) x = 1 .. 5e5, and the selftest's b = 2 .. 5 ratios, every
# ratio is within 5.9e-16 relative (4.1e-16 from (a+2-b) x = 4 up).  On 3300
# random (a, b, x) with a up to 2e5, b down to -59 and (a+2-b) x from 1 to
# 1e6, the rule on every other node is within 2.8e-9 and each end node's
# weight below 4.4e-29 of the weight sum; _UQ_HALF_TOL and _UQ_END_TOL are
# the guard's bounds on those two.  At b <= 1 the rule loses digits as
# (a+2-b) x falls (6.7e-16 off at 0.5, 5.4e-14 at 0.1, 1.6e-11 at 0.01) while
# both bounds still hold, so the guard also refuses (a+2-b) x < _UQ_MIN_ARG
# there; _u_ratio_1m's series seam keeps its lanes above 1
_UQ_SCALE = 2.0
_UQ_NODES = _u_quad_nodes(0.06, 70, 56)
_UQ_HALF_TOL = 1e-7
_UQ_END_TOL = 1e-17
_UQ_MIN_ARG = 0.5

# _u_ratio_1m takes the series quotient at (a+m+1) x <= _U_SERIES_SEAM and the
# quadrature above: from 1 to 4 the quotient is off by up to 1.2e-12 at
# a = 1001 and 3.7e-10 at a = 100001 (each U's log carries the rounding of
# lgamma(a)), the quadrature by at most 5.9e-16
_U_SERIES_SEAM = 1.0


def _u_quad(a, b, x: np.ndarray) -> np.ndarray:
    """U(a+1,b,x)/U(a,b,x) on numpy lanes x > 0, by the trapezoid rule on U's integral.

    a and b are ints shared by every lane, or int arrays with one entry per
    lane; both give each lane the same float arithmetic, so a lane equals a
    call with its own (a, b) bit for bit.

    Gamma(a) U(a,b,x) = int_0^inf e^{-xt} t^{a-1} (1+t)^{b-a-1} dt (DLMF
    13.4.4), and the same integral with t/(1+t) in it is a Gamma(a) U(a+1,b,x),
    so the ratio is (1/a) sum_i w_i t_i/(1+t_i) / sum_i w_i over one set of
    nodes: both sums are of positive terms and nothing cancels.  t = t* e^u
    puts the peak of the integrand (in u) at u = 0: t* is the positive root
    of x t^2 + (x+1-b) t - a = 0, and sigma^-2 = x t* + (a+1-b) t*/(1+t*)^2
    is minus the second derivative of its log in u there.  u = sigma s_i with (s_i, log cosh v_i)
    from _UQ_NODES, so the rule is the trapezoid on v, which converges
    geometrically for an analytic integrand (Trefethen & Weideman, SIAM Rev.
    56, 2014).  The log weights are taken relative to the peak, with
    t - t* = t* expm1(u) and log((1+t)/(1+t*)) = log1p((t-t*)/(1+t*)), so
    no term loses the digits of log t.

    The lanes are rows of (lanes, nodes) arrays and every sum runs along a
    row, so a lane's value does not depend on the other lanes: one lane
    (_u_cf) and many give the same bits.  The guard raises ConvergenceError
    naming the first failing lane's a, b and x when the rule on every other
    node is off by more than _UQ_HALF_TOL relative, or an end node carries
    more than _UQ_END_TOL of the weight sum, or the sums are not finite, as
    they are once (x+1-b)^2 overflows, from x of about 1e154 on, or b <= 1
    and (a+2-b) x < _UQ_MIN_ARG.
    """
    s, logj = _UQ_NODES
    # a per-lane a or b enters the (lanes, nodes) arrays as a column
    ac, bc = (v[:, None] if isinstance(v, np.ndarray) else v for v in (a, b))
    with np.errstate(all="ignore"):
        p = x + (1.0 - b)
        ts = 2.0 * a / (p + np.sqrt(p * p + 4.0 * a * x))
        sigma = 1.0 / np.sqrt(x * ts + (a + 1.0 - b) * ts / ((1.0 + ts) * (1.0 + ts)))
        u = np.multiply.outer(sigma, s)
        d = np.expm1(u) * ts[:, None]
        logw = np.log1p(d / (1.0 + ts)[:, None]) * (bc - ac - 1.0) - x[:, None] * d + ac * u + logj
        w = np.exp(logw)
        t = d + ts[:, None]
        wf = w * (t / (1.0 + t))
        total = w.sum(axis=1)
        ratio = wf.sum(axis=1) / total / a
        half = wf[:, ::2].sum(axis=1) / w[:, ::2].sum(axis=1) / a
        end = np.maximum(w[:, 0], w[:, -1])
        arg = (a + 2.0 - b) * x
        ok = (
            (np.abs(half - ratio) <= _UQ_HALF_TOL * ratio)
            & (end <= _UQ_END_TOL * total)
            & ((arg >= _UQ_MIN_ARG) | (b > 1))
        )
    if not ok.all():
        i = int(np.argmin(ok))
        ai, bi = (int(np.broadcast_to(v, x.shape)[i]) for v in (a, b))
        raise ConvergenceError(
            f"U-ratio quadrature missed its bounds (half-node rule off by {abs(half[i] / ratio[i] - 1.0):.1e}, "
            f"end-node weight {end[i] / total[i]:.1e} of the sum, (a+2-b)x = {arg[i]:.2g} against "
            f"a floor of {_UQ_MIN_ARG} at b <= 1) for a={ai}, b={bi}, x={float(x[i])}"
        )
    return ratio


def _u_cf(a: int, b: int, x: float) -> float:
    """U(a+1,b,x)/U(a,b,x) at one x: _u_quad on one lane, so bit for bit a lane of the grid.

    This is the scalar form _u_ratio_1m and _u_abs_anchor_product call.
    It keeps the name of the continued fraction it replaced because
    bench/tracing.py times the scalar U ratio under that name.
    """
    return float(_u_quad(a, b, np.array([x], dtype=float))[0])


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


def kummer_u_ratio(a: int, b: int, x: float) -> float:
    """U(a+1,b,x) / U(a,b,x) for x > 0, integer b <= 1, integer a >= 1, by _u_ratio_1m's seam."""
    a, b = _check_u_args(a, b, x, "U ratio")
    return _u_ratio_1m(a, 1 - b, x)


def _u_anchor_quad(b: int, x: float) -> float:
    """U(1, b, x) = int_0^inf e^{-xt} (1+t)^{b-2} dt by adaptive quadrature."""
    from scipy import integrate  # deferred: only the selftest and the oracle integrate

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


def _u_abs_anchor_product(a: int, b: int, x: float) -> tuple[int, float]:
    """|U(a,b,x)| from the a=1 anchor times quadrature ratios, as (1, log); the selftest's independent route at b = 1+m."""
    anchor = _u_anchor_quad(b, x)
    logmag = math.log(anchor)
    for j in range(1, a):
        logmag += math.log(_u_cf(j, b, x))
    return 1, logmag


def kummer_u(a: int, b: int, x: float) -> LogScaled:
    """Tricomi confluent hypergeometric U(a, b, x), x > 0, integer b <= 1.

    Positive for these arguments.  Evaluated by the integer-b logarithmic
    series at every argument, escalating to mpmath where a double pass
    cancels (_u_pos_direct).
    """
    a, b = _check_u_args(a, b, x, "kummer_u")
    sign, logmag = _u_pos_direct(a, 1 - b, x)
    if sign <= 0:
        raise ConvergenceError(
            f"U({a},{b},{x}) evaluated non-positive; arguments out of the stable range"
        )
    return LogScaled.from_log(sign, logmag)


# ---------------------------------------------------------------------------
# integer-b logarithmic series (shared by the cut and the positive axis)
# ---------------------------------------------------------------------------

def _lost_digits(max_piece_log: float, result: tuple[int, float]) -> float:
    """Decimal digits a series pass lost: its largest piece over its (sign, log magnitude) result."""
    if result[0] == 0:
        return math.inf
    return (max_piece_log - result[1]) / math.log(10.0)


_SERIES_FAILED = (None, math.inf)


def _cut_m_sum(n: np.ndarray, m, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, largest |t_r| for r >= 1, at least 1) of the cut's finite M sum on each lane, w > 0.

    M = sum_{r=0}^{n} t_r with t_0 = 1, t_{r+1} = t_r (r-n) w / ((m+1+r)(r+1)):
    Kummer's M(-n, m+1, w).  m is one order (an int) or an int array of
    per-lane orders.  The lanes run sorted by n, in chunks of
    _BLOCK_CELLS // min(top n + 1, _REC_BLOCK) lanes, and a chunk's terms in
    blocks of up to _REC_BLOCK.  A block's terms are one
    np.multiply.accumulate of its ratio rows along axis 1 and its sums one
    np.add.accumulate, each row started from the term and sum the block
    before it ended on, in the order of a term-by-term loop, so both values
    are that loop's bit for bit.  Each lane's sum is read in the block that
    holds its own n.  A lane's ratio at r = n is 0, so its terms past its n
    are 0 (or NaN after an overflow) and leave its largest term as it is.
    A chunk stops once every lane not yet read has a running term of 0.0:
    its later terms are all 0.0 too, and they change neither its sum nor
    its largest term.  Overflow comes back as inf or nan.
    """
    lane_m = isinstance(m, np.ndarray)
    order = np.argsort(n, kind="stable")
    ns = n[order]
    mv, mmax = np.ones(n.size), np.empty(n.size)
    chunk = max(1, _BLOCK_CELLS // min(int(ns[-1]) + 1, _REC_BLOCK)) if n.size else 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n.size, chunk):
            lanes, nc = order[i:i + chunk], ns[i:i + chunk]
            wc, mc = w[lanes, None], (m[lanes, None] if lane_m else m)
            t_run, s_run, t_max = np.ones(nc.size), np.ones(nc.size), np.ones(nc.size)
            # lanes[read:] are those whose n lies past the blocks run so far; n = 0 needs no block
            j0, top, read = 0, int(nc[-1]), int(np.searchsorted(nc, 0, side="right"))
            while j0 < top and t_run[read:].any():
                size = min(_REC_BLOCK, top - j0)
                r = np.arange(j0, j0 + size)
                # column k holds term j0 + k; column 0 is the term the block before ended on
                t = np.empty((nc.size, size + 1))
                t[:, 0] = t_run
                t[:, 1:] = (r - nc[:, None]) * wc / ((mc + 1 + r) * (r + 1.0))
                np.multiply.accumulate(t, axis=1, out=t)
                np.fmax(t_max, np.fmax.reduce(np.abs(t[:, 1:]), axis=1), out=t_max)
                t_run = t[:, -1].copy()
                t[:, 0] = s_run
                np.add.accumulate(t, axis=1, out=t)
                s_run = t[:, -1].copy()
                end = int(np.searchsorted(nc, j0 + size, side="right"))
                mv[lanes[read:end]] = t[np.arange(read, end), nc[read:end] - j0]
                j0, read = j0 + size, end
            mv[lanes[read:]] = s_run[read:]
            mmax[lanes] = t_max
    return mv, mmax


def _digamma_starts(m: int, count: int) -> np.ndarray:
    """EULER_GAMMA + sum_{i=m+1}^{m+k} 1/i for k = 0 .. count.

    Entry a - 1 starts the digamma-weighted series of U(a, 1-m, z).  One
    sequential np.add.accumulate, so every entry is the harmonic loop's.
    """
    return np.add.accumulate(np.append(EULER_GAMMA, 1.0 / np.arange(m + 1, m + count + 1)))


def _log_series_float(a: int, m: int, z: float):
    """Double-precision integer-b log series for U(a, 1-m, z) (DLMF 13.2.9).

    z > 0 is the positive axis.  z = -w < 0 is the branch cut, where ln z is
    read as ln w, so the value is Re[U(a, 1-m, -w)].  The sign of z picks
    the M factor (the convergent series for z > 0, Kummer's finite form
    e^z M(1-a, m+1, -z) on the cut) and the signs of the prefactor and of
    the tail terms; the digamma-weighted series and the combination
    (_log_series_tail, a float sum over the pieces' shared prefactor) are
    shared.  Returns (value, max_piece_log), the value a (sign, log
    magnitude) pair, or (None, inf) on overflow.
    """
    A = a + m
    if z < 0.0:
        mv, mmax = (v.item() for v in _cut_m_sum(np.array([a - 1]), m, np.array([-z])))
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
    br = float(_digamma_starts(m, a - 1)[-1])
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
    return _log_series_tail(a, m, z, mv, mmax, s, smax)


def _log_series_tail(a: int, m: int, z: float, mv: float, mmax: float, s: float, smax: float):
    """_log_series_float's result from the M factor mv and the digamma sum s.

    mmax and smax are the largest term magnitudes of the two sums.  The
    pieces pref * e^z M ln|z| (no e^z on the positive axis), pref * S and the
    finite tail share pref = |z|^m / (m! (a-1)!), so they are summed as
    floats relative to it, q = sgn (e^z M ln|z| + S) + T, and pref is applied
    once: a cancellation among them costs float roundoff, not ulps of
    lgamma(a).  T, the tail over pref, takes _log_series_mp's tail ratio
    (a+r)(-z) / ((m-1-r)(r+1)), run down from its top term
    (-sgn z)^(m-1) m / ((a+m-1) |z|).  The piece size the lost-digits rule
    reads is pref times the largest of e^z mmax |ln z|, smax and the
    largest tail term.  An overflowing q is _SERIES_FAILED.
    """
    cut = z < 0.0
    lnz = math.log(abs(z))
    pref_log = m * lnz - math.lgamma(m + 1.0) - math.lgamma(a + 0.0)
    # the cut's M factor carries e^z; the prefactor is -1 on the cut and
    # (-1)^(m+1) on the positive axis, where the tail terms alternate
    ez = math.exp(z) if cut else 1.0
    sgn = -1 if cut else (-1) ** (m + 1)
    tail = tmax = 0.0
    if m:
        t = m / ((a + m - 1) * abs(z)) * (1 if cut or m % 2 else -1)
        tail, tmax = t, abs(t)
        for r in range(m - 1, 0, -1):
            t *= (m - r) * r / ((a + r - 1) * -z)
            tail += t
            tmax = max(tmax, abs(t))
    q = sgn * (ez * mv * lnz + s) + tail
    if not math.isfinite(q):
        return _SERIES_FAILED
    result = (1 if q > 0 else -1, pref_log + math.log(abs(q))) if q else _ZERO_PAIR
    return result, pref_log + math.log(max(ez * mmax * abs(lnz), smax, tmax, 1e-300))


def _cut_series_grid(a: np.ndarray, m, w: np.ndarray) -> list:
    """_log_series_float(a[i], m, -w[i]) on numpy lanes, bit for bit; w > 0.

    m is one order (an int) or an int array of per-lane orders.  The finite
    M sums are one _cut_m_sum call, and each lane's digamma start is an
    entry of one _digamma_starts call per order.  The digamma series runs
    across the lanes in blocks of up to _SERIES_BLOCK iterations, fewer when
    the lanes times the iterations would pass _BLOCK_CELLS.  A block forms
    its term ratios and br increments as rows, and t, br, the sum s and
    its largest term smax are accumulates of those rows along the
    iterations (each entry one operation on the one before, as in the
    scalar loop).  A lane leaves on its first iteration that meets the
    scalar loop's stop or failure rule and ends in the scalar
    _log_series_tail.  Returns one _log_series_float result per lane,
    _SERIES_FAILED included.
    """
    out = [_SERIES_FAILED] * a.size
    if a.size == 0:
        return out
    n = a - 1
    ms = np.broadcast_to(m, a.shape).tolist()
    mv, mmax = _cut_m_sum(n, m, w)
    lane_m = isinstance(m, np.ndarray)
    with np.errstate(over="ignore", invalid="ignore"):
        live = np.flatnonzero(np.isfinite(mv))
        mk = m[live] if lane_m else m
        # entry n of _digamma_starts(mi, ...) starts the lane of order mi at a = n + 1
        starts = {mi: _digamma_starts(mi, int(n.max())) for mi in set(ms)}
        br = np.array([starts[ms[i]][n[i]] for i in live.tolist()]) if lane_m else starts[m][n[live]]
        A, z = a[live] + mk, -w[live]
        s, t, smax = np.zeros(live.size), np.ones(live.size), np.zeros(live.size)
        r0 = 0
        while live.size:
            size = max(1, min(_SERIES_BLOCK, _BLOCK_CELLS // live.size))
            r = np.arange(r0, r0 + size)[:, None]
            # row k holds t, br, s and smax before iteration r0 + k, row k + 1 after it
            ts, brs, ss, smaxs = (np.empty((size + 1, live.size)) for _ in range(4))
            ts[0], brs[0], ss[0], smaxs[0] = t, br, s, smax
            ts[1:] = (A + r) * z / ((mk + 1 + r) * (r + 1.0))
            brs[1:] = 1.0 / (A + r) - 1.0 / (1 + r) - 1.0 / (mk + 1 + r)
            np.multiply.accumulate(ts, axis=0, out=ts)
            np.add.accumulate(brs, axis=0, out=brs)
            np.multiply(ts[:-1], brs[:-1], out=ss[1:])
            np.abs(ss[1:], out=smaxs[1:])
            np.add.accumulate(ss, axis=0, out=ss)
            np.fmax.accumulate(smaxs, axis=0, out=smaxs)
            r += 1
            done = (r > 4) & (np.abs(ts[1:]) * (np.abs(brs[1:]) + 1.0) < 1e-19 * np.maximum(np.abs(ss[1:]), 1e-280))
            finite = np.isfinite(ss[1:])
            leave = done | ~finite | (r > 500_000)
            fin = leave.any(axis=0)
            exits = np.flatnonzero(fin)
            k = leave[:, exits].argmax(axis=0)
            ok = (done & finite)[k, exits]
            for i, ki in zip(exits[ok].tolist(), k[ok].tolist()):
                lane = live[i]
                out[lane] = _log_series_tail(
                    int(a[lane]), ms[lane], float(-w[lane]), float(mv[lane]), float(mmax[lane]),
                    float(ss[ki + 1, i]), float(smaxs[ki + 1, i]),
                )
            keep = ~fin
            live, A, z = live[keep], A[keep], z[keep]
            t, br, s, smax = ts[-1, keep], brs[-1, keep], ss[-1, keep], smaxs[-1, keep]
            if lane_m:
                mk = mk[keep]
            r0 += size
    return out


def _reu_pieces_float(n: int, m: int, w: float):
    """Double-precision pass for Re[U(n+1,1-m,-w)]; see _log_series_float."""
    return _log_series_float(n + 1, m, -w)


# the harmonic prefix sums are kept at every _HARMONIC_STRIDE-th index
_HARMONIC_STRIDE = 32
# one (f, size) table per escalation precision and size: a seed-0 bench
# cross-section pass uses 23 keys and the README cross-section command 30,
# about 1,000 ints in all, so one command's tables all stay cached
_HARMONIC_TABLES = 64


@functools.lru_cache(maxsize=_HARMONIC_TABLES)
def _harmonic_checkpoints(f: int, size: int) -> tuple:
    """P(K) = sum_{0 < i <= K} (1 << f) // i at K = 0, _HARMONIC_STRIDE, 2 _HARMONIC_STRIDE, ... below size."""
    one = 1 << f
    prefix = itertools.accumulate((one // i for i in range(1, size)), initial=0)
    return tuple(itertools.islice(prefix, 0, None, _HARMONIC_STRIDE))


def _harmonic_fixed(f: int, lo: int, hi: int) -> int:
    """sum_{lo < i <= hi} (1 << f) // i as P(hi) - P(lo): the same integer as the direct sum.

    P(K) is read from the checkpoint below K, cached per f at power-of-two
    sizes so that the escalations of one precision share it, plus fewer
    than _HARMONIC_STRIDE terms.
    """
    one = 1 << f
    table = _harmonic_checkpoints(f, 1 << hi.bit_length())

    def prefix(k):
        base = k - k % _HARMONIC_STRIDE
        return table[base // _HARMONIC_STRIDE] + sum(one // i for i in range(base + 1, k + 1))

    return prefix(hi) - prefix(lo)


def _log_series_mp(a: int, m: int, z: float, dps: int, failure: str) -> tuple[int, float]:
    """_log_series_float's value in arbitrary precision, starting at dps digits, as (sign, log magnitude).

    A pass is _log_series_tail's combination in fixed point: M, the
    digamma-weighted sum S and the tail T are integers in units of 2^-F,
    F = the pass's bits + _GUARD_BITS + bits(a - 1), summed as one integer
    q = sgn (e^z M ln|z| + S) + T.  A term step multiplies by the exact
    mantissa of |z| and does one truncating division.  The M and S terms
    rise to a single peak, so each sum is off by at most (terms) units, and
    ln|z| and e^z carry bits(largest M term) + 8 fractional bits.  T runs
    down from m / ((a+m-1)|z|) on extra fractional bits that rise as its
    terms fall (at m in the hundreds they dip by about e^-|z|, then grow by
    hundreds of orders), so each term keeps about F bits and T is off by at
    most m^2 2^-F of its largest term plus m units.  mpmath is left with
    the constants and log pref + log|q|, pref = |z|^m / (m! (a-1)!).

    The loss of a pass is the bits of the largest piece the double pass
    reads (e^z mmax |ln z|, smax, the largest tail term) less those of |q|.
    A pass that lost more than dps - 10 digits measured only a lower bound
    (its q is noise), so the next one at least doubles the precision and
    starts no lower than _growth_start.  Raises ConvergenceError(failure)
    after five passes.
    """
    import mpmath as mp  # deferred: only the escalations and the selftest load it

    cut = z < 0.0
    A = a + m
    nbits = (a - 1).bit_length()
    # |z| = zm * 2^-zk exactly
    zm, zden = abs(z).as_integer_ratio()
    zk = zden.bit_length() - 1
    # M term ratio in magnitude: (c0 + dc r) |z| / ((m+1+r)(r+1)); the cut's
    # finite sum has c0 + dc r = a - 1 - r, the positive axis's series A + r
    c0, dc = (a - 1, -1) if cut else (A, 1)
    # the prefactor is -1 on the cut and (-1)^(m+1) on the positive axis
    sgn = -1 if cut else (-1) ** (m + 1)

    for _ in range(5):
        f = mp.libmp.dps_to_prec(dps) + _GUARD_BITS + nbits
        one = 1 << f
        # M factor; on the cut the terms alternate in sign
        mv, t, mmax, r = 0, one, 0, 0
        while t:
            mv += -t if cut and r & 1 else t
            mmax = max(mmax, t)
            t = t * (c0 + dc * r) * zm // (((m + 1 + r) * (r + 1)) << zk)
            r += 1
        # digamma-weighted series; same alternation on the cut
        br = mp.libmp.euler_fixed(f) + _harmonic_fixed(f, m, A - 1)
        s, t, smax, r = 0, one, 0, 0
        while t:
            contrib = t * br >> f
            s += -contrib if cut and r & 1 else contrib
            smax = max(smax, abs(contrib))
            t = t * (A + r) * zm // (((m + 1 + r) * (r + 1)) << zk)
            br += one // (A + r) - one // (1 + r) - one // (m + 1 + r)
            r += 1
            if r > _MP_MAX_TERMS:
                raise ConvergenceError(f"{failure}: digamma series ran past {_MP_MAX_TERMS} terms")
        # finite tail from its top term down, a term being t 2^-e units with t
        # held to about f bits; its terms alternate on the positive axis
        tail = tmax = 0
        if m:
            t, e, neg = (m << (f + zk)) // ((a + m - 1) * zm), 0, not (cut or m & 1)
            tail, tmax = -t if neg else t, t
            for r in range(m - 1, 0, -1):
                shift = max(0, f - t.bit_length())
                t, e = (t * (m - r) * r << (zk + shift)) // ((a + r - 1) * zm), e + shift
                neg ^= not cut
                tail += -(t >> e) if neg else t >> e
                tmax = max(tmax, t >> e)
        # ln|z| and e^z with gb fractional bits
        gb = mmax.bit_length() + 8
        with mp.workprec(gb + 16):
            lnz = mp.log(abs(mp.mpf(z)))
            ln_fixed = int(mp.ldexp(lnz, gb))
            ez = int(mp.ldexp(mp.exp(z), gb)) if cut else 1 << gb
        q = sgn * ((ez * mv * ln_fixed >> 2 * gb) + s) + tail
        big = max(ez * mmax * abs(ln_fixed) >> 2 * gb, smax, tmax)
        lost = (big.bit_length() - abs(q).bit_length()) / 3.32
        if dps - lost >= 17:
            # q = 0 reads a loss of more than dps digits, so it is never kept
            with mp.workdps(dps):
                logmag = m * lnz - mp.loggamma(m + 1) - mp.loggamma(a) + mp.log(mp.mpf((abs(q), -f)))
                return 1 if q > 0 else -1, float(logmag)
        dps = max(int(lost) + 26, 2 * dps, _growth_start(A, z)) if lost > dps - 10 else int(lost) + 26
    raise ConvergenceError(failure)


def _reu_direct_mp(n: int, m: int, w: float, dps: int) -> tuple[int, float]:
    """Re[U(n+1,1-m,-w)] by the cut series in arbitrary precision, as (sign, log magnitude)."""
    failure = f"cut series failed to stabilize for n={n}, m={m}, w={w}"
    return _log_series_mp(n + 1, m, -w, dps, failure)


def _reu_direct(n: int, m: int, w: float) -> tuple[int, float]:
    """Re[U(n+1,1-m,-w)] by the cut series, as (sign, log magnitude): the double pass, escalated if it lost."""
    return _reu_settle(n, m, w, _reu_pieces_float(n, m, w))


def _growth_start(big: int, z: float) -> int:
    """mpmath start digits from the term growth of the log series, with big = a + m.

    Each M sum is <= e^x L_{big-1}(-x) <= e^(x + 2 sqrt(big x)), x = |z|, and for z > 0 U falls like
    e^(-2 sqrt(big x)) (DLMF §13.8(iii)), while Re U on the cut does not.
    """
    x = abs(z)
    lost = ((2.0 if z < 0.0 else 4.0) * math.sqrt(big * x) + x) / math.log(10.0) + 10.0
    return 24 + int(min(lost, 20000.0))


def _mp_start(pieces, big: int, z: float):
    """None if the double pass pieces = _log_series_float(a, m, z) kept its digits, else the mpmath start.

    The start is 24 digits above the measured loss, with big = a + m.  An overflow or a zero measures
    none, and the start is _growth_start.
    """
    val, max_piece_log = pieces
    lost = _lost_digits(max_piece_log, val) if val is not None else math.inf
    if lost <= _MAX_LOST_DIGITS:
        return None
    if val is None or val[0] == 0:
        return _growth_start(big, z)
    return 24 + int(min(lost, 20000.0))


def _reu_settle(n: int, m: int, w: float, pieces) -> tuple[int, float]:
    """Re[U(n+1,1-m,-w)] from its double pass pieces (_reu_pieces_float), or from mpmath at _mp_start."""
    dps = _mp_start(pieces, n + m + 1, -w)
    return pieces[0] if dps is None else _reu_direct_mp(n, m, w, dps)


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


def _anchor_row(m: int, w: float, n: int) -> int:
    """Lower of the two series rows that start the recurrence up to row n > _DIRECT_N."""
    return min(n - 1, max(0, _anchor_index(m, w)))


def _reu_anchor_start(n_anchor: int, m: int, v0: tuple[int, float], v1: tuple[int, float]):
    """(lp, lc, ls) for _recurrence_rows from Re U at rows n_anchor and n_anchor + 1, (sign, log) pairs.

    The rows are rescaled to W_j = (j+m)! Re[U(j+1,1-m,-w)] and stored as
    mantissas at the larger of their two log magnitudes.
    """
    (s0, l0), (s1, l1) = v0, v1
    l0 = l0 + math.lgamma(n_anchor + m + 1.0) if s0 else -math.inf
    l1 = l1 + math.lgamma(n_anchor + m + 2.0) if s1 else -math.inf
    ls = max(l0, l1)
    return s0 * math.exp(l0 - ls), s1 * math.exp(l1 - ls), ls


def _reu_rows(m: int, w: float, n: int, count: int) -> list[tuple[int, float]]:
    """Re[U(j+1, 1-m, -w)] at rows j = n .. n+count-1, from one pass, as (sign, log magnitude) pairs.

    Rows up to _DIRECT_N come from the series.  Higher rows anchor the
    series at two rows past the recurrence turning points and carry
    W_j = (j+m)! Re[U(j+1,1-m,-w)] up with the shared three-term recurrence.
    """
    top = n + count - 1
    if top <= _DIRECT_N:
        return [_reu_direct(j, m, w) for j in range(n, top + 1)]
    n_anchor = _anchor_row(m, w, n)
    start = _reu_anchor_start(n_anchor, m, _reu_direct(n_anchor, m, w), _reu_direct(n_anchor + 1, m, w))
    rows = _recurrence_rows(m, w, n_anchor + 2, *start, range(n, top + 1))
    return [_sweep_pair(*rows[j], math.lgamma(j + m + 1.0)) for j in range(n, top + 1)]


def _reu_settle_pair(n: int, m: int, w: float, lo, hi):
    """Re U rows n, n+1 settled from their double pass pieces, or the ConvergenceError of the first to fail."""
    try:
        return _reu_settle(n, m, w, lo), _reu_settle(n + 1, m, w, hi)
    except ConvergenceError as exc:
        return exc


def _lag_reu_pairs_grid(m, n, w_in: np.ndarray, w_out: np.ndarray):
    """Laguerre rows n, n+1 at w_in and at w_out, and Re U rows n, n+1 at w_out > 0, on every lane.

    m and n are the order and the row of every lane (ints), or int arrays
    with one entry per lane.  Returns (lag_in, lag_out, reu), bit for bit,
    each row as a (sign, log magnitude) pair: lag_in[i] = (L^m_n, L^m_{n+1})
    at w_in[i] as _laguerre_sweep gives them, lag_out[i] the same at
    w_out[i], and reu[i] = the rows of _reu_rows(m, w_out[i], n, 2), or the
    ConvergenceError that _reu_rows raises there.  Each Re U lane
    takes _reu_rows's series rows (rows n and n+1 up to _DIRECT_N, else the
    two anchors of the recurrence); they run in one _cut_series_grid call
    and then settle lane by lane through _reu_settle.  A lane whose mpmath
    pass fails keeps its error and runs no recurrence; the Laguerre lanes
    and the other Re U recurrence lanes run in one _recurrence_rows_grid call.
    """
    lane_m = isinstance(m, np.ndarray)
    ms, ns, ws = (np.broadcast_to(v, w_out.shape).tolist() for v in (m, n, w_out))
    first = [ni if ni + 1 <= _DIRECT_N else _anchor_row(mi, wi, ni) for mi, ni, wi in zip(ms, ns, ws)]
    rows = np.array(first, dtype=np.int64) + 1  # the series parameter a is the row + 1
    pieces = _cut_series_grid(
        np.concatenate((rows, rows + 1)), np.concatenate((m, m)) if lane_m else m, np.concatenate((w_out, w_out))
    )
    reu = [
        _reu_settle_pair(j, mi, wi, lo, hi)
        for j, mi, wi, lo, hi in zip(first, ms, ws, pieces[:len(ws)], pieces[len(ws):])
    ]
    # recurrence lanes: every Laguerre lane at w_in, then at w_out, then the settled Re U lanes above _DIRECT_N
    rec = [i for i, ni in enumerate(ns) if ni + 1 > _DIRECT_N and not isinstance(reu[i], ConvergenceError)]
    w = np.concatenate((w_in, w_out, w_out[rec]))
    lag_lanes = 2 * w_out.size
    if lane_m:
        m, n = np.concatenate((m, m, m[rec])), np.concatenate((n, n, n[rec]))
    lanes = [np.broadcast_arrays(*_laguerre_start(m[:lag_lanes] if lane_m else m, w[:lag_lanes]))]
    if rec:
        starts = [(first[i] + 2, *_reu_anchor_start(first[i], ms[i], *reu[i])) for i in rec]
        lanes.append([np.array(col) for col in zip(*starts)])
    j0, lp, lc, ls = (np.concatenate(col) for col in zip(*lanes))
    row = np.broadcast_to(n, w.shape)
    swept = _recurrence_rows_grid(m, w, j0, lp, lc, ls, set(row.tolist()) | set((row + 1).tolist()))

    # row n and row n + 1 of every lane, as (mantissa list, log scale list)
    cols = [tuple(a.tolist() for a in _lane_rows(swept, row + off)) for off in (0, 1)]
    lag = [tuple(_sweep_pair(mant[i], scale[i]) for mant, scale in cols) for i in range(lag_lanes)]
    # a recurrence lane's settled series rows are its anchors; its rows n, n + 1 replace them
    for lane, i in enumerate(rec, lag_lanes):
        reu[i] = tuple(
            _sweep_pair(mant[lane], scale[lane], math.lgamma(ns[i] + off + ms[i] + 1.0))
            for off, (mant, scale) in enumerate(cols)
        )
    return lag[:w_out.size], lag[w_out.size:], reu


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
    return LogScaled.from_log(*_reu_rows(m, w, n, 1)[0])


def _u_pos_direct(a: int, m: int, x: float) -> tuple[int, float]:
    """U(a, 1-m, x) for x > 0 by the integer-b logarithmic series, at any a and x, as (sign, log magnitude).

    A double pass that cancels or overflows is redone in mpmath through the
    same series, starting at the precision _mp_start sets.
    """
    pieces = _log_series_float(a, m, x)
    dps = _mp_start(pieces, a + m, x)
    if dps is None:
        return pieces[0]
    return _log_series_mp(a, m, x, dps, f"U series failed to stabilize for a={a}, m={m}, x={x}")


def _u_ratio_1m(a: int, m: int, x: float) -> float:
    """U(a+1,1-m,x)/U(a,1-m,x) with a series/quadrature dispatch at _U_SERIES_SEAM.

    As x -> 0 the peak of U's integrand runs off to t = inf and the
    quadrature's map loses digits, while the logarithmic series is cheap
    and cancellation-free, so small (a+m+1)x routes through the series.
    """
    if (a + m + 1) * x <= _U_SERIES_SEAM:
        (s1, l1), (s0, l0) = _u_pos_direct(a + 1, m, x), _u_pos_direct(a, m, x)
        return log_to_float(s1 * s0, l1 - l0)
    return _u_cf(a, 1 - m, x)


def _u_ratio_1m_grid(a, m, x: np.ndarray) -> np.ndarray:
    """_u_ratio_1m on an array of x with the same series/quadrature dispatch per lane.

    a and m are ints shared by every lane, or int arrays with one entry per
    lane.  Series lanes stay scalar; the quadrature lanes run through _u_quad
    in chunks of at most _BLOCK_CELLS nodes in all.
    """
    series = (a + m + 1) * x <= _U_SERIES_SEAM
    out = np.empty_like(x)
    quad = np.flatnonzero(~series)
    chunk = max(1, _BLOCK_CELLS // _UQ_NODES[0].size)
    lane_am = isinstance(a, np.ndarray)
    for i in range(0, quad.size, chunk):
        lanes = quad[i:i + chunk]
        out[lanes] = _u_quad(a[lanes], 1 - m[lanes], x[lanes]) if lane_am else _u_quad(a, 1 - m, x[lanes])
    a, m = np.broadcast_to(a, x.shape), np.broadcast_to(m, x.shape)
    for i in np.flatnonzero(series).tolist():
        out[i] = _u_ratio_1m(int(a[i]), int(m[i]), float(x[i]))
    return out


# ---------------------------------------------------------------------------
# cylinder functions
# ---------------------------------------------------------------------------

# scipy.special's ufunc of each kind, by name: _cylinder defers the import,
# since the CLI's noncommutative commands never call one
_BESSEL = {"J": "jv", "Y": "yv", "I": "iv", "K": "kv"}


def _cylinder(kind: str):
    """scipy.special's ufunc of the cylinder function of kind J, Y, I or K."""
    if kind not in _BESSEL:
        raise DomainError(f"kind must be one of J, Y, I, K, got {kind!r}")
    from scipy import special

    return getattr(special, _BESSEL[kind])


def _check_bessel_args(kind: str, m, x: float, what: str, zero_ok: bool = False):
    """(ufunc, m as an int) of a cylinder-function call; x must be finite and > 0 (>= 0 if zero_ok)."""
    fn = _cylinder(kind)
    m = _check_int(m, "m")
    if not math.isfinite(x):
        raise DomainError(f"{what} needs a finite x, got {x}")
    if not (x > 0.0 or zero_ok and x == 0.0):
        raise DomainError(f"{what} needs x {'>=' if zero_ok else '>'} 0, got {x}")
    return fn, m


def bessel(kind: str, m: int, x: float) -> float:
    """Cylinder function J/Y/I/K of integer order m >= 0 at finite x > 0 (x >= 0 for J and I)."""
    fn, m = _check_bessel_args(kind, m, x, f"{kind}_m", zero_ok=kind in ("J", "I"))
    if m < 0:
        raise DomainError(f"order m must be >= 0, got {m}")
    return float(fn(m, x))


def bessel_deriv(kind: str, m: int, x: float) -> float:
    """d/dx of the cylinder function at finite x > 0, via C'_m = C_{m-1} - (m/x) C_m.

    K flips the first term: K'_m = -K_{m-1} - (m/x) K_m.
    """
    fn, m = _check_bessel_args(kind, m, x, "derivative recurrence")
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


# the largest s the quadrature takes: its J and Y panels split at the zeros
# of C_m(s r) below the integrand's cutoff rmax, about s rmax / pi + m of them
_HANKEL_MAX_S = 1e3


def _check_hankel_args(n, m, kind: str, s: float) -> tuple[int, int]:
    """(n, m) as ints; the quadrature needs n, m >= 0, a kind J, Y, I or K and 0 < s <= _HANKEL_MAX_S."""
    n = _check_int(n, "n")
    m = _check_int(m, "m")
    _cylinder(kind)
    if n < 0 or m < 0:
        raise DomainError(f"oracle needs n >= 0 and m >= 0, got n={n}, m={m}")
    if not (s > 0.0):
        raise DomainError(f"oracle needs s > 0, got {s}")
    if not (s <= _HANKEL_MAX_S):
        raise DomainError(f"oracle needs s <= {_HANKEL_MAX_S:g}, got {s}")
    return n, m


def _hankel_quad(n: int, m: int, kind: str, s: float) -> tuple[float, float]:
    """Quadrature of int_0^inf r^{2n+m+1} e^{-r^2} C_m(s r) dr.

    Returns (value_scaled, log_scale): true value = value_scaled * e^{log_scale}.
    Panels are split at the zeros of the oscillatory kinds.
    """
    from scipy import integrate, special  # deferred, as in _u_anchor_quad

    p = 2 * n + m + 1
    _, fpk, rmax = _integrand_support(p)
    fn = _cylinder(kind)

    def f(r):
        if r <= 0.0:
            return 0.0
        return math.exp(p * math.log(r) - r * r - fpk) * fn(m, s * r)

    points = None
    if kind in ("J", "Y"):
        count = int(s * rmax / math.pi) + m + 6
        zeros = special.jn_zeros(m, count) if kind == "J" else special.yn_zeros(m, count)
        points = [z / s for z in zeros if z / s < rmax] or None
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(f, 0.0, rmax, points=points, limit=80 + 4 * len(points or ()),
                                    epsabs=1e-13, epsrel=1e-12)
        except integrate.IntegrationWarning as exc:
            raise ConvergenceError(
                f"Hankel-integral quadrature failed for n={n}, m={m}, kind={kind}, s={s}: {exc}"
            ) from exc
    return val, fpk


def hankel_integral_oracle(n: int, m: int, kind: str, s: float) -> float:
    """Adaptive quadrature of int_0^inf r^{2n+m+1} e^{-r^2} C_m(s r) dr.

    Exists purely as an independent check of the closed forms; n + m is
    capped so the plain-float result stays representable.  Both Hankel
    functions take a finite 0 < s <= _HANKEL_MAX_S = 1e3 (_check_hankel_args).
    """
    n, m = _check_hankel_args(n, m, kind, s)
    if n + m > 64:
        raise DomainError(f"oracle quadrature is restricted to n + m <= 64, got {n + m}")
    val, log_scale = _hankel_quad(n, m, kind, s)
    return val * math.exp(log_scale)


def hankel_integral_scaled(n: int, m: int, kind: str, s: float) -> LogScaled:
    """Log-scaled variant of the quadrature oracle, usable at large n."""
    n, m = _check_hankel_args(n, m, kind, s)
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


def _oracle_suites() -> list[CheckResult]:
    """Oracle-equivalence suites: closed forms against the quadrature oracle.

    Returns one result per suite; core.selftest runs them first.
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

    run(
        "J-integral closed form vs quadrature",
        [(n, m, "J", s) for n in range(0, 41, 2) for m in (0, 3, 8) for s in (0.3, 1.0, 3.0)],
        closed_vs_quad,
        1e-8,
    )
    run(
        "Y-integral closed form vs quadrature",
        [
            (n, m, "Y", 2.0 * math.sqrt(w))
            for n in range(21)
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
    # independently through the anchor/quadrature-ratio route at b = 1+m
    def kummer_transform(a, m, x):
        right = ls_exp(m * math.log(x) + _u_abs_anchor_product(a + m, 1 + m, x)[1])
        return _rel_diff_ls(kummer_u(a, 1 - m, x), right)

    run(
        "Kummer transform consistency",
        [(3, 0, 1.0), (5, 2, 0.8), (11, 0, 20.0 / 7.0), (8, 4, 2.5), (20, 1, 5.0)],
        kummer_transform,
        1e-10,
    )

    # ratio consistency: quadrature against series at the dispatch boundary
    def ratio_quad_vs_series(a, m, x):
        (s1, l1), (s0, l0) = _u_pos_direct(a + 1, m, x), _u_pos_direct(a, m, x)
        ser = log_to_float(s1 * s0, l1 - l0)
        return abs(_u_cf(a, 1 - m, x) - ser) / abs(ser)

    run(
        "U-ratio series vs quadrature",
        [(10, 0, 0.09), (10, 2, 0.08), (50, 1, 0.02), (30, 4, 0.03), (1, 0, 0.5), (1000, 3, 0.001)],
        ratio_quad_vs_series,
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
