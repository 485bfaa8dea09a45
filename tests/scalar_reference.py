"""Reference versions of library kernels that were rewritten for speed, kept as they were.

The library combines each lane's factors on (sign, log magnitude) pairs
of plain floats: the bound-scan residual core._bound_residual, the basis
rows core._j_rows/_y_rows and the 2x2 solve core._solve_matching.  This
module keeps the LogScaled versions those replaced, unchanged
(_bound_residual, _j_rows, _y_rows, _solve_matching), so the tests can hold
every lane to them with == without calling the code under test.  It also
keeps the scalar recurrence runner specfun._recurrence_rows as it was when
it tested every step for renormalization (_recurrence_rows), where the
library now tests only the steps where the pair may have left the range.  The one
method change since is the lowering constant of _lower_order,
log((n-k)!/n!), taken as -log of the exact integer n!/(n-k)! as the
library takes it, where it was the difference of two lgamma values.
And it keeps the lane kernel specfun._cut_m_sum as it was when a chunk
stopped only once every lane not yet read had a running term of 0.0
(_cut_m_sum), where the library now also stops once those terms can no
longer move a sum.

It also solves one scattering point from the scalar kernels instead of a
lane of core._scattering_lanes: the Laguerre rows of one forward sweep
(core._laguerre_pair), the Re U rows of one series or recurrence pass
(core._reu_pair), both read into LogScaled from their (sign, log
magnitude) pairs, the basis rows and the 2x2 solve above, and the wave's
(delta, sin^2) (core._wave_of_b).  The kernels are looked up on their
module at call time, so a test that patches one (a failing Re U settle, or
_solve_matching here) patches the reference too.
"""

import math

import numpy as np

from ncwell import core
from ncwell.errors import SingularSystemError
from ncwell.logscale import ZERO, LogScaled, ls_exp


def _recurrence_rows(m: int, w: float, j0: int, lp: float, lc: float, ls: float, targets):
    """Run j y_j = (2j-1+m-w) y_{j-1} - (j-1+m) y_{j-2} upward from row j0, testing every step.

    (lp, lc) are rows j0-2 and j0-1 as mantissas at the common log scale ls;
    the pair is renormalized whenever it leaves [1e-250, 1e250].  Returns
    {j: (mantissa, log_scale)} for the targets, each >= j0 - 2 (a target
    below j0 is one of the two start rows).
    """
    out = {}
    j = j0
    # run up to each target in turn, so the steps test no membership
    for target in sorted(targets):
        for j in range(j, target + 1):
            lp, lc = lc, ((2 * j - 1 + m - w) * lc - (j - 1 + m) * lp) / j
            a = abs(lp) + abs(lc)
            if a > 1e250 or (0.0 < a < 1e-250):
                lp /= a
                lc /= a
                ls += math.log(a)
        out[target] = (lc if target >= j0 - 1 else lp, ls)
        j = max(j, target + 1)
    return out


# the lane and term blocks of _cut_m_sum; they set the chunking only, not a value
_REC_BLOCK = 64
_BLOCK_CELLS = 8_192


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


def _lower_order(base: LogScaled, n: int, k: int, w: float) -> LogScaled:
    """L^{-k}_n(w) from base = L^k_{n-k}(w): (-w)^k ((n-k)!/n!) base."""
    if w == 0.0 or base.is_zero():
        return ZERO
    # (-w)^k is negative only for w > 0 and odd k
    sign = (-1) ** k if w > 0 else 1
    lg = k * math.log(abs(w)) - math.log(math.perm(n, k))
    return base * LogScaled.from_log(sign, lg)


def _bound_residual(l_n: LogScaled, l_n1: LogScaled, ratio: float, w: float, spec, m: int) -> float:
    """G(E) from its factors at one energy.

    l_n, l_n1 are L^|m| at rows N-k and N+1-k (k = max(-m, 0)), lowered to
    order m here; ratio is U(N+2-k,1-|m|,x)/U(N+1-k,1-|m|,x); w = theta E.
    """
    k = max(-m, 0)
    if k:
        l_n = _lower_order(l_n, spec.cap_n, k, w)
        l_n1 = _lower_order(l_n1, spec.cap_n + 1, k, w)
    t1 = l_n1
    t2 = l_n * ((spec.cap_n + m + 1) * ratio)
    scale = max(abs(t1), abs(t2))
    if scale.is_zero():
        return 0.0
    return ((t1 - t2) / scale).to_float()


def _j_rows(m: int, w: float, n: int, lag):
    """The J rows sqrt(j!/(j+m)!) w^{m/2} L^m_j(w) at j = n, n+1 from (L^m_n(w), L^m_{n+1}(w))."""
    lnw = math.log(w)
    return [
        lag[i] * ls_exp(0.5 * (math.lgamma(idx + 1.0) - math.lgamma(idx + m + 1.0)) + 0.5 * m * lnw)
        for i, idx in enumerate((n, n + 1))
    ]


def _y_rows(m: int, w: float, n: int, reu):
    """The Y rows -(1/pi) sqrt(j!(j+m)!) e^w w^{-m/2} Re U(j+1, 1-m, -w) at j = n, n+1."""
    lnw = math.log(w)
    return [
        reu[i] * ls_exp(
            0.5 * (math.lgamma(idx + 1.0) + math.lgamma(idx + m + 1.0)) + w - 0.5 * m * lnw, sign=-1
        ) / math.pi
        for i, idx in enumerate((n, n + 1))
    ]


def _solve_matching(jin, jout, yout, energy: float, m: int):
    """(interior amplitude, exterior B, row residuals) from the interior J and the exterior J, Y columns.

    The residual of a row is relative to its largest term (0.0 when every
    term vanishes).  Raises SingularSystemError when the 2x2 system is
    degenerate or a row residual exceeds 1e-10.
    """
    # column scales: the larger log magnitude of each basis column
    c1, c2, c3 = (
        max(v.logmag if v.sign else -math.inf for v in col) for col in (jin, yout, jout)
    )
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise SingularSystemError("a basis column vanished identically at both rows")
    if not math.isfinite(c3):
        c3 = 0.0

    def fl(v, shift):
        return 0.0 if v.sign == 0 else v.sign * math.exp(v.logmag - shift)

    a11, a21 = fl(jin[0], c1), fl(jin[1], c1)
    a12, a22 = -fl(yout[0], c2), -fl(yout[1], c2)
    b1, b2 = fl(jout[0], c3), fl(jout[1], c3)
    det = a11 * a22 - a12 * a21
    if det == 0.0 or abs(det) < 1e-280:
        raise SingularSystemError(
            f"matching rows are degenerate at E={energy}, m={m}"
        )
    x1 = (b1 * a22 - a12 * b2) / det
    x2 = (a11 * b2 - b1 * a21) / det
    # one refinement step in compensated arithmetic
    r1 = math.fsum((b1, -a11 * x1, -a12 * x2))
    r2 = math.fsum((b2, -a21 * x1, -a22 * x2))
    x1 += (r1 * a22 - a12 * r2) / det
    x2 += (a11 * r2 - r1 * a21) / det

    a_in = LogScaled.from_float(x1) * ls_exp(c3 - c1) if x1 != 0.0 else ZERO
    b_out = LogScaled.from_float(x2) * ls_exp(c3 - c2) if x2 != 0.0 else ZERO

    # residual of both rows, relative to the largest contributing term
    residuals = []
    for i in (0, 1):
        terms = (a_in * jin[i], -(b_out * yout[i]), -jout[i])
        resid = terms[0] + terms[1] + terms[2]
        scale = max(abs(t) for t in terms)
        rel = 0.0 if scale.is_zero() else (abs(resid) / scale).to_float()
        if rel > 1e-10:
            raise SingularSystemError(
                f"matching residual {rel:.2e} exceeds 1e-10 at E={energy}, m={m}"
            )
        residuals.append(rel)
    return a_in, b_out, residuals


def ls_rows(pairs):
    """LogScaled values of (sign, log magnitude) rows."""
    return [LogScaled.from_log(*p) for p in pairs]


def scalar_solve(energy, spec, m):
    """(interior amplitude, exterior B, row residuals) of sector m at E, from the scalar kernels."""
    order, row = core._sector(m, spec)
    w_in, w_out = spec.theta * energy, spec.theta * (energy - spec.v)
    jin = _j_rows(order, w_in, row, ls_rows(core._laguerre_pair(order, w_in, row)))
    lag, reu = ls_rows(core._laguerre_pair(order, w_out, row)), ls_rows(core._reu_pair(order, w_out, row))
    return _solve_matching(jin, _j_rows(order, w_out, row, lag), _y_rows(order, w_out, row, reu), energy, m)


def scalar_lane(energy, spec, m):
    """scalar_solve as a lane of core._scattering_lanes gives it: the amplitudes as (sign, log magnitude) pairs."""
    a, b, residuals = scalar_solve(energy, spec, m)
    return (a.sign, a.logmag), (b.sign, b.logmag), residuals


def scalar_wave(energy, spec, m):
    """(delta_m, sin^2(delta_m)) of the scalar solve."""
    return core._wave_of_b(energy, m, scalar_lane(energy, spec, m)[1])
