"""The batched phase-shift sweep against the scalar kernels it replaces.

Every lane must reproduce the scalar value bit for bit (asserted with ==,
no tolerance), so the phase-shifts and compare tables cannot move; a
failing sweep must raise what the per-point loop raises, at the same energy.
"""

import math

import numpy as np
import pytest

from ncwell import core, specfun
from ncwell.core import WellSpec, phase_shift, phase_shift_sweep
from ncwell.errors import ConvergenceError, DomainError
from ncwell.specfun import (
    EULER_GAMMA,
    _MAX_LOST_DIGITS,
    _SERIES_FAILED,
    _anchor_row,
    _cut_m_sum,
    _cut_series_grid,
    _digamma_starts,
    _lag_reu_pairs_grid,
    _laguerre_sweep,
    _log_series_float,
    _lost_digits,
    _recurrence_rows,
    _recurrence_rows_grid,
    _reu_rows,
)
from scalar_reference import scalar_lane


def grid(lo, hi, steps):
    # the CLI's energy grid
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def test_runner_with_mixed_start_rows_matches_scalar():
    rng = np.random.default_rng(3)
    size = 40
    # starts from row 2 up to 301: 300 and 301 read their start rows at the targets
    w = rng.uniform(0.01, 3.0, size)
    j0 = rng.integers(2, 302, size)
    j0[:4] = (2, 299, 300, 301)
    # w past 4n from low rows on: these rows grow through 1e250 and renormalize
    w[-10:], j0[-10:] = rng.uniform(1500.0, 3000.0, 10), rng.integers(2, 20, 10)
    lp, lc = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size)
    ls = rng.uniform(-30.0, 30.0, size)
    targets = (299, 300)
    # one order for every lane, and an order per lane as in a cross section's block
    for m in (5, rng.integers(0, 60, size)):
        ms = np.broadcast_to(m, (size,)).tolist()
        got = _recurrence_rows_grid(m, w, j0, lp, lc, ls, targets)
        for i in range(size):
            want = _recurrence_rows(ms[i], w[i].item(), int(j0[i]), lp[i].item(), lc[i].item(), ls[i].item(), targets)
            assert {t: (got[t][0][i].item(), got[t][1][i].item()) for t in targets} == want
        assert np.count_nonzero(got[300][1] != ls) > 5


def bits(x):
    # the bytes of a float64: NaN payloads and the sign of zero count
    return np.float64(x).tobytes()


def assert_runner_matches_scalar(m, w, j0, lp, lc, ls, targets):
    """The lane runner against _recurrence_rows lane by lane, bytes of mantissa and log scale."""
    got = _recurrence_rows_grid(m, w, j0, lp, lc, ls, targets)
    assert sorted(got) == sorted(targets)
    ms = np.broadcast_to(m, w.shape).tolist()
    for i in range(w.size):
        args = (ms[i], w[i].item(), int(j0[i]), lp[i].item(), lc[i].item(), ls[i].item())
        # a target below a lane's row j0 - 2 reads its row j0 - 2
        want = _recurrence_rows(*args, [t for t in targets if t >= j0[i] - 2])
        want.update({t: (lp[i].item(), ls[i].item()) for t in targets if t < j0[i] - 2})
        for t in targets:
            assert (bits(got[t][0][i]), bits(got[t][1][i])) == (bits(want[t][0]), bits(want[t][1])), (i, t)
    return got


def block_edges():
    # with one start row 2 and lanes of small room use, blocks of _REC_BLOCK steps begin at 2, 2 + B, ...
    b = specfun._REC_BLOCK
    return b, [1 + b, 2 + b, 3 + b, 1 + 2 * b, 2 + 2 * b, 2 + b + b // 2]


def test_runner_lanes_join_around_block_boundaries():
    b, starts = block_edges()
    rng = np.random.default_rng(11)
    # two lanes from row 2 set the blocks; the others join at j - 1, j, j + 1 of the second block,
    # at its last step, at the step after it and mid-block
    j0 = np.array([2, 2, *starts, *starts])
    size = j0.size
    w = rng.uniform(0.05, 2.0, size)
    lp, lc, ls = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size), rng.uniform(-5.0, 5.0, size)
    # targets inside blocks, on their edges and below the later lanes' start rows
    targets = {3, 30, b, 1 + b, 2 + b, 3 + b, 2 * b, 1 + 2 * b, 2 + 2 * b, 3 * b + 7}
    for m in (3, rng.integers(0, 40, size)):
        assert_runner_matches_scalar(m, w, j0, lp, lc, ls, targets)


@pytest.mark.parametrize("start", [0.0, -0.0, 5e-324, 2.5e-310, 9.9e249, 1e250, 3e250, 1e-250, 3e-260])
def test_runner_joining_lanes_with_extreme_start_rows(start):
    b, starts = block_edges()
    rng = np.random.default_rng(12)
    j0 = np.array([2, 2, *starts, *starts])
    size = j0.size
    w = rng.uniform(0.05, 2.0, size)
    lp, lc, ls = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size), np.zeros(size)
    # the joining lanes take the start value as row j0 - 2, then as row j0 - 1, then as both
    third = len(starts)
    lp[2:2 + third] = start
    lc[2 + third:] = start
    lp[2 + third + third // 2:] = start
    got = assert_runner_matches_scalar(5, w, j0, lp, lc, ls, {1 + b, 2 + b, 3 + 2 * b})
    if start != 0.0 and not 1e-250 <= 2 * abs(start) <= 1e250:
        # the pairs outside the range renormalize on their first step
        assert np.count_nonzero(got[3 + 2 * b][1] != 0.0) > 0


def test_runner_renormalizes_on_the_scalar_step_up_and_down():
    rng = np.random.default_rng(13)
    size = 24
    j0 = rng.integers(2, 150, size)
    # w far past 4n: the lanes grow through 1e250 on steps inside blocks
    w = rng.uniform(200.0, 3000.0, size)
    lp, lc, ls = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size), rng.uniform(-30.0, 30.0, size)
    # pairs just inside 1e-250 that a step of order 0 takes below it, and pairs past it
    m = np.full(size, 4)
    m[:4], lp[:4], lc[:4] = 0, 1.5e-250, 1e-253
    lp[4:8], lc[4:8] = 1e-255, 1e-256
    w[:8] = rng.uniform(0.1, 1.0, 8)
    targets = {150, 151, 400, 401}
    got = assert_runner_matches_scalar(m, w, j0, lp, lc, ls, targets)
    assert np.count_nonzero(got[401][1] > ls) >= 6
    assert np.count_nonzero(got[401][1] < ls) == 8


def test_runner_lanes_that_go_inf_or_nan():
    size = 10
    j0 = np.array([2, 2, 5, 9, 9, 20, 40, 40, 70, 70])
    w = np.array([0.5, 1e200, 1e300, 0.7, np.nan, 2.0, np.inf, 1.1, 0.3, 1e250])
    lp = np.array([1.0, 1.0, 1.0, np.inf, 1.0, np.nan, 1.0, -np.inf, 1.0, 1.0])
    lc = np.array([0.5, 1.0, 1e10, 1.0, 1.0, 1.0, 1.0, 1.0, np.nan, 1e100])
    ls = np.zeros(size)
    got = assert_runner_matches_scalar(np.array([0, 2, 7, 0, 1, 3, 0, 5, 9, 2]), w, j0, lp, lc, ls, {80, 81})
    # every lane but the first ends NaN or with an infinite log scale
    assert not np.isfinite(got[81][0][1:] * got[81][1][1:]).any()
    assert np.isfinite(got[81][0][0])


def test_runner_mixed_orders_and_the_cell_cap():
    rng = np.random.default_rng(14)
    # wide enough that the cell cap, not _REC_BLOCK, sets the block length
    size = 300
    assert size * specfun._REC_BLOCK > specfun._BLOCK_CELLS
    j0 = rng.integers(2, 60, size)
    m = rng.integers(0, 3, size) * rng.integers(0, 900, size)  # m = 0 next to large m
    assert (m == 0).sum() > 50 and m.max() > 500
    w = rng.uniform(0.01, 40.0, size)
    lp, lc, ls = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size), rng.uniform(-9.0, 9.0, size)
    got = assert_runner_matches_scalar(m, w, j0, lp, lc, ls, {10, 59, 60, 61, 333, 334})
    assert np.count_nonzero(got[334][1] != ls) > 10


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_runner_lane_counts_around_the_scalar_crossover(monkeypatch, offset):
    # a call of _REC_SCALAR_LANES lanes or fewer runs each lane on _recurrence_rows, a wider one
    # the blocks; either way with lanes that join inside a block, a short last block and lanes
    # far past 4n that renormalize
    lanes = specfun._REC_SCALAR_LANES + offset
    b = specfun._REC_BLOCK
    rng = np.random.default_rng(40 + offset)
    j0 = np.array([2, b + b // 2, 5, 2 * b + 3, 40, 7, 3 * b - 1, 2, 11][:lanes])
    w = rng.uniform(0.05, 2.0, lanes)
    w[::2] = rng.uniform(1500.0, 3000.0, w[::2].size)
    lp, lc, ls = rng.uniform(-1.0, 1.0, lanes), rng.uniform(-1.0, 1.0, lanes), rng.uniform(-5.0, 5.0, lanes)
    # the last target ends a short block; 1 and 3 lie below most start rows
    targets = {1, 3, b + 1, 2 * b, 3 * b + 7, 4 * b + b // 3}
    scalar_calls = []
    rows = specfun._recurrence_rows

    def spy(*args):
        scalar_calls.append(args[2])
        return rows(*args)

    for m in (3, rng.integers(0, 40, lanes)):
        monkeypatch.setattr(specfun, "_recurrence_rows", spy)
        got = _recurrence_rows_grid(m, w, j0, lp, lc, ls, targets)
        monkeypatch.undo()
        assert scalar_calls == (j0.tolist() if offset <= 0 else [])
        scalar_calls.clear()
        want = assert_runner_matches_scalar(m, w, j0, lp, lc, ls, targets)
        assert all(np.array_equal(got[t][k], want[t][k]) for t in targets for k in (0, 1))
        assert np.count_nonzero(got[max(targets)][1] > ls) >= 2


def test_runner_with_no_lanes_returns_empty_rows():
    empty = np.array([])
    got = specfun._recurrence_rows_grid(4, empty, np.array([], dtype=int), empty, empty, empty, {10, 11})
    assert sorted(got) == [10, 11]
    assert all(mant.shape == scale.shape == (0,) for mant, scale in got.values())


def m_sum_reference(n, m, w):
    # the cut's finite M sum term by term: (sum, largest |t_r| over r >= 1, at least 1)
    mv, t, mmax = 0.0, 1.0, 1.0
    for r in range(n):
        mv += t
        t *= (r - n) * w / ((m + 1 + r) * (r + 1.0))
        mmax = max(mmax, abs(t))
    return mv + t, mmax


def assert_m_sums_match_reference(n, m, w):
    got = [v.tolist() for v in _cut_m_sum(n, m, w)]
    for i, (ni, mi, wi) in enumerate(zip(n.tolist(), np.broadcast_to(m, n.shape).tolist(), w.tolist())):
        assert [float.hex(v[i]) for v in got] == [float.hex(v) for v in m_sum_reference(ni, mi, wi)], i
    return got


def test_m_sums_across_chunks_match_the_term_loop():
    rng = np.random.default_rng(21)
    # n = 0 and n = 1 among lanes of mixed n, top n 127: the chunks hold _BLOCK_CELLS // 128 lanes each
    n = rng.integers(0, 128, 150)
    n[:7] = (0, 1, 127, 0, 1, 127, 2)
    assert specfun._BLOCK_CELLS // 128 < n.size
    w = rng.uniform(1e-6, 60.0, n.size)
    # M is +inf at the lane's own n; its padded terms past n are NaN
    w[6] = 1e200
    for m in (2, rng.integers(0, 50, n.size)):
        mv, _ = assert_m_sums_match_reference(n, m, w)
        assert mv[6] == math.inf
    # one lane alone, as _log_series_float calls it, and lanes that overflow next to small ones:
    # n = 1999 leaves chunks of _BLOCK_CELLS // 2000 lanes
    assert_m_sums_match_reference(np.array([0]), 3, np.array([0.5]))
    n = np.array([1999, 3, 0, 1999, 1, 1500, 1999, 40, 2, 1999, 0])
    w = np.array([700.0, 2.0, 5.0, 0.3, 1e-9, 650.0, 690.0, 30.0, 0.1, 720.0, 1.0])
    mv, mmax = assert_m_sums_match_reference(n, 0, w)
    assert not np.isfinite([mv[0], mv[5], mv[6], mv[9]]).any()
    assert np.isfinite(np.delete(mv, [0, 5, 6, 9])).all()


def digamma_exit_reference(a, m, w):
    # the iteration r at which _log_series_float's digamma-weighted loop on the cut breaks (negative: fails)
    z, big = -w, a + m
    br = digamma_start_reference(m, a - 1)[-1]
    s, t, r = 0.0, 1.0, 0
    while True:
        s += t * br
        t *= (big + r) * z / ((m + 1 + r) * (r + 1.0))
        br += 1.0 / (big + r) - 1.0 / (1 + r) - 1.0 / (m + 1 + r)
        r += 1
        if r > 4 and abs(t) * (abs(br) + 1.0) < 1e-19 * max(abs(s), 1e-280):
            return r
        if not math.isfinite(s):
            return -r


@pytest.mark.parametrize("orders", [(2, 2), (0, 0), (0, 7)])
def test_digamma_blocks_exit_on_the_scalar_iteration(orders):
    b = specfun._SERIES_BLOCK
    # lanes of order orders[0] at a = 3 and orders[1] at a = 40 (one int when they agree, else an order
    # per lane); for each exit iteration 5 (the first allowed), b - 1, b, b + 1, 2b and 2b + 1, the
    # least w (by bisection: the exit grows with w) whose loop breaks on it
    a, m, w = [], [], []
    for ai, mi in zip((3, 40), orders):
        for r in (5, b - 1, b, b + 1, 2 * b, 2 * b + 1):
            lo, hi = 1e-12, 80.0
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                lo, hi = (lo, mid) if digamma_exit_reference(ai, mi, mid) >= r else (mid, hi)
            assert digamma_exit_reference(ai, mi, hi) == r
            a, m, w = a + [ai], m + [mi], w + [hi]
    # and lanes whose sum s overflows: (1, 1e30) on iteration 12, in the first block, and (1, 720)
    # on iteration 617
    assert [digamma_exit_reference(1, orders[0], wi) for wi in (1e30, 720.0)] == [-12, -617]
    a, m, w = np.array(a + [1, 1]), np.array(m + [orders[0]] * 2), np.array(w + [1e30, 720.0])
    assert a.size * b < specfun._BLOCK_CELLS
    got = _cut_series_grid(a, m if orders[0] != orders[1] else orders[0], w)
    assert got == [_log_series_float(ai, mi, -wi) for ai, mi, wi in zip(a.tolist(), m.tolist(), w.tolist())]
    assert got[-2:] == [_SERIES_FAILED, _SERIES_FAILED]


def digamma_start_reference(m, count):
    # EULER_GAMMA + the harmonic sum from m + 1, one term at a time
    br, out = EULER_GAMMA, [EULER_GAMMA]
    for i in range(m + 1, m + count + 1):
        br += 1.0 / i
        out.append(br)
    return out


# an order per lane, as in a cross section's block
PER_LANE_M = np.array([0, 5, 16, 3, 0, 30, 2, 16, 1, 7, 4, 9, 0, 0])


@pytest.mark.parametrize("m", [0, 3, 16, PER_LANE_M])
def test_cut_series_lanes_match_scalar(m):
    # (2, 1e-9): the digamma series stops on its first allowed iteration, r = 5
    a = np.array([1, 2, 3, 30, 65, 200, 1001, 2000, 3, 40, 1500, 2, 1, 2000])
    w = np.array([0.3, 2.5, 0.01, 9.0, 30.0, 0.05, 0.7, 12.0, 300.0, 25.0, 0.002, 1e-9, 720.0, 700.0])
    ms = np.broadcast_to(m, a.shape).tolist()
    # the steps both paths share, against the loops they replace (float.hex: the overflow is nan)
    assert_m_sums_match_reference(a - 1, m, w)
    for mi in set(ms):
        assert _digamma_starts(mi, int(a.max()) - 1).tolist() == digamma_start_reference(mi, int(a.max()) - 1)
    got = _cut_series_grid(a, m, w)
    want = [_log_series_float(ai, mi, -wi) for ai, mi, wi in zip(a.tolist(), ms, w.tolist())]
    assert got == want
    # (1, 720) overflows in the digamma series, (2000, 700) in the M sum
    assert got[-2:] == [_SERIES_FAILED, _SERIES_FAILED]
    # lanes whose double pass lost its digits, so _reu_settle escalates them
    assert any(_lost_digits(v[1], v[0]) > _MAX_LOST_DIGITS for v in want if v[0] is not None)


@pytest.mark.parametrize(
    "m, n, w",
    [
        (3, 0, [0.5, 7.0]),  # rows 0 and 1 are the Laguerre start rows
        (0, 63, [0.05, 1.0, 9.0]),  # top row 64 = _DIRECT_N: direct series
        (2, 64, [0.05, 1.0, 9.0]),  # top row 65: anchored recurrence
        (16, 200, [0.01, 0.36, 0.37, 0.9]),  # n == n_anchor + 1 below w = 0.366
        (9, 3000, [0.0016, 0.1, 0.45, 1.2]),
    ],
)
def test_lag_reu_pairs_match_scalar(m, n, w):
    # an interior w of half the exterior w on each lane, as in a sweep
    w_in = [0.5 * wi for wi in w]
    lag_in, lag_out, reu = _lag_reu_pairs_grid(m, n, np.array(w_in), np.array(w))
    assert (len(lag_in), len(lag_out), len(reu)) == (len(w),) * 3
    for wi, pair in zip(w_in + w, lag_in + lag_out):
        rows = _laguerre_sweep(m, wi, {n, n + 1})
        assert pair == tuple(specfun._sweep_pair(*rows[j]) for j in (n, n + 1))
    for wi, pair in zip(w, reu):
        assert list(pair) == [(v.sign, v.logmag) for v in _reu_rows(m, wi, n, 2)]
    if n == 200:
        assert [_anchor_row(m, wi, n) + 1 == n for wi in w] == [True, True, False, False]


# a cross section's block at N = 64: rows 64 (anchored), 63 and 61 (direct) and 0, one w
LANE_M = np.array([0, 3, 1, 3, 64, 9])
LANE_N = np.array([64, 64, 63, 61, 0, 64])


def test_lag_reu_pairs_with_an_order_and_row_per_lane_match_scalar():
    w = [0.4] * LANE_M.size
    lag_in, lag_out, reu = _lag_reu_pairs_grid(LANE_M, LANE_N, np.array([1.3] * LANE_M.size), np.array(w))
    for i, (mi, ni) in enumerate(zip(LANE_M.tolist(), LANE_N.tolist())):
        for wi, pair in ((1.3, lag_in[i]), (0.4, lag_out[i])):
            rows = _laguerre_sweep(mi, wi, {ni, ni + 1})
            assert pair == tuple(specfun._sweep_pair(*rows[j]) for j in (ni, ni + 1))
        assert list(reu[i]) == [(v.sign, v.logmag) for v in _reu_rows(mi, 0.4, ni, 2)]


@pytest.mark.parametrize("m, n, fail", [
    (9, 3000, 1),  # an anchored lane: it leaves the recurrence lanes
    (LANE_M, LANE_N, 0),  # anchored, among direct lanes
    (LANE_M, LANE_N, 3),  # direct
], ids=["anchored", "anchored-per-lane", "direct-per-lane"])
def test_lag_reu_pairs_keep_a_failed_lanes_error(monkeypatch, m, n, fail):
    w_out = np.array([0.0016, 0.1, 0.45, 1.2, 0.3, 2.5])
    w_in = 2.0 * w_out
    want = _lag_reu_pairs_grid(m, n, w_in, w_out)
    fail_w = w_out[fail].item()
    real = specfun._reu_settle

    def failing(n, m, w, pieces):
        if w == fail_w:
            raise ConvergenceError(f"cut series failed to stabilize for n={n}, m={m}, w={w}")
        return real(n, m, w, pieces)

    monkeypatch.setattr(specfun, "_reu_settle", failing)
    lag_in, lag_out, reu = _lag_reu_pairs_grid(m, n, w_in, w_out)
    # the failed lane holds the error the scalar rows raise; every other lane keeps its bits
    with pytest.raises(ConvergenceError) as info:
        _reu_rows(np.broadcast_to(m, 6)[fail].item(), fail_w, np.broadcast_to(n, 6)[fail].item(), 2)
    assert isinstance(reu[fail], ConvergenceError) and str(reu[fail]) == str(info.value)
    assert (lag_in, lag_out) == want[:2]
    assert reu[:fail] + reu[fail + 1:] == want[2][:fail] + want[2][fail + 1:]


SWEEPS = [
    # (R^2, N, V, m, energies)
    (0.5, 0, 10.0, 0, grid(10.05, 11.0, 5)),  # N = 0: rows 0 and 1
    (20.0, 10, 6.0, -3, grid(6.05, 20.0, 12)),  # rows <= _DIRECT_N; lanes escalate to mpmath
    (20.0, 63, 10.0, 0, grid(10.05, 35.0, 20)),
    (20.0, 64, 10.0, 2, grid(10.05, 35.0, 20)),
    (20.0, 200, 10.0, 16, grid(10.05, 25.0, 60)),
    (20.0, 1000, 10.0, 4, grid(10.05, 35.0, 50)),
    (20.0, 1000, 10.0, -7, grid(10.05, 40.0, 30)),
    (20.0, 10, 0.0, 2, grid(0.05, 20.0, 20)),  # V = 0: interior and exterior lanes coincide
    (20.0, 3000, 10.0, 9, [10.5, 12.0]),
]


@pytest.mark.parametrize("r2, cap_n, v, m, energies", SWEEPS)
def test_sweep_equals_pointwise_phase_shift(r2, cap_n, v, m, energies):
    spec = WellSpec.from_radius(r2, cap_n, v)
    # the sweep, and each point as a block of one lane, against the scalar solve point by point
    # and each point's residual is the larger of the scalar solve's two row residuals
    scalar = [core._phase_point(e, m, b, max(res)) for e in energies for _, b, res in [scalar_lane(e, spec, m)]]
    got = [(p.m, p.energy, p.tan_delta, p.delta, p.residual) for p in phase_shift_sweep(energies, spec, m)]
    assert got == [(p.m, p.energy, p.tan_delta, p.delta, p.residual) for p in scalar]
    assert [phase_shift(e, spec, m) for e in energies] == scalar


def test_empty_sweep_is_empty():
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    assert phase_shift_sweep([], spec, 4) == []
    # with no energy nothing is checked, as in the per-point loop
    assert phase_shift_sweep([], spec, -20) == []


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def assert_same_failure(energies, spec, m):
    want = raised(lambda: [phase_shift(e, spec, m) for e in energies])
    assert raised(lambda: phase_shift_sweep(energies, spec, m)) == want
    return want


def test_sweep_raises_the_domain_error_of_the_first_bad_energy():
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    kind, msg = assert_same_failure([11.0, 12.0, 9.5, 10.0, 13.0], spec, 4)
    assert kind is DomainError and "E=9.5" in msg
    kind, msg = assert_same_failure([11.0, 12.0], spec, -1001)
    assert kind is DomainError and "cut off" in msg


@pytest.mark.parametrize("fail_at, bad_energy_at", [(4, 2), (4, 7), (2, 7)])
def test_sweep_raises_at_the_first_failing_energy(monkeypatch, fail_at, bad_energy_at):
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    energies = grid(6.05, 20.0, 10)
    # the mpmath pass of the exterior lane of energy fail_at fails; that lane
    # escalates at energies 2..9 of this grid, and Re U is never evaluated inside
    fail_w = spec.theta * (energies[fail_at] - spec.v)
    real = specfun._reu_direct_mp
    fired = []

    def failing(n, m, w, dps):
        if w == fail_w:
            fired.append(w)
            raise ConvergenceError(f"cut series failed to stabilize for n={n}, m={m}, w={w}")
        return real(n, m, w, dps)

    monkeypatch.setattr(specfun, "_reu_direct_mp", failing)
    energies[bad_energy_at] = 5.0  # below V
    kind, msg = assert_same_failure(energies, spec, -3)
    if bad_energy_at < fail_at:
        assert kind is DomainError and "E=5.0" in msg
    else:
        assert kind is ConvergenceError and f"w={fail_w}" in msg
    # a sweep that stops at a bad energy before fail_at never reaches it
    assert bool(fired) == (bad_energy_at > fail_at)
