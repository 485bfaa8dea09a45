"""The scattering lane pass's kernels against the forms they replace, byte for byte.

specfun._recurrence_rows_grid is held to the every-step-tested scalar
runner of scalar_reference, specfun._cut_m_sum to its frozen zero-stop
form there, and specfun._cut_tail_grid to the scalar _log_series_tail it
runs on lanes.  Floats are compared by their bytes, so NaN payloads and
the sign of zero count.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwell import specfun
from ncwell.specfun import _SERIES_FAILED, _cut_m_sum, _cut_tail_grid, _log_series_tail, _recurrence_rows_grid
import scalar_reference as ref


def bits(x):
    return np.float64(x).tobytes()


# ---------------------------------------------------------------------------
# the lane recurrence runner
# ---------------------------------------------------------------------------

def sign_changes(m, w, j0, lp, lc, ls, t):
    # sign changes of rows j0 - 2 .. t of the reference lane, a zero row counting as positive
    rows = ref._recurrence_rows(m, w, j0, lp, lc, ls, range(j0 - 2, t + 1))
    neg = [rows[j][0] < 0.0 for j in range(j0 - 2, t + 1)]
    return sum(a != b for a, b in zip(neg, neg[1:]))


def assert_runner_matches_reference(m, w, j0, lp, lc, ls, targets, count=False):
    got = _recurrence_rows_grid(m, w, j0, lp, lc, ls, targets, count)
    assert sorted(got) == sorted(set(targets))
    ms = np.broadcast_to(m, w.shape).tolist()
    for i in range(w.size):
        args = (ms[i], w[i].item(), int(j0[i]), lp[i].item(), lc[i].item(), ls[i].item())
        # a target below a lane's row j0 - 2 reads its row j0 - 2
        want = ref._recurrence_rows(*args, [t for t in targets if t >= j0[i] - 2])
        want.update({t: (lp[i].item(), ls[i].item()) for t in targets if t < j0[i] - 2})
        for t in targets:
            assert (bits(got[t][0][i]), bits(got[t][1][i])) == (bits(want[t][0]), bits(want[t][1])), (i, t)
            if count:
                assert got[t][2][i] == sign_changes(*args, t), (i, t)
    return got


def lanes(j0, seed):
    # (w, j0, lp, lc, ls) of lanes starting at rows j0
    rng = np.random.default_rng(seed)
    size = len(j0)
    w = rng.uniform(0.05, 3.0, size)
    lp, lc, ls = rng.uniform(-1.0, 1.0, size), rng.uniform(-1.0, 1.0, size), rng.uniform(-5.0, 5.0, size)
    return w, np.array(j0), lp, lc, ls


@pytest.mark.parametrize("m", [4, np.arange(16) % 7])
def test_runner_joins_at_each_step_of_a_block(m):
    # two lanes from row 2 set full blocks of _REC_BLOCK steps from row 2; the others join on the
    # first, a middle and the last step of the second block, several on one step and several in
    # one block, and the third block has no join
    b = specfun._REC_BLOCK
    first, middle, last = 2 + b, 2 + b + b // 2, 1 + 2 * b
    j0 = [2, 2, first, first, middle, middle + 1, middle + 3, last, last, first + 1, 2, 2, 2, middle, last, 2]
    targets = {3, b, first - 1, first, middle, last, last + 1, 2 + 2 * b + b // 3, 3 * b + 5}
    assert_runner_matches_reference(m, *lanes(j0, 31), targets)


def test_runner_blocks_with_no_join():
    # every lane starts on one row: only the first block has a join
    b = specfun._REC_BLOCK
    w, j0, lp, lc, ls = lanes([7] * 12, 32)
    w[:4] = (1500.0, 2800.0, 40.0, 300.0)  # lanes that grow through 1e250 and renormalize
    got = assert_runner_matches_reference(3, w, j0, lp, lc, ls, {5, 6, 7, 8, 7 + b, 6 + 3 * b, 9 + 5 * b, 900})
    assert np.count_nonzero(got[900][1] != ls) >= 2


@pytest.mark.parametrize("m", [0, 5, np.array([0, 2, 9, 1, 0, 30, 4, 4, 11, 3, 7, 2])])
def test_counted_runner_matches_the_reference(m):
    # a counted call: every lane starts on one row, so only the first block has a join;
    # targets on, before and after block edges, and past a renormalization
    b = specfun._REC_BLOCK
    w, j0, lp, lc, ls = lanes([2] * 12, 33)
    w[:3] = (2000.0, 700.0, 12.0)
    targets = {0, 1, 2, 3, b, 1 + b, 2 + b, 3 * b, 400, 401}
    assert_runner_matches_reference(m, w, j0, lp, lc, ls, targets, count=True)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    data=st.lists(
        st.tuples(st.integers(2, 200), st.floats(0.01, 60.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        min_size=specfun._REC_SCALAR_LANES + 1, max_size=24,
    ),
    m=st.integers(0, 40),
    offsets=st.sets(st.integers(-2, 400), min_size=1, max_size=5),
)
def test_random_lane_runs_match_the_reference(data, m, offsets):
    j0, w, lp, lc = (np.array(col) for col in zip(*data))
    ls = np.zeros(j0.size)
    assert_runner_matches_reference(m, w, j0, lp, lc, ls, {int(j0.min()) + k for k in offsets})


# ---------------------------------------------------------------------------
# the cut's finite M sum
# ---------------------------------------------------------------------------

def assert_m_sums_match_frozen(n, m, w):
    got, want = _cut_m_sum(n, m, w), ref._cut_m_sum(n, m, w)
    for g, f in zip(got, want):
        assert g.tobytes() == f.tobytes()
    return got


def quarter_ulp_w(n, m, k):
    # a w whose first term of M(-n, m+1, w) is -k quarter ulps of 1.0: the sum sits on 1.0, a
    # power of two, where the spacing below is half the spacing above
    return k * 0.25 * np.spacing(1.0) * (m + 1) / n


def test_m_sums_on_a_power_of_two():
    n = np.array([900, 900, 900, 900, 900, 1500, 40, 0, 1, 2000])
    ks = [0.9, 0.99, 1.0, 1.01, 1.5, 2.5, 1.0, 1.0, 1.0, 3.9]
    w = np.array([quarter_ulp_w(max(ni, 1), 3, k) for ni, k in zip(n.tolist(), ks)])
    mv, mmax = assert_m_sums_match_frozen(n, 3, w)
    # the lanes at a quarter ulp and less keep 1.0; from half an ulp below on the first add moves them
    assert mv.tolist()[:3] == [1.0, 1.0, 1.0] and mv[5] < 1.0


def test_m_sums_that_are_negative_or_read_before_the_stop():
    # n w near 4 puts M(-n, 1, w) ~ J0(2 sqrt(n w)) below 0, n w near 10 M(-n, 3, w) ~ 8 J2(x) / x^2,
    # x = 2 sqrt(n w); the small n are read in the first blocks, before the long lanes' terms settle
    n = np.array([2000, 1800, 2000, 1500, 1999, 3, 0, 64, 65, 128, 700, 2000])
    w = np.array([2e-3, 2.5e-3, 5e-3, 7e-3, 1e-3, 0.7, 5.0, 0.9, 0.06, 0.2, 4e-3, 1e-9])
    for m in (0, 2, np.array([0, 1, 2, 2, 0, 3, 7, 0, 1, 4, 0, 9])):
        mv, _ = assert_m_sums_match_frozen(n, m, w)
        assert (mv < 0.0).sum() >= 2


def test_m_sums_that_overflow_next_to_settling_lanes():
    # huge n w overflows to inf, and past the lane's n its terms are NaN; the other lanes settle early
    n = np.array([1999, 3000, 64, 129, 1999, 500, 2500, 65, 0])
    w = np.array([700.0, 1e-4, 1e200, 1e150, 0.01, 900.0, 5e-6, 1e-300, 1e300])
    for m in (0, np.array([0, 3, 1, 12, 0, 2, 40, 0, 5])):
        mv, mmax = assert_m_sums_match_frozen(n, m, w)
        assert not np.isfinite(np.take(mv, [0, 2, 3, 5])).any()
        assert np.isnan(mv).any() or np.isnan(mmax).any() or np.isinf(mv).sum() >= 2


def test_settled_terms_cannot_move_the_sum():
    # on a power of two the spacing below is half that above: a term of 0.26 spacings toward 0
    # moves the sum, so the rule must not settle it; 0.24 spacings does not, and settles
    for s in (1.0, -0.5, 2.0 ** -1000, -(2.0 ** 900), 3.0, -5.0):
        spacing = abs(np.spacing(s))
        for frac, moves in ((0.26, s in (1.0, -0.5, 2.0 ** -1000, -(2.0 ** 900))), (0.24, False)):
            t = -math.copysign(frac * spacing, s)
            assert (s + t != s) == moves
            assert specfun._m_sum_settled(np.array([t]), np.array([s]), np.array([0.5])).item() == (frac < 0.25)
    # a ratio above 1, a sum of inf or NaN or the largest float never settles; a 0.0 term always does
    top = np.finfo(float).max
    with np.errstate(over="ignore"):
        got = specfun._m_sum_settled(np.array([1e-30, 1e-30, 1e-30, 1e300, 0.0, -0.0]),
                                     np.array([1.0, np.inf, np.nan, top, 2.0, np.nan]),
                                     np.array([1.5, 0.5, 0.5, 0.5, 9.0, 9.0]))
    assert float(top) + 1e300 == math.inf
    assert got.tolist() == [False, False, False, False, True, True]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    s=st.floats(-1e308, 1e308).filter(lambda x: x != 0.0),
    frac=st.floats(0.0, 1.0),
    ratio=st.floats(-1.0, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_a_settled_sum_stays_put(s, frac, ratio, sign):
    t = sign * frac * 0.3 * abs(np.spacing(s))
    if specfun._m_sum_settled(np.array([t]), np.array([s]), np.array([ratio])).item():
        # every later term is t times ratios of magnitude <= 1
        assert s + t == s and s + t * ratio == s and s + t * ratio * ratio == s


def test_m_sums_of_one_lane_and_of_none():
    for ni, wi in ((0, 3.0), (1, 0.5), (300, 1e-12), (300, 1e-3), (5000, 2e-4)):
        assert_m_sums_match_frozen(np.array([ni]), 4, np.array([wi]))
    empty = _cut_m_sum(np.array([], dtype=np.int64), 2, np.array([]))
    assert [a.shape for a in empty] == [(0,), (0,)]


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 2500),
            st.integers(0, 60),
            st.one_of(st.floats(1e-18, 50.0), st.sampled_from([1e-300, 1e-16, 1e150, 1e300])),
        ),
        min_size=1, max_size=40,
    ),
    one_order=st.booleans(),
)
def test_random_m_sums_match_frozen(data, one_order):
    n, m, w = (np.array(col) for col in zip(*data))
    assert_m_sums_match_frozen(n, int(m[0]) if one_order else m, w.astype(float))


# ---------------------------------------------------------------------------
# the series tail on lanes
# ---------------------------------------------------------------------------

def result_bits(result):
    # a _log_series_tail result with its floats as bytes
    (val, big) = result
    return (None if val is None else (val[0], bits(val[1])), bits(big))


def assert_tails_match_scalar(a, m, w, mv, mmax, s, smax):
    mv, mmax, s, smax, w = ([float(x) for x in v] for v in (mv, mmax, s, smax, w))
    got = _cut_tail_grid(np.array(a), m if np.ndim(m) == 0 else np.array(m), np.array(w, dtype=float),
                         *(np.array(v, dtype=float) for v in (mv, mmax, s, smax)))
    ms = np.broadcast_to(m, (len(a),)).tolist()
    want = [
        _log_series_tail(ai, mi, -wi, mvi, mmi, si, smi)
        for ai, mi, wi, mvi, mmi, si, smi in zip(a, ms, w, mv, mmax, s, smax)
    ]
    assert [result_bits(g) for g in got] == [result_bits(v) for v in want]
    return want


def tail_over_pref(a, m, w):
    # the finite tail T of _log_series_tail on the cut, term by term
    if not m:
        return 0.0
    t = tail = m / ((a + m - 1) * w)
    for r in range(m - 1, 0, -1):
        t *= (m - r) * r / ((a + r - 1) * w)
        tail += t
    return tail


@pytest.mark.parametrize("m", [0, 1, 2, 50, 300])
def test_tails_of_one_order(m):
    a = [1, 2, 30, 65, 901, 3, 1, 2000]
    w = [0.3, 2.5, 9.0, 1e-3, 40.0, 700.0, 1e-9, 0.37]
    rng = np.random.default_rng(m)
    mv, s = rng.uniform(-3.0, 3.0, len(a)), rng.uniform(-3.0, 3.0, len(a))
    mmax, smax = rng.uniform(1.0, 1e4, len(a)), rng.uniform(0.0, 1e4, len(a))
    assert_tails_match_scalar(a, m, w, mv, mmax, s, smax)


def test_tails_of_mixed_orders():
    m = [0, 1, 2, 50, 300, 7, 0, 300, 3, 1]
    a = [4, 1, 2, 30, 65, 901, 3, 1, 2000, 12]
    w = [0.4, 0.3, 2.5, 9.0, 1e-3, 40.0, 700.0, 1e-9, 0.37, 1e6]
    rng = np.random.default_rng(7)
    args = [rng.uniform(-3.0, 3.0, len(a)), rng.uniform(1.0, 10.0, len(a)),
            rng.uniform(-3.0, 3.0, len(a)), rng.uniform(0.0, 10.0, len(a))]
    assert_tails_match_scalar(a, m, w, *args)
    # a wide call of high orders runs in several chunks of the cell cap
    size = 2 * specfun._BLOCK_CELLS // 300 + 3
    assert_tails_match_scalar([40] * size, 300, list(np.geomspace(1e-3, 1e3, size)), *([1.0] * size,) * 4)


def test_tails_that_cancel_to_zero():
    # s is the tail itself and M is 0, so q = -(0 + s) + T is exactly 0
    a, m, w = [5, 1, 30, 2], [3, 0, 50, 1], [0.6, 2.0, 11.0, 1e-3]
    s = [tail_over_pref(*args) for args in zip(a, m, w)]
    want = assert_tails_match_scalar(a, m, w, [0.0] * 4, [1.0] * 4, s, [1.0] * 4)
    assert [v for v, _ in want] == [specfun._ZERO_PAIR] * 4


def test_tails_that_overflow_or_are_nan():
    inf, nan = math.inf, math.nan
    a = [3, 3, 3, 3, 3, 3, 2, 40, 1, 5, 5, 5]
    m = [2, 2, 2, 0, 4, 1, 300, 300, 5, 0, 2, 2]
    w = [0.5, 0.5, 0.5, 0.5, 0.5, nan, 1e-300, 1e-200, 1e300, 700.0, 5e-324, 1e-3]
    mv = [1e308, nan, 1.0, inf, 1.0, 1.0, 1.0, 1.0, 2.0, 1e307, 1.0, 1.0]
    s = [1e308, 0.5, inf, 1.0, nan, 0.0, 1.0, 1.0, -1.0, -1e308, 1.0, -inf]
    mmax = [1e308, nan, 1.0, inf, 1.0, 1.0, 1.0, 1.0, 2.0, 1e308, 1.0, 1.0]
    smax = [1e308, 0.5, inf, 1.0, nan, 0.0, 1.0, 1.0, 1.0, 1e308, 1.0, inf]
    want = assert_tails_match_scalar(a, m, w, mv, mmax, s, smax)
    assert want.count(_SERIES_FAILED) >= 8


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    data=st.lists(
        st.tuples(
            st.integers(1, 3000),
            st.integers(0, 320),
            st.one_of(st.floats(1e-12, 1e4), st.sampled_from([5e-324, 1e-300, 1e300, math.inf, math.nan])),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        min_size=1, max_size=30,
    ),
    one_order=st.booleans(),
)
def test_random_tails_match_scalar(data, one_order):
    a, m, w, mv, s = (list(col) for col in zip(*data))
    if one_order:
        m = m[0]
    mmax = [abs(v) for v in mv]
    smax = [abs(v) for v in s]
    assert_tails_match_scalar(a, m, w, mv, mmax, s, smax)
