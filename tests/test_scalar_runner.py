"""The scalar recurrence runner against its every-step-tested reference.

specfun._recurrence_rows tests for renormalization only on the steps where
the pair may have left [1e-250, 1e250]; scalar_reference._recurrence_rows
tests after every step.  Every row must come out with the same bytes of
mantissa and log scale (NaN payloads and the sign of zero count).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncwell.specfun import _anchor_row, _recurrence_rows, _reu_anchor_start, _reu_direct
from scalar_reference import _recurrence_rows as reference_rows


def bits(x):
    # the bytes of a float64: NaN payloads and the sign of zero count
    return np.float64(x).tobytes()


def assert_matches_reference(m, w, j0, lp, lc, ls, targets):
    got = _recurrence_rows(m, w, j0, lp, lc, ls, targets)
    want = reference_rows(m, w, j0, lp, lc, ls, targets)
    assert sorted(got) == sorted(want) == sorted(set(targets))
    for t in want:
        assert (bits(got[t][0]), bits(got[t][1])) == (bits(want[t][0]), bits(want[t][1])), t
    return got


@pytest.mark.parametrize("m", [0, 7, 150, 900])
@pytest.mark.parametrize("w", [1e-3, 0.5, 40.0, 3000.0, 2e5, -500.0, -1e4])
def test_laguerre_lanes_that_renormalize_many_times(m, w):
    # |w| past 4n and m = 900 grow through 1e250 again and again; start rows below 1e-250
    # renormalize down on the first step, then grow
    targets = {2, 3, 50, 999, 1000, 2999, 3000}
    got = assert_matches_reference(m, w, 2, 1.0, 1.0 + m - w, 0.0, targets)
    low = assert_matches_reference(m, w, 2, 1e-300, -3e-301, 0.0, targets)
    assert low[2][1] < math.log(1e-250)
    if abs(w) >= 3000.0 or m == 900:
        assert got[3000][1] > 2 * math.log(1e250)
        assert low[3000][1] > low[2][1] + math.log(1e250)


def test_lanes_that_renormalize_up_and_down():
    # huge start rows that renormalize on the first step, then grow again past 1e250
    for lp, lc in ((1e300, -2e299), (1e-300, 5e-301), (3e249, 1e249), (1e-250, 0.0)):
        got = assert_matches_reference(3, 2500.0, 2, lp, lc, 0.0, {10, 200, 2000})
        assert got[2000][1] > 0.0
    # a pair that falls below 1e-250 first: L^900 rows at small w scaled down, then rise
    got = assert_matches_reference(900, 1e-2, 2, 1e-249, 1e-249, -5.0, {3, 100, 1500})
    assert got[3][1] == -5.0 and got[1500][1] != -5.0


@pytest.mark.parametrize("lane", range(10))
def test_lanes_that_go_inf_or_nan_or_stay_zero(lane):
    # the lanes of test_sweep_grid.test_runner_lanes_that_go_inf_or_nan
    j0 = [2, 2, 5, 9, 9, 20, 40, 40, 70, 70][lane]
    w = [0.5, 1e200, 1e300, 0.7, math.nan, 2.0, math.inf, 1.1, 0.3, 1e250][lane]
    lp = [1.0, 1.0, 1.0, math.inf, 1.0, math.nan, 1.0, -math.inf, 1.0, 1.0][lane]
    lc = [0.5, 1.0, 1e10, 1.0, 1.0, 1.0, 1.0, 1.0, math.nan, 1e100][lane]
    m = [0, 2, 7, 0, 1, 3, 0, 5, 9, 2][lane]
    got = assert_matches_reference(m, w, j0, lp, lc, 0.0, {80, 81})
    assert math.isfinite(got[81][0] * got[81][1]) == (lane == 0)


@pytest.mark.parametrize("w", [0.3, 7.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("start", [(0.0, 0.0), (-0.0, 0.0), (0.0, 1.0), (5e-324, 0.0)])
def test_zero_and_subnormal_start_pairs(w, start):
    assert_matches_reference(4, w, 3, *start, 1.5, {1, 2, 3, 40, 600})


@pytest.mark.parametrize("j0", [2, 3, 17, 500])
def test_targets_below_and_at_the_start_rows(j0):
    # a target j0 - 2 or j0 - 1 reads a start row; the runner still runs to the later ones
    targets = {j0 - 2, j0 - 1, j0, j0 + 1, j0 + 64, j0 + 700}
    got = assert_matches_reference(5, 1200.0, j0, 0.25, -0.75, 3.0, targets)
    assert got[j0 - 2] == (0.25, 3.0) and got[j0 - 1] == (-0.75, 3.0)
    assert assert_matches_reference(5, 1200.0, j0, 0.25, -0.75, 3.0, {j0 - 2}) == {j0 - 2: (0.25, 3.0)}
    assert assert_matches_reference(5, 1200.0, j0, 0.25, -0.75, 3.0, ()) == {}


@pytest.mark.parametrize("m, w, n", [(0, 0.4, 1000), (3, 1.7, 1000), (16, 0.35, 3000), (40, 2.5, 400), (4, 0.05, 2000)])
def test_re_u_anchor_starts(m, w, n):
    # the start rows _reu_rows takes: two series rows past the turning points, rescaled by (j+m)!
    n_anchor = _anchor_row(m, w, n)
    start = _reu_anchor_start(n_anchor, m, _reu_direct(n_anchor, m, w), _reu_direct(n_anchor + 1, m, w))
    assert_matches_reference(m, w, n_anchor + 2, *start, range(n, n + 2))
    assert_matches_reference(m, w, n_anchor + 2, *start, {n_anchor, n_anchor + 1, n + 1})


_starts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 3e-251, 1e-250, 1e250, 2e250, 1e300, math.inf, math.nan])
_args = st.sampled_from([0.0, 0.5, 3.0, 40.0, 4e3, 2e5, 1e60, 1e300, math.inf, math.nan])


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    m=st.integers(-3, 400),
    w=st.one_of(st.floats(-5e3, 5e3), _args, _args.map(lambda x: -x)),
    j0=st.integers(2, 300),
    lp=st.one_of(st.floats(-1e3, 1e3), _starts),
    lc=st.one_of(st.floats(-1e3, 1e3), _starts),
    ls=st.floats(-700.0, 700.0),
    offsets=st.sets(st.integers(-2, 2500), max_size=6),
)
def test_random_lanes_match_the_reference(m, w, j0, lp, lc, ls, offsets):
    assert_matches_reference(m, w, j0, lp, lc, ls, {j0 + k for k in offsets})

