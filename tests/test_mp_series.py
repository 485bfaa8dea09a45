"""The integer-b log series against 50-digit mpmath hyperu.

_reu_direct_mp (the branch cut) and kummer_u (the positive axis) must
return the sign of U(a, 1-m, z) at 50 digits (its real part on the cut) and
a log magnitude equal to float(log|...|) to the last bit.  The arguments are
escalations of a README-well cross-section and phase-shift sweep, positive-
axis cases that need several passes, lie far past (a+m+1)x = 4 or have a
finite tail that dips deep before it grows, and random draws over the
region the cross sections escalate in; two more are checked against
stored 50-digit values, as hyperu takes seconds on them.  A double
pass that keeps its digits must be within 2e-11 of the reference in log
magnitude, at large a too.
"""

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ncwell import specfun
from ncwell.errors import ConvergenceError


def reference(a: int, m: int, z: float) -> tuple:
    with mp.workdps(50):
        v = mp.re(mp.hyperu(a, 1 - m, z))
        return int(mp.sign(v)), float(mp.log(abs(v)))


def assert_matches(got, a, m, z):
    assert (got.sign, got.logmag) == reference(a, m, z)


# (n, m, w, dps) as the cross-section and phase-shift sweeps escalate them
CUT_CASES = [
    (999, 46, 0.5842278860569715, 35),
    (1000, 51, 0.4842778610694653, 28),
    (1000, 41, 0.31007496251874067, 27),
    (889, 43, 0.5842278860569715, 35),
    (984, 17, 0.08245877061469266, 27),
    (125, 16, 0.5842278860569715, 27),
    (397, 17, 0.20507746126936532, 27),
    (557, 34, 0.5842278860569715, 32),
    (4, 1, 1.5122039496626576, 30),
    (18, 6, 0.7188616082603253, 28),
]

# (a, m, x) whose float pass escalates; the first four need 2 or 3 mpmath
# passes, and the third and fourth lose nearly all digits of their early
# passes and stalled after five passes while a retry added only the measured loss
POS_CASES = [
    (20, 3, 12.0),
    (60, 5, 10.0),
    (928, 28, 6.306),
    (300, 30, 20.0),
    # past (a+m+1)x = 4; a quadrature anchor times a - 1 CF ratios puts
    # log U 5.0e-10 and 4.2e-10 off at a = 1001 and 3001
    (1001, 0, 0.057),
    (3001, 0, 0.5),
    (200, 61, 3.0),
    (11, 6, 4.0),
    # the float pass overflows, and the mpmath pass starts from the growth bound
    (1, 0, 2000.0),
    # the finite tail dips by about e^-x and then grows by hundreds of orders; a
    # tail truncated in units of the pass puts log U 2.7e-6 and 2.3e-9 off
    (41, 603, 74.4951931194454),
    (43, 380, 81.18177363629609),
]


# (a, m, z) whose double pass keeps its digits, having lost 2.7 to 3.5 of them; the
# first four are from a bound-state scan and from kummer_u's accuracy sample, where
# summing the pieces as LogScaled values put log U 2.9e-9, 1.9e-9, 7.1e-10 and
# 2.8e-10 off; the rest are cut lanes (n+1, m, -w) of the phase-shift and
# cross-section workloads
KEPT_CASES = [
    (1001, 0, 0.003810803680634595),
    (1865, 10, 0.011248822677487167),
    (358, 18, 0.151),
    (716, 19, 0.0811),
    (797, 15, -0.07552608083855797),
    (477, 15, -0.13295984611685502),
    (417, 14, -0.13298350824587707),
    (1000, 20, -0.10149925037481261),
]


@pytest.mark.parametrize("a, m, z", KEPT_CASES)
def test_kept_float_pass_matches_hyperu(a, m, z):
    val, max_piece_log = specfun._log_series_float(a, m, z)
    assert specfun._lost_digits(max_piece_log, val) <= specfun._MAX_LOST_DIGITS
    sign, logmag = reference(a, m, z)
    assert val.sign == sign
    assert abs(val.logmag - logmag) <= 2e-11


@pytest.mark.parametrize("n, m, w, dps", CUT_CASES)
def test_cut_escalation_matches_hyperu(n, m, w, dps):
    assert_matches(specfun._reu_direct_mp(n, m, w, dps), n + 1, m, -w)


@pytest.mark.parametrize("a, m, x", POS_CASES)
def test_positive_axis_escalation_matches_hyperu(a, m, x):
    val, max_piece_log = specfun._log_series_float(a, m, x)
    assert val is None or specfun._lost_digits(max_piece_log, val) > specfun._MAX_LOST_DIGITS
    assert_matches(specfun.kummer_u(a, 1 - m, x), a, m, x)


# (a, m, x, sign, log|U|): positive-axis passes whose fixed-point q after a
# loss beyond the pass's digits is noise of about that loss, so they escalate
# to the term-growth start; 50-digit hyperu, stored as it takes 6-12 s on each
STORED_CASES = [
    (1532, 26, 85.41129277051787, 1, -10426.363844499314),
    (1587, 41, 80.59575039271883, 1, -10849.313627564652),
]


@pytest.mark.parametrize("a, m, x, sign, logmag", STORED_CASES)
def test_positive_axis_escalation_past_a_noise_pass_matches_stored_hyperu(a, m, x, sign, logmag):
    got = specfun.kummer_u(a, 1 - m, x)
    assert (got.sign, got.logmag) == (sign, logmag)


def test_stalled_digamma_series_names_its_arguments(monkeypatch):
    monkeypatch.setattr(specfun, "_MP_MAX_TERMS", 5)
    with pytest.raises(ConvergenceError, match=r"for a=20, m=3, x=12\.0: digamma series ran past 5 terms"):
        specfun.kummer_u(20, -2, 12.0)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    n=st.integers(100, 1000),
    m=st.integers(15, 55),
    w=st.floats(0.08, 0.6),
    dps=st.integers(27, 35),
)
def test_cut_escalation_region_matches_hyperu(n, m, w, dps):
    assert_matches(specfun._reu_direct_mp(n, m, w, dps), n + 1, m, -w)


@settings(deadline=None, max_examples=15, derandomize=True)
@given(a=st.integers(1, 300), m=st.integers(0, 30), x=st.floats(6.0, 20.0))
def test_positive_axis_mp_pass_matches_hyperu(a, m, x):
    # the pass kummer_u escalates to, from a fixed 30-digit start instead of
    # the 24 digits above the float pass's loss that _mp_start picks
    assert_matches(specfun._log_series_mp(a, m, x, 30, "positive-axis series"), a, m, x)


@pytest.mark.parametrize("f, lo, hi", [
    (130, 3, 1030),  # a README escalation: rows past 1000, m = 3
    (130, 46, 1047),  # the same precision, a larger table
    (151, 0, 0), (151, 0, 1), (151, 5, 5),  # empty sums and a single term
    (200, 511, 1023), (200, 511, 1024),  # either side of a table size
    (151, 32, 96), (151, 31, 97),  # on and beside the checkpoints
    (4000, 17, 64),
])
def test_harmonic_start_from_the_prefix_table_is_the_direct_sum(f, lo, hi):
    one = 1 << f
    assert specfun._harmonic_fixed(f, lo, hi) == sum(one // i for i in range(lo + 1, hi + 1))
