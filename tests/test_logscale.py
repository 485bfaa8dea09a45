import math

import pytest
from hypothesis import given, strategies as st

from ncwell.logscale import LogScaled, ONE, ZERO, ls_exp

logmags = st.floats(min_value=-600.0, max_value=600.0, allow_nan=False)
signs = st.sampled_from([-1, 1])


def ls(sign, logmag):
    return LogScaled.from_log(sign, logmag)


@given(signs, logmags, signs, logmags)
def test_mul_div_roundtrip(sa, la, sb, lb):
    a, b = ls(sa, la), ls(sb, lb)
    back = (a * b) / b
    assert back.sign == a.sign
    # logmag goes through one add and one subtract of lb; each rounds at the
    # spacing of the intermediate magnitude
    slack = 2.0 * math.ulp(max(abs(la + lb), abs(la), abs(lb)))
    assert abs(back.logmag - a.logmag) <= slack


@given(signs, logmags, signs, logmags)
def test_add_commutative(sa, la, sb, lb):
    a, b = ls(sa, la), ls(sb, lb)
    assert (a + b) == (b + a)


@given(signs, logmags, signs, logmags, signs, logmags)
def test_add_monotone(sa, la, sb, lb, sc, lc):
    a, b, c = ls(sa, la), ls(sb, lb), ls(sc, lc)
    lo, hi = (a, c) if a <= c else (c, a)
    assert lo + b <= hi + b


@given(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False), signs)
def test_float_roundtrip(mag, sign):
    # exact to floating precision: the exp/log pair rounds at ulp(logmag)
    x = sign * mag
    v = LogScaled.from_float(x)
    assert abs(v.logmag) < 700.0
    slack = (abs(v.logmag) + 2.0) * math.ulp(1.0)
    assert v.to_float() == pytest.approx(x, rel=slack)


def test_add_cutoff_returns_larger_unchanged():
    big = ls(1, 100.0)
    small = ls(-1, 100.0 - 746.0)
    assert (big + small) == big
    assert (small + big) == big
    # a modest gap still registers
    near = ls(-1, 90.0)
    assert (big + near) != big


def test_zero_and_signs():
    assert ZERO.is_zero()
    assert (ZERO + ONE) == ONE
    assert (ONE - ONE).is_zero()
    assert (-ZERO) == ZERO
    assert abs(ls(-1, 3.0)) == ls(1, 3.0)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_exact_cancellation():
    a = ls(1, 12.34)
    assert (a - a).is_zero()


def test_ordering_matches_real_values():
    vals = [-3.0, -0.5, 0.0, 0.25, 7.0]
    lss = [LogScaled.from_float(v) for v in vals]
    for i in range(len(vals)):
        for j in range(len(vals)):
            assert (lss[i] < lss[j]) == (vals[i] < vals[j])
            assert (lss[i] <= lss[j]) == (vals[i] <= vals[j])


def test_sum_and_helpers():
    xs = [1.5, -0.25, 3.0, -4.25]
    total = sum((LogScaled.from_float(x) for x in xs), ZERO)
    assert total.to_float() == pytest.approx(sum(xs), rel=1e-14)
    assert ls_exp(0.0).to_float() == 1.0
    assert ls_exp(1.0, sign=-1).to_float() == pytest.approx(-math.e)


def test_overflow_to_float_is_inf():
    assert ls(1, 1000.0).to_float() == math.inf
    assert ls(-1, 1000.0).to_float() == -math.inf
    assert ls(1, -1000.0).to_float() == 0.0


def test_constructors_refuse_what_they_cannot_represent():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="cannot represent non-finite value"):
            LogScaled.from_float(x)
    with pytest.raises(ValueError, match=r"sign must be -1, 0 or \+1"):
        LogScaled.from_log(2, 0.0)
