"""The Re U escalation refuses work past its limit, quickly, and lanes hold the refusal.

specfun._reu_settle raises DomainError where the mpmath escalation is
predicted (start digits times w + n + 1 series terms) to pass
_MP_MAX_WORK.  Each call below used to run for minutes; each must now
raise within 1 s, and a sweep or a partial-wave sum must raise what the
point-by-point loop raises, at the same point.
"""

import time

import numpy as np
import pytest

from ncwell import specfun
from ncwell.core import WellSpec, cross_section_total, phase_shift, phase_shift_sweep
from ncwell.errors import DomainError
from ncwell.specfun import _lag_reu_pairs_grid, _reu_rows, re_u_neg

SPEC = WellSpec.from_radius(20, 10, 6)


def raised_within(fn, seconds):
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        fn()
    assert time.perf_counter() - start < seconds
    return str(info.value)


@pytest.mark.parametrize("call, row, w", [
    (lambda: phase_shift(1e6, SPEC, 0), 10, SPEC.theta * (1e6 - SPEC.v)),
    (lambda: re_u_neg(100, 3, 1e9), 99, 1e9),
    (lambda: re_u_neg(100, 3, 2e4), 99, 2e4),
], ids=["phase_shift-1e6", "re_u_neg-1e9", "re_u_neg-2e4"])
def test_escalations_past_the_limit_raise_within_a_second(call, row, w):
    msg = raised_within(call, 1.0)
    # the row named is the series row that escalates, an anchor row below the caller's n past _DIRECT_N
    assert f"series row n={row}, m=" in msg and f"w={w}" in msg and f"{specfun._MP_MAX_WORK:g}" in msg


def test_escalation_below_the_limit_still_runs():
    # the two series rows of re_u_neg(100, 3, 2e3) escalate to about 1300 digits, 2.7e6 digit-terms
    pieces = specfun._reu_pieces_float(99, 3, 2e3)
    dps = specfun._mp_start(pieces, 103, -2e3)
    assert dps * (2e3 + 100) <= specfun._MP_MAX_WORK
    assert re_u_neg(100, 3, 2e3).sign == -1


def test_lane_pass_holds_the_refusal_for_its_lane():
    w_out = np.array([0.5, SPEC.theta * (1e6 - SPEC.v), 3.0, 2e4])
    lag_in, lag_out, reu = _lag_reu_pairs_grid(0, 10, 2.0 * w_out, w_out)
    for i, wi in enumerate(w_out.tolist()):
        try:
            want = _reu_rows(0, wi, 10, 2)
        except DomainError as exc:
            assert isinstance(reu[i], DomainError) and str(reu[i]) == str(exc)
        else:
            assert list(reu[i]) == want
    assert [isinstance(r, DomainError) for r in reu] == [False, True, False, True]


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is part of what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("energies", [
    [20.0, 1e6, 30.0, 3e4],
    [20.0, 30.0, 5.0, 1e6],  # the energy below V comes first
    [3e4, 20.0, 1e6],
])
def test_sweep_raises_in_point_order(energies):
    want = outcome(lambda: [phase_shift(e, SPEC, 2) for e in energies])
    assert outcome(lambda: phase_shift_sweep(energies, SPEC, 2)) == want
    assert want[0] is DomainError


def test_partial_wave_sum_raises_the_first_refused_wave():
    msg = raised_within(lambda: cross_section_total(1e6, SPEC, 40), 1.0)
    assert msg == outcome(lambda: phase_shift(1e6, SPEC, 0))[1]
