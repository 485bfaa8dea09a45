"""One value format below the public API: (sign, log magnitude) pairs.

Every private kernel that carries a Fock-basis value returns it as a plain
(sign, log magnitude) tuple, the zero being (0, 0.0); the kernels that read
such values take them as tuples.  LogScaled is built only where a public
function returns one, from the pairs of the kernels below it, bit for bit.
"""

import math

import numpy as np
import pytest

from ncwell import core, specfun
from ncwell.core import EXTERIOR, INTERIOR, RegionSolution, WellSpec
from ncwell.logscale import ONE, LogScaled

N10 = WellSpec.from_radius(20.0, 10, 6.0)


def is_pair(v) -> bool:
    return (
        type(v) is tuple and len(v) == 2 and type(v[0]) is int and v[0] in (-1, 0, 1)
        and type(v[1]) is float and (v[0] != 0 or v == (0, 0.0))
    )


# (kernel, call): each call returns one pair, or a tuple or list of pairs
PAIR_KERNELS = {
    "_log_series_float": lambda: specfun._log_series_float(5, 2, 0.5)[0],
    "_log_series_float (cut)": lambda: specfun._log_series_float(4, 2, -0.4)[0],
    "_log_series_tail": lambda: specfun._log_series_tail(4, 2, -0.4, 1.25, 1.0, 0.75, 0.75)[0],
    "_log_series_tail (zero)": lambda: specfun._log_series_tail(1, 0, 0.5, 0.0, 1.0, 0.0, 0.0)[0],
    "_cut_series_grid": lambda: [v for v, _ in specfun._cut_series_grid(np.array([4, 70]), 2, np.array([0.4, 9.0]))],
    "_log_series_mp": lambda: specfun._log_series_mp(6, 1, -1.2512770645066273, 27, "format"),
    "_reu_settle": lambda: specfun._reu_settle(3, 2, 0.4, specfun._reu_pieces_float(3, 2, 0.4)),
    "_reu_settle (escalated)": lambda: specfun._reu_settle(60, 0, 30.0, specfun._reu_pieces_float(60, 0, 30.0)),
    "_reu_settle_pair": lambda: specfun._reu_settle_pair(
        3, 2, 0.4, specfun._reu_pieces_float(3, 2, 0.4), specfun._reu_pieces_float(4, 2, 0.4)
    ),
    "_reu_direct": lambda: specfun._reu_direct(3, 2, 0.4),
    "_reu_direct_mp": lambda: specfun._reu_direct_mp(4, 1, 1.5122039496626576, 30),
    "_u_pos_direct": lambda: specfun._u_pos_direct(5, 2, 0.5),
    "_u_pos_direct (escalated)": lambda: specfun._u_pos_direct(20, 3, 12.0),
    "_reu_rows": lambda: specfun._reu_rows(3, 2.5, 63, 3),
    "_reu_rows (recurrence)": lambda: specfun._reu_rows(8, 9.0, 200, 2),
    "_lower_order": lambda: specfun._lower_order((1, 0.5), 10, 3, 2.5),
    "_lower_order (zero)": lambda: specfun._lower_order((1, 0.5), 10, 3, 0.0),
    "_u_abs_anchor_product": lambda: specfun._u_abs_anchor_product(3, 1, 1.0),
    "core._laguerre_pair": lambda: core._laguerre_pair(3, 2.5, 10),
    "core._reu_pair": lambda: core._reu_pair(3, 2.5, 70),
}


@pytest.mark.parametrize("call", PAIR_KERNELS.values(), ids=PAIR_KERNELS.keys())
def test_private_kernels_return_pairs(call):
    got = call()
    assert is_pair(got) or (type(got) in (tuple, list) and got and all(is_pair(v) for v in got))


def test_kernels_that_read_values_take_pairs():
    pieces = specfun._log_series_float(60, 0, 30.0)
    assert specfun._lost_digits(pieces[1], pieces[0]) > specfun._MAX_LOST_DIGITS
    assert specfun._lost_digits(1.0, (0, 0.0)) == math.inf
    assert specfun._mp_start(pieces, 61, -30.0) == 24 + int(specfun._lost_digits(pieces[1], pieces[0]))
    assert specfun._mp_start(((0, 0.0), 1.0), 61, -30.0) == specfun._growth_start(61, -30.0)
    # the anchor rows scaled by (n+m)! and (n+m+1)!, as mantissas at the larger log
    l0, l1 = -2.0 + math.lgamma(74.0), -3.5 + math.lgamma(75.0)
    assert specfun._reu_anchor_start(70, 3, (1, -2.0), (-1, -3.5)) == (math.exp(l0 - l1), -1.0, l1)
    assert specfun._reu_anchor_start(70, 3, (0, 0.0), (-1, -3.5)) == (0.0, -1.0, l1)
    # the series side of the U ratio is the quotient of two pairs, on the other side the quadrature
    (s1, l1), (s0, l0) = specfun._u_pos_direct(6, 2, 0.125), specfun._u_pos_direct(5, 2, 0.125)
    assert specfun._u_ratio_1m(5, 2, 0.125) == s1 * s0 * math.exp(l1 - l0)
    assert specfun._u_ratio_1m(5, 2, 0.15) == specfun._u_cf(5, -1, 0.15)


def test_no_sweep_row_is_read_into_logscaled_below_the_public_functions():
    assert not hasattr(specfun, "_ls_from_sweep")
    assert not hasattr(core, "_ls_from_sweep")


def ls(p):
    return LogScaled.from_log(*p)


SOL_OSC = RegionSolution(INTERIOR, 2.5, LogScaled.from_float(1.7), LogScaled.from_float(-0.3))
SOL_BOUND = RegionSolution(EXTERIOR, -0.8, ONE, LogScaled.from_float(0.5))
# (function, call, the same value from the pairs below it, or None)
PUBLIC = {
    "laguerre": (lambda: specfun.laguerre(10, 3, 2.5), lambda: ls(core._laguerre_pair(3, 2.5, 10)[0])),
    "laguerre (m < 0)": (
        lambda: specfun.laguerre(10, -3, 2.5),
        lambda: ls(specfun._lower_order(core._laguerre_pair(3, 2.5, 7)[0], 10, 3, 2.5)),
    ),
    "kummer_u": (lambda: specfun.kummer_u(5, -1, 0.5), lambda: ls(specfun._u_pos_direct(5, 2, 0.5))),
    "re_u_neg": (lambda: specfun.re_u_neg(70, 3, 2.5), lambda: ls(core._reu_pair(3, 2.5, 70)[0])),
    "fock_element": (lambda: core.fock_element(10, 3, SOL_OSC), None),
    "fock_element (bound)": (lambda: core.fock_element(10, 2, SOL_BOUND), None),
    "bound_solutions coeff_a": (lambda: core.bound_solutions(0.3, N10, 1)[0].coeff_a, None),
    "bound_solutions coeff_b": (lambda: core.bound_solutions(0.3, N10, 1)[1].coeff_b, None),
    "scattering_coeffs coeff_a": (lambda: core.scattering_coeffs(8.0, N10, 1)[0].coeff_a, None),
    "scattering_coeffs coeff_b": (lambda: core.scattering_coeffs(8.0, N10, 1)[1].coeff_b, None),
    "j_integral_closed": (lambda: specfun.j_integral_closed(4, 3, 1.0), None),
    "y_integral_closed": (lambda: specfun.y_integral_closed(4, 2, 1.0), None),
    "i_integral_closed": (lambda: specfun.i_integral_closed(4, 2, 0.7), None),
    "k_integral_closed": (lambda: specfun.k_integral_closed(3, 2, 0.7), None),
    "hankel_integral_scaled": (lambda: specfun.hankel_integral_scaled(4, 3, "J", 1.0), None),
}


@pytest.mark.parametrize("call, from_pairs", PUBLIC.values(), ids=PUBLIC.keys())
def test_public_functions_return_logscaled(call, from_pairs):
    got = call()
    assert type(got) is LogScaled
    if from_pairs is not None:
        assert got == from_pairs()
