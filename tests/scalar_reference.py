"""The point-by-point scattering solve, kept as the tests' reference for the lane block.

The library solves every scattering point as a lane of
core._scattering_lanes; a single point is a block of one lane.  This module
solves one point from the scalar kernels instead: the Laguerre rows of one
forward sweep (core._laguerre_pair), the Re U rows of one series or
recurrence pass (core._reu_pair), the basis columns (core._j_rows,
core._jy_basis_rows), the 2x2 solve (core._solve_matching) and the wave's
(delta, sin^2) (core._wave_of_b).  Tests hold the lanes to it with ==.
Every kernel is looked up on its module at call time, so a test that
patches one (a failing Re U settle or solve) patches the reference too.
"""

from ncwell import core


def scalar_solve(energy, spec, m):
    """(interior amplitude, exterior B, row residuals) of sector m at E, from the scalar kernels."""
    order, row = core._sector(m, spec)
    w_in, w_out = spec.theta * energy, spec.theta * (energy - spec.v)
    jin = core._j_rows(order, w_in, row, core._laguerre_pair(order, w_in, row))
    lag, reu = core._laguerre_pair(order, w_out, row), core._reu_pair(order, w_out, row)
    return core._solve_matching(jin, *core._jy_basis_rows(order, w_out, row, lag, reu), energy, m)


def scalar_wave(energy, spec, m):
    """(delta_m, sin^2(delta_m)) of the scalar solve."""
    return core._wave_of_b(energy, m, scalar_solve(energy, spec, m)[1])
