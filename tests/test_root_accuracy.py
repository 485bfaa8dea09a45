"""Bound levels against their matching functions evaluated at 50 digits.

The scan refines each level to within core.ROOT_FRACTION V.  These tests hold
the float roots of both solvers to that promise with an independent route:
the same matching function evaluated by mpmath at 50 digits, G(E) from
mp.laguerre and mp.hyperu, the commutative mismatch from mp.besselj and
mp.besselk.  When the 50-digit function changes sign between E - tol and
E + tol, its root lies within tol of E; the levels are far more than 2 tol
apart, so that is the root mp.findroot reaches from E.  Two evaluations per
level certify what a findroot of about eight would measure.
"""

import math

import mpmath as mp
import pytest

from ncwell.core import ROOT_FRACTION, WellSpec, find_bound_states
from ncwell.oracle import CommWellSpec, comm_bound_states

N10 = WellSpec.from_radius(20.0, 10, 6.0)
COMM10 = CommWellSpec(N10.radius, N10.v)


def nc_matching(spec, m):
    # G(E) = L^m_{N+1}(w) U(N+1-k, 1-|m|, x) - (N+m+1) L^m_N(w) U(N+2-k, 1-|m|, x),
    # w = theta E, x = theta (V - E), k = max(-m, 0)
    n, theta, v = spec.cap_n, mp.mpf(spec.theta), mp.mpf(spec.v)
    k, order = max(-m, 0), abs(m)

    def g(e):
        w, x = theta * e, theta * (v - e)
        return mp.laguerre(n + 1, m, w) * mp.hyperu(n + 1 - k, 1 - order, x) - (
            n + m + 1
        ) * mp.laguerre(n, m, w) * mp.hyperu(n + 2 - k, 1 - order, x)

    return g


def comm_matching(spec, m):
    # k J'_m(kR) K_m(kappa R) - kappa K'_m(kappa R) J_m(kR)
    r, v = mp.mpf(spec.radius), mp.mpf(spec.v)

    def g(e):
        k, kappa = mp.sqrt(2 * e), mp.sqrt(2 * (v - e))
        j, kk = mp.besselj(m, k * r), mp.besselk(m, kappa * r)
        dj = mp.besselj(m - 1, k * r) - m / (k * r) * j
        dk = -mp.besselk(m - 1, kappa * r) - m / (kappa * r) * kk
        return k * dj * kk - kappa * dk * j

    return g


def assert_within_tol_of_50_digit_roots(levels, g, v):
    assert levels
    tol = ROOT_FRACTION * v
    with mp.workdps(50):
        for b in levels:
            e = mp.mpf(b.energy)
            assert g(e - tol) * g(e + tol) <= 0, (b, tol)


@pytest.mark.parametrize("m", range(-6, 7))
def test_nc_levels_of_readme_well_within_tol(m):
    assert_within_tol_of_50_digit_roots(find_bound_states(N10, m), nc_matching(N10, m), N10.v)


@pytest.mark.parametrize("m", range(7))
def test_comm_levels_of_readme_well_within_tol(m):
    # the commutative spectrum depends on |m| only, so m = 0..6 covers -6..6
    assert_within_tol_of_50_digit_roots(comm_bound_states(COMM10, m), comm_matching(COMM10, m), COMM10.v)


def test_nc_ground_level_at_n1000_within_tol():
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    assert_within_tol_of_50_digit_roots(find_bound_states(spec, 0)[:1], nc_matching(spec, 0), spec.v)


def test_criterion_3_pair_stays_put():
    # the m = -1 level-0 pair of criterion 3, at the values that a 1e-12 V
    # bisection of the same brackets gives
    assert math.isclose(find_bound_states(N10, -1)[0].energy, 0.32178468662847376, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(comm_bound_states(COMM10, -1)[0].energy, 0.32354359404315458, rel_tol=0, abs_tol=1e-9)
