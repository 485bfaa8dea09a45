"""Phase shifts against a 50-digit solve of the same matching problem.

The oracle builds the interior and exterior basis rows at the matching rows
N and N+1 (N-k and N-k+1 for m = -k) from mpmath's laguerre and the real
part of its hyperu, solves the 2x2 system at 50 digits and returns delta.
phase_shift, phase_shift_sweep and the partial-wave kernel
(core._wave_of_b on the solved B) must each be within a tolerance of it,
set per N and per energy range from the largest distance measured over 116
log-spaced energies from V + 0.01 up: at N = 10, 1.2e-13; at N = 1000,
2.3e-10 below V + 1 (m = -4 at E = 10.54) and 3.5e-10 above (m = 30 at
E = 28.26).  The seams N = 0, |m| = N and N = 63, 64 (matching rows on
either side of specfun._DIRECT_N = 64) have tolerances of about 2x the
largest distance measured on their energies: 1.24e-14 at N = 0 (m = 1),
5.6e-15 at |m| = N = 10 and 8.5e-13 at N = 63, 64 (N = 64, m = 5).
"""

import math

import mpmath as mp
import pytest

from ncwell import core

# (N, V, sectors, (tolerance below V + 1, tolerance from V + 1 up) on |delta - delta_50|)
GROUPS = [
    (10, 6.0, (-3, 0, 3), (5e-13, 5e-13)),
    (1000, 10.0, (4, -4, 30, -30), (5e-10, 1e-9)),
    (0, 6.0, (0, 1, 3), (2.5e-14, 2.5e-14)),
    (10, 6.0, (10, -10), (1.1e-14, 1.1e-14)),
    (63, 10.0, (0, 5, -5), (1.7e-12, 1.7e-12)),
    (64, 10.0, (0, 5, -5), (1.7e-12, 1.7e-12)),
]
CASES = [(cap_n, v, m) for cap_n, v, ms, _ in GROUPS for m in ms]
TOL = {(cap_n, m): tol for cap_n, _, ms, tol in GROUPS for m in ms}
E_V6 = (6.05, 6.3, 7.0, 8.1, 15.0, 30.0)
E_V10 = (10.05, 10.54, 10.76, 11.14, 15.0, 20.63, 28.26, 35.0)
ENERGIES = {0: E_V6, 10: E_V6, 63: E_V10, 64: E_V10, 1000: E_V10}


def _basis_rows(order, w, row):
    """(J, Y) at rows row and row + 1, as core._jy_basis_rows defines them."""
    rows = []
    for n in (row, row + 1):
        j = mp.sqrt(mp.factorial(n) / mp.factorial(n + order)) * w ** (order / 2) * mp.laguerre(n, order, w)
        y = (-mp.sqrt(mp.factorial(n) * mp.factorial(n + order)) * mp.exp(w) * w ** (-order / 2)
             * mp.re(mp.hyperu(n + 1, 1 - order, -w)) / mp.pi)
        rows.append((j, y))
    return rows


def delta_50(energy, spec, m):
    with mp.workdps(50):
        order, row = abs(m), spec.cap_n - max(-m, 0)
        theta, e = mp.mpf(spec.theta), mp.mpf(energy)
        (ji0, _), (ji1, _) = _basis_rows(order, theta * e, row)
        (jo0, yo0), (jo1, yo1) = _basis_rows(order, theta * (e - spec.v), row)
        # a J_in - B Y_out = J_out at both rows, and tan(delta) = -B
        b = (ji0 * jo1 - jo0 * ji1) / (yo0 * ji1 - ji0 * yo1)
        return float(mp.atan(-b))


def _dist(delta, ref):
    """|delta - ref| modulo pi, so that a delta near +-pi/2 may sit on either side."""
    return abs((delta - ref + math.pi / 2) % math.pi - math.pi / 2)


@pytest.mark.parametrize("cap_n, v, m", CASES)
def test_phase_shift_matches_50_digit_oracle(cap_n, v, m):
    spec = core.WellSpec.from_radius(20.0, cap_n, v)
    energies = ENERGIES[cap_n]
    for e, pt in zip(energies, core.phase_shift_sweep(energies, spec, m)):
        ref = delta_50(e, spec, m)
        tol = TOL[cap_n, m][e >= v + 1.0]
        b = core.scattering_coeffs(e, spec, m)[1].coeff_b
        delta, sin2 = core._wave_of_b(e, m, (b.sign, b.logmag))
        assert _dist(pt.delta, ref) <= tol
        assert _dist(core.phase_shift(e, spec, m).delta, ref) <= tol
        assert _dist(delta, ref) <= tol
        assert abs(sin2 - math.sin(ref) ** 2) <= tol
