"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
tolerances are pinned here and nowhere else.
"""

import math
import statistics
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from ncwell import (
    CommWellSpec,
    DomainError,
    RegionSolution,
    WellSpec,
    comm_bound_states,
    comm_phase_shift,
    cross_section_differential,
    cross_section_total,
    find_bound_states,
    hankel_integral_scaled,
    matching_relative_residuals,
    phase_shift,
    wavefunction_eval,
)
from ncwell.core import INTERIOR, EXTERIOR
from ncwell.logscale import LogScaled, ONE, ZERO
from ncwell.specfun import j_integral_closed, y_integral_closed

N10 = WellSpec.from_radius(20.0, 10, 6.0)
COMM6 = CommWellSpec(math.sqrt(20.0), 6.0)
COMM10 = CommWellSpec(math.sqrt(20.0), 10.0)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# 1. parameter identities, exact
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_identities():
    s10 = WellSpec.from_radius(20.0, 10, 6.0)
    s1000 = WellSpec.from_radius(20.0, 1000, 10.0)
    ok = s10.theta == 20.0 / 21.0 and s1000.theta == 20.0 / 2001.0
    assert _report(
        1, ok, f"theta(R^2=20, N=10) = {s10.theta!r}, theta(R^2=20, N=1000) = {s1000.theta!r}"
    )


# ---------------------------------------------------------------------------
# 2. special-function oracle suite
# ---------------------------------------------------------------------------

def _worst_rel(closed_fn, cases, kind):
    worst, worst_at = 0.0, None
    for (n, m, s) in cases:
        got = closed_fn(n, m, s)
        ref = hankel_integral_scaled(n, m, kind, s)
        rel = (abs(got - ref) / max(abs(got), abs(ref))).to_float()
        if rel > worst:
            worst, worst_at = rel, (n, m, s)
    return worst, worst_at


def test_criterion_2_special_function_oracle_suite():
    j_cases = [
        (n, m, s) for n in range(0, 41) for m in range(0, 9) for s in (0.3, 1.0, 3.0)
    ]
    worst_j, at_j = _worst_rel(j_integral_closed, j_cases, "J")
    y_cases = [
        (n, m, 2.0 * math.sqrt(w))
        for n in range(0, 21)
        for m in range(0, 7)
        for w in (0.05, 0.3, 1.0, 3.0, 10.0)
    ]
    worst_y, at_y = _worst_rel(y_integral_closed, y_cases, "Y")
    ok = worst_j <= 1e-8 and worst_y <= 1e-6
    assert _report(
        2,
        ok,
        f"J identity worst rel {worst_j:.2e} at {at_j} (tol 1e-8); "
        f"Y identity worst rel {worst_y:.2e} at {at_y} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# 3. bound-state sign split at the V=6, R=sqrt20, N=10 configuration
# ---------------------------------------------------------------------------

def _sign_split_violations(ms):
    violations = []
    spectra = {}
    for m in ms:
        nc = find_bound_states(N10, m)
        cm = comm_bound_states(COMM6, m)
        spectra[m] = (nc, cm)
        for level in range(min(len(nc), len(cm))):
            e_nc, e_cm = nc[level].energy, cm[level].energy
            if m > 0 and not (e_nc < e_cm):
                violations.append((m, level, e_nc, e_cm))
            if m < 0 and not (e_nc > e_cm):
                violations.append((m, level, e_nc, e_cm))
    return violations, spectra


def test_criterion_3_sign_split_positive_m():
    violations, _ = _sign_split_violations(range(1, 7))
    assert _report(
        "3 (m > 0)",
        not violations,
        "E_nc < E_comm at every common level for m in 1..6"
        if not violations
        else f"violations: {violations}",
    )


FOCK_ROWS = 600
FOCK_REL_TOL = 1e-9


def _fock_levels(spec, m):
    """Bound levels of sector m by diagonalizing the sector Hamiltonian.

    H = (1/theta)[b,[b^+, .]] + V (1 - P_N), the potential acting from the
    left, is tridiagonal on the elements c_n = <n|psi|n+m>: diagonal
    (2n+m+1)/theta + V [n > N], off-diagonal -sqrt((n+1)(n+m+1))/theta.  For
    m = -k the rows n >= k, re-indexed j = n - k, are the +k problem with the
    step moved to j > N - k.  Truncated at FOCK_ROWS; eigenvalues in (0, V).
    """
    k = abs(m)
    step = spec.cap_n - k if m < 0 else spec.cap_n
    j = np.arange(FOCK_ROWS, dtype=float)
    diag = (2.0 * j + k + 1.0) / spec.theta + spec.v * (j > step)
    off = -np.sqrt((j[:-1] + 1.0) * (j[:-1] + k + 1.0)) / spec.theta
    return list(eigh_tridiagonal(
        diag, off, eigvals_only=True, select="v", select_range=(0.0, spec.v)
    ))


def test_criterion_3_sign_split_negative_m():
    # The split is centred on m = -1, not on m = 0: near the commutative
    # limit sector m behaves like a commutative well of squared radius
    # R^2 + (m+1) theta.  Sectors m <= -2 move up at O(theta), while the
    # m = -1 shift is O(theta^2) and its ground level moves down (0.32178
    # vs 0.32354 here).  So "E_nc > E_comm" is asserted for m = -6..-2 only;
    # for every k the model guarantees E_nc(-k) > E_nc(+k), since
    # H(-k) - H(+k) = V (P_N - P_{N-k}) >= 0 (Courant-Fischer); and every
    # negative-m level, the m = -1 ground level included, is checked
    # against the Fock-basis diagonalization.
    comm_bad, spectra = _sign_split_violations(range(-6, -1))
    nc = {m: [s.energy for s in spectra[m][0]] for m in spectra}
    nc.update({m: [s.energy for s in find_bound_states(N10, m)] for m in (-1, 1, 2, 3, 4, 5, 6)})
    split_bad = [
        (k, nc[-k], nc[k])
        for k in range(1, 7)
        if len(nc[-k]) > len(nc[k]) or any(a <= b for a, b in zip(nc[-k], nc[k]))
    ]
    fock_bad = []
    for m in range(-6, 0):
        ref = _fock_levels(N10, m)
        if len(ref) != len(nc[m]) or any(
            abs(e - r) > FOCK_REL_TOL * abs(r) for e, r in zip(nc[m], ref)
        ):
            fock_bad.append((m, nc[m], ref))
    # m = -1 ground-level gap to the commutative level, against m = +1, as
    # theta roughly halves at fixed R^2: O(theta^2) shrinks by ~4x, O(theta)
    # by ~2x.
    e_comm = comm_bound_states(COMM6, 1)[0].energy
    gaps = {m: [nc[m][0] - e_comm] for m in (-1, 1)}
    for n_cap in (20, 40):
        spec = WellSpec.from_radius(20.0, n_cap, 6.0)
        for m in (-1, 1):
            gaps[m].append(find_bound_states(spec, m)[0].energy - e_comm)
    shrink = {m: [g[i] / g[i + 1] for i in range(2)] for m, g in gaps.items()}
    scaling_ok = (
        all(g < 0.0 for g in gaps[-1])
        and all(r > 3.0 for r in shrink[-1])
        and all(r < 2.5 for r in shrink[1])
    )
    ok = not (split_bad or comm_bad or fock_bad) and scaling_ok
    e_nc = nc[-1][0]
    detail = (
        f"m = -1 level 0: E_nc {e_nc:.7f}, E_comm {e_comm:.7f}, gap {e_nc - e_comm:.2e}, "
        f"shrinking {shrink[-1][0]:.2f}x, {shrink[-1][1]:.2f}x per theta-halving "
        f"(m = +1: {shrink[1][0]:.2f}x, {shrink[1][1]:.2f}x)"
    )
    if ok:
        detail += (
            "; E_nc(-k) > E_nc(+k) at every common level for k in 1..6; "
            "E_nc > E_comm at every common level for m in -6..-2; "
            f"m = -6..-1 match the Fock diagonalization (rel tol {FOCK_REL_TOL:.0e})"
        )
    else:
        detail += (
            f"; -k/+k split violations (k, E_nc(-k), E_nc(+k)): {split_bad}"
            f"; nc/comm violations (m, level, E_nc, E_comm): {comm_bad}"
            f"; Fock mismatches (m, E_nc, E_fock): {fock_bad}"
        )
    assert _report("3 (m < 0)", ok, detail)


def test_criterion_3_negative_m_cutoff():
    try:
        find_bound_states(N10, -11)
        ok = False
    except DomainError:
        ok = True
    assert _report("3 (cutoff)", ok, "m = -11 request raises a domain error at N = 10")


# ---------------------------------------------------------------------------
# 4. matching residuals
# ---------------------------------------------------------------------------

def test_criterion_4_matching_residuals():
    worst_bound = 0.0
    for m in (0, 1, 3, 6, -2, -5):
        for s in find_bound_states(N10, m):
            worst_bound = max(worst_bound, s.residual)
    worst_scatter = 0.0
    n1000 = WellSpec.from_radius(20.0, 1000, 10.0)
    for (spec, m, es) in [
        (N10, 0, (6.5, 12.0)),
        (N10, 4, (7.0, 20.0)),
        (n1000, 4, (10.5, 15.0, 21.0, 30.0)),
        (n1000, -7, (12.0,)),
    ]:
        for e in es:
            worst_scatter = max(worst_scatter, max(matching_relative_residuals(e, spec, m)))
    ok = worst_bound < 1e-9 and worst_scatter < 1e-10
    assert _report(
        4,
        ok,
        f"worst bound |G| {worst_bound:.2e} (tol 1e-9); "
        f"worst scattering row residual {worst_scatter:.2e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 5 & 6. commutative-limit convergence and the anomaly window
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deviation_data():
    es = _grid(10.5, 20.0, 96)
    medians = {}
    for n_cap in (10, 100, 1000):
        spec = WellSpec.from_radius(20.0, n_cap, 10.0)
        devs = [
            abs(phase_shift(e, spec, 4).tan_delta - comm_phase_shift(e, COMM10, 4).tan_delta)
            for e in es
        ]
        medians[n_cap] = statistics.median(devs)
    window = _grid(19.0, 23.0, 81)
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    wdevs = [
        abs(phase_shift(e, spec, 4).tan_delta - comm_phase_shift(e, COMM10, 4).tan_delta)
        for e in window
    ]
    return medians, window, wdevs


def test_criterion_5_commutative_limit_convergence(deviation_data):
    medians, _, _ = deviation_data
    ok = medians[10] > medians[100] > medians[1000]
    assert _report(
        5,
        ok,
        "median |tan d_nc - tan d_comm| over [10.5, 20]: "
        f"N=10: {medians[10]:.5f}, N=100: {medians[100]:.5f}, N=1000: {medians[1000]:.5f}",
    )


def test_criterion_6_anomaly_window(deviation_data):
    medians, window, wdevs = deviation_data
    peak = max(wdevs)
    i_peak = wdevs.index(peak)
    interior = 0 < i_peak < len(wdevs) - 1
    ok = interior and peak > medians[1000]
    assert _report(
        6,
        ok,
        f"deviation peak {peak:.3f} at E = {window[i_peak]:.3f} inside [19, 23]; "
        f"ratio to the [10.5, 20] median: {peak / medians[1000]:.0f}x",
    )


# ---------------------------------------------------------------------------
# 7. cross-section consistency, unitarity, threshold behavior
# ---------------------------------------------------------------------------

def test_criterion_7_cross_section_consistency():
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    e = 12.5
    n_phi = 4096
    phis = [2.0 * math.pi * i / n_phi for i in range(n_phi)]
    rows = cross_section_differential(e, spec, 4, phis)
    integral = sum(v for _, v in rows) * (2.0 * math.pi / n_phi)
    total = cross_section_total(e, spec, 4)
    rel = abs(integral - total.sigma_total) / total.sigma_total
    unitary = True
    for e_chk in (10.6, 12.5, 30.0):
        pt = cross_section_total(e_chk, spec, 4)
        for m, c in pt.contributions:
            eps = 1.0 if m == 0 else 2.0
            if not (-1e-15 <= c <= 4.0 * eps / pt.k * (1.0 + 1e-12)):
                unitary = False
    offsets = [1.0, 1e-2, 1e-4]
    sigmas = [cross_section_total(10.0 + de, spec, 2).sigma_total for de in offsets]
    growth = sigmas[0] < sigmas[1] < sigmas[2]
    scaled_bounded = max(
        s * math.sqrt(de) for s, de in zip(sigmas, offsets)
    ) < 10.0 * max(sigmas[0] * 1.0, 1.0)
    ok = rel <= 1e-6 and unitary and growth and scaled_bounded
    assert _report(
        7,
        ok,
        f"angular integral vs summed sigma rel {rel:.2e} (tol 1e-6); unitarity {unitary}; "
        f"sigma on V+{offsets}: {[f'{s:.2f}' for s in sigmas]} grows while "
        f"sigma*sqrt(E-V) stays bounded",
    )


# ---------------------------------------------------------------------------
# 8. discrete Helmholtz check with O(h^2) decay
# ---------------------------------------------------------------------------

def _lap_err(sol, m, x0, y0, h):
    pts = [(x0, y0), (x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h)]
    c, e_, w_, n_, s_ = wavefunction_eval(sol, m, pts)
    lap = (e_ + w_ + n_ + s_ - 4.0 * c) / (h * h)
    return abs(-lap - 4.0 * sol.w * c)


def test_criterion_8_wavefunction_pde():
    ok = True
    details = []
    for (sol, m, x0, y0) in [
        (RegionSolution(INTERIOR, 0.8, ONE, ZERO), 0, 0.9, 0.4),
        (RegionSolution(EXTERIOR, 1.7, ONE, LogScaled.from_float(0.6)), 3, 1.4, -0.3),
        (RegionSolution(EXTERIOR, -0.5, ZERO, ONE), 2, 1.1, 0.8),
    ]:
        errs = [_lap_err(sol, m, x0, y0, h) for h in (0.02, 0.01, 0.005)]
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        details.append(f"w={sol.w}: decay ratios {r1:.2f}, {r2:.2f}")
        if not (r1 > 3.0 and r2 > 3.0):
            ok = False
    assert _report(8, ok, "; ".join(details) + " (expect ~4 per h-halving)")


# ---------------------------------------------------------------------------
# 9. performance envelope
# ---------------------------------------------------------------------------

def test_criterion_9_performance_envelope():
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    energies = _grid(10.05, 35.0, 400)
    t0 = time.perf_counter()
    for e in energies:
        phase_shift(e, spec, 4)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    assert _report(9, ok, f"400-point sweep at N=1000, m=4 took {elapsed:.2f} s (budget 10 s)")
