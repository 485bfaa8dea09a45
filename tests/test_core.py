import cmath
import math
import statistics
import warnings

import numpy as np
import pytest

from ncwell.core import (
    EXTERIOR,
    INTERIOR,
    RegionSolution,
    WellSpec,
    cross_section_differential,
    cross_section_total,
    find_bound_states,
    fock_element,
    matching_relative_residuals,
    matching_residual_bound,
    phase_shift,
    phase_shift_sweep,
    scattering_coeffs,
    wavefunction_eval,
)
import ncwell.core as core_mod
from ncwell import specfun
from ncwell.errors import DomainError
from ncwell.logscale import LogScaled, ONE, ZERO
from ncwell.oracle import CommWellSpec, comm_phase_shift
from ncwell.specfun import hankel_integral_oracle, laguerre, re_u_neg
import scalar_reference
from scalar_reference import scalar_wave

N10 = WellSpec.from_radius(20.0, 10, 6.0)
N1000 = WellSpec.from_radius(20.0, 1000, 10.0)


# ---------------------------------------------------------------------------
# WellSpec
# ---------------------------------------------------------------------------

def test_radius_quantization_identities():
    assert N10.theta == 20.0 / 21.0
    assert N1000.theta == 20.0 / 2001.0
    assert N10.radius_sq == N10.theta * 21
    assert N1000.radius_sq == N1000.theta * 2001


def test_wellspec_third_parameter_determined():
    s = WellSpec.from_theta_radius(20.0 / 21.0, 20.0, 6.0)
    assert s.cap_n == 10
    with pytest.raises(DomainError):
        WellSpec.from_theta_radius(1.0, 19.63, 6.0)


def test_wellspec_validation():
    with pytest.raises(DomainError):
        WellSpec(-1.0, 10, 6.0)
    with pytest.raises(DomainError):
        WellSpec(1.0, -1, 6.0)
    # a negative N is named as such, not as the negative theta it would give
    with pytest.raises(DomainError, match="cap_n must be >= 0, got -1"):
        WellSpec.from_radius(20.0, -1, 6.0)
    with pytest.raises(DomainError):
        WellSpec(1.0, 10, -2.0)
    # an infinite R^2 is named as such, not as the theta it would give
    with pytest.raises(DomainError, match="radius_sq must be positive and finite"):
        WellSpec.from_radius(math.inf, 10, 6.0)
    with pytest.raises(DomainError, match="radius_sq finite"):
        WellSpec.from_theta_radius(1.0, math.inf, 6.0)
    # a finite R^2 over a tiny theta overflows R^2/theta; that is named, not an OverflowError
    with pytest.raises(DomainError, match=r"R\^2/theta overflows at theta = 1e-300, R\^2 = 1e\+20"):
        WellSpec.from_theta_radius(1e-300, 1e20, 6.0)


def test_integer_parameters_reject_bools_and_are_stored_as_int():
    # a bool is an int to isinstance; it is no integer parameter here
    with pytest.raises(DomainError, match="cap_n must be an integer, got True"):
        WellSpec(0.5, True, 6.0)
    with pytest.raises(DomainError, match="cap_n must be an integer, got False"):
        WellSpec.from_radius(20.0, False, 6.0)
    with pytest.raises(DomainError, match="m must be an integer, got True"):
        phase_shift(8.0, N10, True)
    with pytest.raises(DomainError, match="m must be an integer, got False"):
        find_bound_states(N10, False)
    # a numpy integer is accepted, and points and specs carry the checked int
    spec = WellSpec(N10.theta, np.int64(10), 6.0)
    assert type(spec.cap_n) is int and spec == N10
    for pt in (phase_shift(8.0, N10, np.int64(2)), *phase_shift_sweep([8.0, 9.0], N10, np.int64(2))):
        assert type(pt.m) is int and pt.m == 2


# ---------------------------------------------------------------------------
# fock_element
# ---------------------------------------------------------------------------

def test_fock_element_degree_zero_regular_branch():
    for m in (0, 1, 4):
        for w in (0.3, 2.0):
            sol = RegionSolution(INTERIOR, w, ONE, ZERO)
            expect = math.sqrt(1.0 / math.factorial(m)) * w ** (m / 2.0)
            assert fock_element(0, m, sol).to_float() == pytest.approx(expect, rel=1e-13)


def test_fock_element_irregular_branch_n0_m0():
    for w in (0.4, 1.3):
        sol = RegionSolution(EXTERIOR, w, ZERO, ONE)
        expect = -(1.0 / math.pi) * math.exp(w) * re_u_neg(0, 0, w).to_float()
        assert fock_element(0, 0, sol).to_float() == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n,m", [(0, 0), (3, 1), (6, 3), (12, 0)])
def test_fock_element_equals_defining_integral(n, m):
    # element = (2 e^w / sqrt(n! (n+m)!)) * integral, with s = sqrt(2 theta) k
    w = 0.9
    s = 2.0 * math.sqrt(w)
    sol = RegionSolution(INTERIOR, w, ONE, ZERO)
    orc = hankel_integral_oracle(n, m, "J", s)
    expect = (
        2.0
        * math.exp(w)
        / math.sqrt(math.factorial(n) * math.factorial(n + m))
        * orc
    )
    assert fock_element(n, m, sol).to_float() == pytest.approx(expect, rel=1e-8)


def test_fock_element_at_w_zero():
    # only the regular branch is defined at w = 0, and only its m = 0 element is nonzero
    a = LogScaled.from_float(-2.5)
    sol = RegionSolution(INTERIOR, 0.0, a, ZERO)
    for n in (0, 3, 40):
        assert fock_element(n, 0, sol) == a
        for m in (1, 4):
            assert fock_element(n, m, sol).is_zero()
    with pytest.raises(DomainError, match="irregular branch is undefined at w = 0"):
        fock_element(2, 0, RegionSolution(EXTERIOR, 0.0, a, ONE))


def test_fock_element_builds_no_column_with_a_zero_coefficient(monkeypatch):
    # a regular solution runs no Re U series or recurrence (the Laguerre sweep alone starts
    # at row 2), an irregular one no Laguerre sweep, and each value is a * J + b * Y
    n, m, w = 1000, 4, 0.4
    j_rows = scalar_reference._j_rows(m, w, n, scalar_reference.ls_rows(core_mod._laguerre_pair(m, w, n)))
    y_rows = scalar_reference._y_rows(m, w, n, scalar_reference.ls_rows(core_mod._reu_pair(m, w, n)))
    a, b = LogScaled.from_float(1.7), LogScaled.from_float(-0.3)
    series, starts = [], []
    log_series_float, recurrence_rows = specfun._log_series_float, specfun._recurrence_rows

    def spy_series(*args):
        series.append(args)
        return log_series_float(*args)

    def spy_rows(m, w, j0, *rest):
        starts.append(j0)
        return recurrence_rows(m, w, j0, *rest)

    monkeypatch.setattr(specfun, "_log_series_float", spy_series)
    monkeypatch.setattr(specfun, "_recurrence_rows", spy_rows)
    for ca, cb, want_series, want_starts in [(a, ZERO, 0, [2]), (ZERO, b, 2, [16]), (a, b, 2, [2, 16])]:
        series.clear()
        starts.clear()
        got = fock_element(n, m, RegionSolution(INTERIOR, w, ca, cb))
        assert got == ca * j_rows[0] + cb * y_rows[0]
        assert (len(series), starts) == (want_series, want_starts)


def test_fock_element_negative_m_reduction():
    w = 1.1
    sol = RegionSolution(INTERIOR, w, ONE, ZERO)
    for (n, k) in [(5, 2), (8, 3), (4, 4)]:
        got = fock_element(n, -k, sol).to_float()
        expect = (-1.0) ** k * fock_element(n - k, k, sol).to_float()
        assert got == pytest.approx(expect, rel=1e-13)
    # bound branch carries no parity factor (I/K are even in the order)
    solb = RegionSolution(EXTERIOR, -0.8, ONE, LogScaled.from_float(0.5))
    got = fock_element(6, -2, solb).to_float()
    expect = fock_element(4, 2, solb).to_float()
    assert got == pytest.approx(expect, rel=1e-13)


def test_fock_element_domain_error():
    sol = RegionSolution(INTERIOR, 1.0, ONE, ZERO)
    with pytest.raises(DomainError):
        fock_element(2, -3, sol)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

def test_matching_residual_is_normalized_and_pole_free():
    for e in (0.1, 1.0, 3.3, 5.9):
        g = matching_residual_bound(e, N10, 1)
        assert -2.0 <= g <= 2.0


def test_matching_residual_nonzero_at_laguerre_zero():
    # locate a zero of L^m_N(theta E) inside (0, V) and check G does not vanish
    m = 1
    theta, n_cap, v = N10.theta, N10.cap_n, N10.v
    es = [0.01 + i * 0.002 for i in range(int((v - 0.02) / 0.002))]
    vals = [laguerre(n_cap, m, theta * e).to_float() for e in es]
    hits = 0
    for i in range(len(es) - 1):
        if (vals[i] < 0) != (vals[i + 1] < 0):
            lo, hi = es[i], es[i + 1]
            flo = vals[i]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = laguerre(n_cap, m, theta * mid).to_float()
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi = mid
            e0 = 0.5 * (lo + hi)
            assert abs(matching_residual_bound(e0, N10, m)) > 1e-6
            hits += 1
    assert hits >= 2


def test_matching_residual_domain_errors():
    with pytest.raises(DomainError):
        matching_residual_bound(6.5, N10, 0)
    with pytest.raises(DomainError):
        matching_residual_bound(-0.1, N10, 0)
    with pytest.raises(DomainError):
        matching_residual_bound(1.0, N10, -11)


def test_subnormal_theta_names_theta_v_and_e():
    # x = theta (V - E) underflows to 0 near V; the U ratio would take log(0) there
    spec = WellSpec(1e-320, 10, 6.0)
    assert math.isfinite(matching_residual_bound(3.0, spec, 0))
    with pytest.raises(DomainError, match=r"underflows to 0 at theta=1e-320, V=6.0, E=5.9999999999"):
        matching_residual_bound(5.9999999999, spec, 0)
    with pytest.raises(DomainError, match=r"underflows to 0 at theta=1e-320, V=6.0, E=5.999999994$"):
        find_bound_states(spec, 0, grid_points=10)


def test_find_bound_states_matches_dense_grid_oracle():
    got = find_bound_states(N10, 1, grid_points=2000)
    dense = find_bound_states(N10, 1, grid_points=20000)
    assert len(got) == len(dense)
    for a, b in zip(got, dense):
        assert a.energy == pytest.approx(b.energy, abs=1e-9 * N10.v)
        assert a.residual < 1e-9
        assert 0.0 < a.energy < N10.v


def test_find_bound_states_stable_under_grid_refinement():
    for m in (0, 2, -3, 6):
        a = find_bound_states(N10, m, grid_points=2000)
        b = find_bound_states(N10, m, grid_points=4000)
        assert [s.level for s in a] == [s.level for s in b]
        for x, y in zip(a, b):
            assert x.energy == pytest.approx(y.energy, abs=1e-9 * N10.v)


def test_bound_state_interlacing_gap():
    states = find_bound_states(N10, 0)
    tol = 1e-12 * N10.v
    for a, b in zip(states, states[1:]):
        assert b.energy - a.energy > 10.0 * tol


def test_no_bound_states_without_a_well():
    tiny = WellSpec.from_radius(20.0, 10, 1e-12)
    for m in (0, 1, -1):
        assert find_bound_states(tiny, m) == []
    zero = WellSpec.from_radius(20.0, 10, 0.0)
    assert find_bound_states(zero, 0) == []


def test_negative_m_cutoff_is_structural():
    with pytest.raises(DomainError):
        find_bound_states(N10, -11)
    # m = -N is still allowed
    find_bound_states(N10, -10)


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def test_zero_potential_scatters_nothing():
    free = WellSpec.from_radius(20.0, 10, 0.0)
    for m in (0, 1, 5):
        interior, exterior = scattering_coeffs(3.7, free, m)
        assert exterior.coeff_b.is_zero()
        assert interior.coeff_a.to_float() == pytest.approx(1.0, rel=1e-12)
        assert phase_shift(3.7, free, m).tan_delta == 0.0


def test_scattering_residuals_meet_contract():
    for (spec, m, es) in [
        (N10, 0, (6.5, 12.0, 30.0)),
        (N10, 4, (7.0, 20.0)),
        (N1000, 4, (10.5, 15.0, 30.0)),
        (N1000, -7, (12.0,)),
    ]:
        for e in es:
            assert max(matching_relative_residuals(e, spec, m)) < 1e-10


def test_scattering_evaluates_re_u_at_the_exterior_w_only(monkeypatch):
    # the interior is the regular branch: the Re U series (the scalar
    # _log_series_float and the lanes of _cut_series_grid, which see z = -w)
    # runs at w = theta (E - V) only, never at the interior w = theta E
    seen, grid_calls = set(), []
    log_series_float, cut_series_grid = specfun._log_series_float, specfun._cut_series_grid
    recurrence_rows_grid = specfun._recurrence_rows_grid

    def spy_float(a, m, z):
        seen.add(-z)
        return log_series_float(a, m, z)

    def spy_grid(a, m, w):
        seen.update(w.tolist())
        return cut_series_grid(a, m, w)

    def count_grid(*args):
        grid_calls.append(args)
        return recurrence_rows_grid(*args)

    monkeypatch.setattr(specfun, "_log_series_float", spy_float)
    monkeypatch.setattr(specfun, "_cut_series_grid", spy_grid)
    monkeypatch.setattr(specfun, "_recurrence_rows_grid", count_grid)
    n1000_v6 = WellSpec.from_radius(20.0, 1000, 6.0)
    sweep = [6.5 + 0.7 * i for i in range(12)]  # V is no multiple of the step
    # (well, energies, lane passes, run): a single point is a pass of one lane, a sweep runs its
    # Laguerre and Re U recurrence lanes in one pass, a cross section in one pass per block; at
    # N = 10, E = 15 the sum reaches wave 37, so it takes the blocks 0..27, 28..35 and 36..43
    cases = [
        (N10, (6.5, 12.0), 4, lambda spec: [phase_shift(e, spec, m) for e in (6.5, 12.0) for m in (3, -3)]),
        (N1000, (15.0,), 1, lambda spec: phase_shift(15.0, spec, 4)),
        (N10, sweep, 1, lambda spec: phase_shift_sweep(sweep, spec, -3)),
        (n1000_v6, sweep, 1, lambda spec: phase_shift_sweep(sweep, spec, 4)),
        (N10, (15.0,), 3, lambda spec: cross_section_total(15.0, spec, 4, include_negative=True)),
        (N1000, (12.0,), 1, lambda spec: cross_section_differential(12.0, spec, 4, [0.0, 1.0])),
    ]
    for spec, energies, passes, run in cases:
        seen.clear()
        grid_calls.clear()
        run(spec)
        assert seen == {spec.theta * (e - spec.v) for e in energies}
        assert not seen & {spec.theta * e for e in energies}
        assert len(grid_calls) == passes


def test_phase_shift_agrees_with_commutative_at_small_theta():
    comm = CommWellSpec(math.sqrt(20.0), 10.0)
    p = phase_shift(15.0, N1000, 4)
    c = comm_phase_shift(15.0, comm, 4)
    assert p.tan_delta == pytest.approx(c.tan_delta, rel=0.02)
    # same spot, larger theta: finite and real but further away
    p10 = phase_shift(30.0, N1000, 4)
    assert math.isfinite(p10.tan_delta)


def test_phase_shift_deterministic():
    a = phase_shift(13.37, N1000, 4)
    b = phase_shift(13.37, N1000, 4)
    assert (a.tan_delta, a.delta) == (b.tan_delta, b.delta)


def test_phase_shift_principal_branch():
    energies = [10.2 + 0.1 * i for i in range(60)]
    for p in phase_shift_sweep(energies, N10, 2):
        assert -math.pi / 2 < p.delta <= math.pi / 2
        assert p.delta_unwrapped is not None
        if math.isfinite(p.tan_delta):
            assert math.tan(p.delta) == pytest.approx(p.tan_delta, rel=1e-9, abs=1e-9)


def test_negative_m_phase_shift_differs_from_positive():
    # the shifted-row structure breaks the +-m degeneracy of the commutative well
    p_plus = phase_shift(12.0, N10, 3)
    p_minus = phase_shift(12.0, N10, -3)
    assert p_plus.tan_delta != pytest.approx(p_minus.tan_delta, rel=1e-3)


def test_pointwise_commutative_limit_strictly_decreasing():
    comm = CommWellSpec(math.sqrt(20.0), 10.0)
    target = comm_phase_shift(15.0, comm, 4).tan_delta
    devs = [
        abs(phase_shift(15.0, WellSpec.from_radius(20.0, n_cap, 10.0), 4).tan_delta - target)
        for n_cap in (10, 100, 1000)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_scattering_at_e30_small_theta_tracks_oracle():
    comm = CommWellSpec(math.sqrt(20.0), 10.0)
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    _, exterior = scattering_coeffs(30.0, spec, 4)
    b = exterior.coeff_b.to_float()
    assert math.isfinite(b)
    dev = abs(phase_shift(30.0, spec, 4).tan_delta - comm_phase_shift(30.0, comm, 4).tan_delta)
    assert dev < 0.05


def test_cross_section_limit_agreement_improves_with_n():
    # sampled at E where both solvers are cheap; the large-theta well (N=10)
    # deviates visibly where the small-theta one (N=1000) tracks the oracle
    from ncwell.oracle import comm_cross_section

    comm = CommWellSpec(math.sqrt(20.0), 10.0)
    s10 = WellSpec.from_radius(20.0, 10, 10.0)
    s1000 = WellSpec.from_radius(20.0, 1000, 10.0)
    rel10, rel1000 = [], []
    for e in (12.0, 15.0, 21.0):
        ref = comm_cross_section(e, comm, 4).sigma_total
        rel10.append(abs(cross_section_total(e, s10, 4).sigma_total - ref) / ref)
        rel1000.append(abs(cross_section_total(e, s1000, 4).sigma_total - ref) / ref)
    assert max(rel1000) < 0.1
    assert statistics.median(rel10) > 3.0 * max(rel1000)


# ---------------------------------------------------------------------------
# cross sections
# ---------------------------------------------------------------------------

def test_cross_section_all_deltas_zero(monkeypatch):
    # each block hands back (interior amplitude, exterior B, residuals) per lane
    monkeypatch.setattr(core_mod, "_scattering_lanes", lambda s, energies, sectors: lanes_of_b([ZERO] * len(sectors)))
    pt = cross_section_total(12.0, N10, 4)
    assert pt.sigma_total == 0.0


def lanes_of_b(bs):
    # a stand-in block: lanes with these exterior B, a unit interior amplitude and zero residuals
    return iter([((1, 0.0), (b.sign, b.logmag), [0.0, 0.0]) for b in bs])


def test_cross_section_unitarity_limit_s_wave(monkeypatch):
    monkeypatch.setattr(
        core_mod,
        "_scattering_lanes",
        # B = -e^800: tan(delta) = inf, so delta = pi/2 and sin^2 = 1
        lambda s, energies, sectors: lanes_of_b([LogScaled.from_log(-1, 800.0) if m == 0 else ZERO for m in sectors]),
    )
    e = 12.0
    pt = cross_section_total(e, N10, 4)
    k = math.sqrt(2.0 * (e - N10.v))
    assert pt.sigma_total == pytest.approx(4.0 / k, rel=1e-14)


def test_cross_section_contributions_sum_and_bounds():
    pt = cross_section_total(12.0, N1000, 4)
    assert pt.sigma_total == pytest.approx(sum(c for _, c in pt.contributions), rel=1e-13)
    for m, c in pt.contributions:
        eps = 1.0 if m == 0 else 2.0
        assert -1e-15 <= c <= 4.0 * eps / pt.k * (1.0 + 1e-12)
    assert pt.k == pytest.approx(math.sqrt(2.0 * (12.0 - N1000.v)), rel=1e-15)


@pytest.mark.parametrize("spec, energy", [(N10, 7.0), (WellSpec.from_radius(20.0, 10, 0.0), 3.0)])
def test_wave_delta_is_the_phase_shift_delta(spec, energy):
    # the N = 10 waves include |B| > 1 on both sides of m = 0; the free well has B = 0
    ms = [m for m, _ in cross_section_total(energy, spec, 4, include_negative=True).contributions]
    if spec.v > 0.0:
        assert any(abs(phase_shift(energy, spec, m).tan_delta) > 1.0 for m in ms if m < 0)
        assert any(abs(phase_shift(energy, spec, m).tan_delta) > 1.0 for m in ms if m > 0)
    for m in ms:
        assert scalar_wave(energy, spec, m)[0] == phase_shift(energy, spec, m).delta


def test_cross_section_tail_extension():
    pt = cross_section_total(30.0, N1000, 1)
    # kR is sizeable at E = 30, so the sum must have extended well past m_max = 1
    assert len(pt.contributions) > 10
    last = pt.contributions[-1][1]
    assert last < 1e-6 * pt.sigma_total


def test_cross_section_negative_variant_capped():
    # only the negative side stops at N; the positive waves run to the tail rule
    spec = WellSpec.from_radius(20.0, 3, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pt = cross_section_total(40.0, spec, 2, include_negative=True)
    ms = [m for m, _ in pt.contributions]
    assert sorted(m for m in ms if m < 0) == [-3, -2, -1]
    assert max(ms) >= math.ceil(pt.k * spec.radius) + 2 > spec.cap_n


def test_nonfinite_energy_is_domain_error():
    for fn in (lambda e: phase_shift(e, N10, 1), lambda e: cross_section_total(e, N10, 4)):
        with pytest.raises(DomainError, match="finite energy, got E=inf"):
            fn(math.inf)


def test_partial_wave_cap_warns_at_caller(monkeypatch):
    # both core sums stop at HARD_M_CAP with the shared warning, attributed
    # to the line that called them, and keep the uncapped prefix
    e, phis = 30.0, [0.0, 1.0, 2.5]
    full = cross_section_total(e, N1000, 8)
    monkeypatch.setattr(core_mod, "HARD_M_CAP", 3)
    with pytest.warns(UserWarning, match="cap m = 3") as rec:
        capped = cross_section_total(e, N1000, 8)
    assert rec[0].filename == __file__
    assert capped.contributions == full.contributions[:4]
    with pytest.warns(UserWarning, match="cap m = 3") as rec:
        rows = cross_section_differential(e, N1000, 8, phis)
    assert rec[0].filename == __file__
    # the amplitude of waves m = 0..3 alone, in the same arithmetic order
    deltas = [scalar_wave(e, N1000, m)[0] for m in range(4)]
    k = math.sqrt(2.0 * (e - N1000.v))
    for phi, val in rows:
        f = 0j
        for m, d in enumerate(deltas):
            f += (1.0 if m == 0 else 2.0) * math.cos(m * phi) * cmath.exp(1j * d) * math.sin(d)
        assert val == abs(f * math.sqrt(2.0 / math.pi)) ** 2 / k


def test_dcs_isotropic_when_only_s_wave(monkeypatch):
    d0 = 0.7
    monkeypatch.setattr(
        core_mod,
        "_scattering_lanes",
        lambda s, energies, sectors: lanes_of_b([LogScaled.from_float(-math.tan(d0)) if m == 0 else ZERO for m in sectors]),
    )
    e = 12.0
    k = math.sqrt(2.0 * (e - N10.v))
    rows = cross_section_differential(e, N10, 1, [0.0, 1.0, 2.0, 4.0])
    expect = (2.0 / (math.pi * k)) * math.sin(d0) ** 2
    for _, val in rows:
        assert val == pytest.approx(expect, rel=1e-12)


def test_dcs_integral_matches_total():
    e = 12.5
    n_phi = 4096
    phis = [2.0 * math.pi * i / n_phi for i in range(n_phi)]
    rows = cross_section_differential(e, N1000, 4, phis)
    integral = sum(v for _, v in rows) * (2.0 * math.pi / n_phi)
    sigma = cross_section_total(e, N1000, 4).sigma_total
    assert integral == pytest.approx(sigma, rel=1e-6)


def test_dcs_rejects_bad_phi():
    with pytest.raises(DomainError):
        cross_section_differential(12.0, N10, 2, [7.0])


# ---------------------------------------------------------------------------
# wavefunction
# ---------------------------------------------------------------------------

def test_wavefunction_origin_regular_branch():
    sol = RegionSolution(INTERIOR, 0.8, ONE, ZERO)
    val = wavefunction_eval(sol, 0, [(0.0, 0.0)])[0]
    assert val == pytest.approx(1.0)
    val = wavefunction_eval(sol, 3, [(0.0, 0.0)])[0]
    assert val == 0.0


def test_wavefunction_origin_rejected_with_irregular_branch():
    sol = RegionSolution(EXTERIOR, 0.8, ONE, ONE)
    with pytest.raises(DomainError):
        wavefunction_eval(sol, 0, [(0.0, 0.0)])


def test_wavefunction_phase_winding():
    m = 3
    sol = RegionSolution(INTERIOR, 0.8, ONE, ZERO)
    n_pts = 720
    r = 1.7
    pts = [
        (r * math.cos(2 * math.pi * i / n_pts), r * math.sin(2 * math.pi * i / n_pts))
        for i in range(n_pts)
    ]
    vals = wavefunction_eval(sol, m, pts)
    total = 0.0
    prev = cmath.phase(vals[0])
    for v in vals[1:] + [vals[0]]:
        cur = cmath.phase(v)
        d = cur - prev
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
        prev = cur
    assert total == pytest.approx(2.0 * math.pi * m, rel=1e-9)


def _laplacian_error(sol, m, x0, y0, h):
    pts = [(x0, y0), (x0 + h, y0), (x0 - h, y0), (x0, y0 + h), (x0, y0 - h)]
    c, e, w_, n_, s_ = wavefunction_eval(sol, m, pts)
    lap = (e + w_ + n_ + s_ - 4.0 * c) / (h * h)
    eig = 4.0 * sol.w  # 2 theta k^2 with matching sign for bound branches
    return abs(-lap - eig * c)


def test_wavefunction_satisfies_helmholtz_with_h2_decay():
    sol = RegionSolution(INTERIOR, 0.8, ONE, LogScaled.from_float(0.3))
    errs = [_laplacian_error(sol, 2, 1.3, 0.7, h) for h in (0.02, 0.01, 0.005)]
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0
    # bound branch: eigenvalue flips sign with w
    solb = RegionSolution(EXTERIOR, -0.6, ZERO, ONE)
    errs = [_laplacian_error(solb, 1, 1.1, 0.4, h) for h in (0.02, 0.01, 0.005)]
    assert errs[0] / errs[1] > 3.0


@pytest.mark.parametrize("call, message", [
    (lambda: cross_section_total(12.0, N1000, 0), "m_max must be a positive integer, got 0"),
    (lambda: cross_section_differential(12.0, N1000, 0, [0.0]), "m_max must be a positive integer, got 0"),
    (lambda: core_mod.bound_solutions(0.3, N10, -1), "bound solutions support m >= 0, got m=-1"),
    (
        lambda: wavefunction_eval(RegionSolution(EXTERIOR, -0.6, ZERO, ONE), -1, [(1.0, 0.0)]),
        "bound-branch position evaluation supports m >= 0; negative m reduces to the shifted positive-order sector",
    ),
], ids=["cross_section_total", "cross_section_differential", "bound_solutions", "wavefunction_eval"])
def test_library_domain_errors_name_their_rule(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
