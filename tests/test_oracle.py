import math

import pytest
from scipy import special

from ncwell.errors import DomainError
from ncwell.oracle import (
    CommWellSpec,
    comm_bound_states,
    comm_cross_section,
    comm_phase_shift,
)

SQRT20 = math.sqrt(20.0)


def test_infinite_depth_limit_reaches_hard_wall_levels():
    # lowest level -> j_{m,1}^2 / (2 R^2) from below as V grows; the residual
    # offset scales like 1/sqrt(V) and sits near 1.4% at V = 1e4
    for m in (0, 1, 3):
        jz = special.jn_zeros(m, 1)[0]
        hard_wall = jz * jz / 2.0
        lo4 = comm_bound_states(CommWellSpec(1.0, 1e4), m)[0].energy
        lo5 = comm_bound_states(CommWellSpec(1.0, 1e5), m, grid_points=40000)[0].energy
        assert lo4 == pytest.approx(hard_wall, rel=1.5e-2)
        assert lo5 == pytest.approx(hard_wall, rel=5e-3)
        assert abs(lo5 - hard_wall) < abs(lo4 - hard_wall)
        assert lo4 < hard_wall  # finite walls leak, levels sit below


def test_spectrum_depends_on_abs_m_only():
    spec = CommWellSpec(SQRT20, 6.0)
    for m in (1, 2, 5):
        a = comm_bound_states(spec, m)
        b = comm_bound_states(spec, -m)
        assert [s.energy for s in a] == [s.energy for s in b]


def test_results_keep_the_signed_m_of_the_call():
    # the physics uses |m|, the label is the m passed, as in core.phase_shift and find_bound_states
    spec = CommWellSpec(SQRT20, 6.0)
    neg, pos = comm_bound_states(spec, -3), comm_bound_states(spec, 3)
    assert neg and [s.m for s in neg] == [-3] * len(neg)
    assert [(s.energy, s.level) for s in neg] == [(s.energy, s.level) for s in pos]
    p, q = comm_phase_shift(7.5, spec, -3), comm_phase_shift(7.5, spec, 3)
    assert (p.m, p.tan_delta, p.delta) == (-3, q.tan_delta, q.delta)


def test_bound_states_match_dense_scan():
    spec = CommWellSpec(SQRT20, 6.0)
    base = comm_bound_states(spec, 0)
    dense = comm_bound_states(spec, 0, grid_points=40000)
    assert len(base) == len(dense)
    for a, b in zip(base, dense):
        assert a.energy == pytest.approx(b.energy, abs=1e-9 * spec.v)


# m -> (levels the default scan finds, levels the well has) at V = 20000; a 400001-point grid
# shows the second count of sign changes
DEEP_WELL_COUNTS = {0: (271, 285), 1: (270, 284), 7: (271, 281)}


@pytest.mark.parametrize("m", sorted(DEEP_WELL_COUNTS))
def test_deep_well_levels_are_the_scaled_k_scan(m):
    # scipy's K_m underflows to 0 from kappa R ~ 697.9 on; the matching function must not be an
    # exact zero at those grid energies, and its levels are those of the e^{kappa R}-scaled form.
    # The grid step (10) is wider than the spacing of the lowest levels, so the scan misses some
    # and warns; any other warning is an error.
    import warnings

    import numpy as np
    from scipy.optimize import brentq

    from ncwell.core import BRENT_RTOL, EDGE_FRACTION, GRID_POINTS, ROOT_FRACTION

    spec = CommWellSpec(SQRT20, 20000.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error")
        warnings.filterwarnings("always", "commutative bound scan found", RuntimeWarning)
        levels = [s.energy for s in comm_bound_states(spec, m)]
        found, expected = DEEP_WELL_COUNTS[m]
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, (
            f"commutative bound scan found {found} levels for m = {m}, expected {expected}; "
            "levels that share a cell of the 2000-point grid are missed"
        ))]
        eps = EDGE_FRACTION * spec.v
        lo, hi = eps, spec.v - eps
        grid = (lo + np.arange(GRID_POINTS) * ((hi - lo) / (GRID_POINTS - 1))).tolist()

        def scaled(e):
            k, kappa = math.sqrt(2.0 * e), math.sqrt(2.0 * (spec.v - e))
            kr, kappar = k * spec.radius, kappa * spec.radius
            j_m, k_m = special.jv(m, kr), special.kve(m, kappar)
            dj = special.jv(m - 1, kr) - (m / kr) * j_m
            dk = -special.kve(m - 1, kappar) - (m / kappar) * k_m
            return k * dj * k_m - kappa * dk * j_m

        vals = [scaled(e) for e in grid]
        want = [
            brentq(scaled, a, b, xtol=ROOT_FRACTION * spec.v, rtol=BRENT_RTOL)
            for a, b, ga, gb in zip(grid, grid[1:], vals, vals[1:])
            if (ga < 0.0) != (gb < 0.0)
        ]
    assert 0.0 not in vals
    assert not set(levels) & set(grid)
    assert len(levels) == len(want) > 200
    for got, ref in zip(levels, want):
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_no_potential_no_phase_shift():
    spec = CommWellSpec(SQRT20, 0.0)
    for m in (0, 2, 6):
        assert comm_phase_shift(1.7, spec, m).tan_delta == pytest.approx(0.0, abs=1e-13)


def test_phase_shift_principal_branch_and_jumps():
    # principal-branch values only jump where |tan(delta)| blows up
    spec = CommWellSpec(SQRT20, 10.0)
    energies = [10.05 + i * (25.0 - 10.05) / 799 for i in range(800)]
    pts = [comm_phase_shift(e, spec, 4) for e in energies]
    for p in pts:
        assert -math.pi / 2 < p.delta <= math.pi / 2
    for a, b in zip(pts, pts[1:]):
        if abs(b.delta - a.delta) > 2.0:
            assert max(abs(a.tan_delta), abs(b.tan_delta)) > 5.0


def test_phase_shift_sweep_has_sign_changes():
    # the m=4 sweep over (V, 35] changes sign several times
    spec = CommWellSpec(SQRT20, 10.0)
    energies = [10.05 + i * (35.0 - 10.05) / 399 for i in range(400)]
    tans = [comm_phase_shift(e, spec, 4).tan_delta for e in energies]
    flips = sum(
        1
        for a, b in zip(tans, tans[1:])
        if (a < 0) != (b < 0) and abs(a) < 5 and abs(b) < 5
    )
    assert flips >= 2


def test_phase_shift_requires_scattering_energy():
    spec = CommWellSpec(SQRT20, 10.0)
    with pytest.raises(DomainError):
        comm_phase_shift(9.0, spec, 0)


@pytest.mark.parametrize("energy", [math.inf, math.nan])
def test_phase_shift_rejects_nonfinite_energy(energy):
    with pytest.raises(DomainError, match="scattering needs"):
        comm_phase_shift(energy, CommWellSpec(SQRT20, 10.0), 0)


def test_cross_section_zero_when_free():
    spec = CommWellSpec(SQRT20, 0.0)
    pt = comm_cross_section(2.0, spec, 4)
    assert pt.sigma_total == pytest.approx(0.0, abs=1e-22)


def test_cross_section_tail_bound_at_returned_mmax():
    spec = CommWellSpec(SQRT20, 10.0)
    pt = comm_cross_section(20.0, spec, 2)
    last_m, last = pt.contributions[-1]
    assert last <= 1e-6 * pt.sigma_total
    # the next sector is no larger than the tail rule implies
    e = 20.0
    k = pt.k
    nxt = 2.0 * 4.0 / k * math.sin(comm_phase_shift(e, spec, last_m + 1).delta) ** 2
    assert nxt < 1e-5 * pt.sigma_total


def test_partial_wave_cap_warns(monkeypatch):
    import warnings

    import ncwell.core as core_mod

    spec = CommWellSpec(SQRT20, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = comm_cross_section(30.0, spec, 8)
    # the one cap in core caps the commutative sum too
    monkeypatch.setattr(core_mod, "HARD_M_CAP", 3)
    with pytest.warns(UserWarning, match="cap m = 3"):
        capped = comm_cross_section(30.0, spec, 8)
    assert [m for m, _ in capped.contributions] == [0, 1, 2, 3]
    assert capped.contributions == full.contributions[:4]


def test_threshold_divergence():
    # sigma grows without bound as E -> V+ (1/(k ln^2 k): slow, logarithmic in
    # the s-wave phase), while sigma*sqrt(E-V) stays bounded
    spec = CommWellSpec(SQRT20, 10.0)
    offsets = [1.0, 1e-2, 1e-4, 1e-6, 1e-8]
    sigmas = [comm_cross_section(10.0 + de, spec, 2).sigma_total for de in offsets]
    assert sigmas == sorted(sigmas)
    assert sigmas[-1] > 20.0 * sigmas[0]
    scaled = [s * math.sqrt(de) for s, de in zip(sigmas, offsets)]
    assert max(scaled) < 50.0


def test_oracle_never_reads_theta():
    import inspect
    import ncwell.core as core_mod
    import ncwell.oracle as oracle_mod

    fns = [
        oracle_mod.comm_bound_states,
        oracle_mod.comm_phase_shift,
        oracle_mod.comm_cross_section,
        oracle_mod._log_derivative_mismatch_grid,
        core_mod.partial_wave_sum,
        core_mod._wave_sectors,
    ]
    for fn in fns:
        src = inspect.getsource(fn)
        assert "theta" not in src
        assert "cap_n" not in src
    assert not hasattr(CommWellSpec(1.0, 1.0), "theta")
    assert not hasattr(CommWellSpec(1.0, 1.0), "cap_n")


def test_comm_cross_section_needs_a_positive_m_max():
    with pytest.raises(DomainError, match="^m_max must be a positive integer, got 0$"):
        comm_cross_section(12.0, CommWellSpec(SQRT20, 10.0), 0)


@pytest.mark.parametrize("r2, v, counts", [
    # levels of m = 0 .. 8: the zeros of J_{|m|-1} below sqrt(2V) R, and one more for m = 0
    (20.0, 6.0, [5, 5, 4, 4, 3, 3, 2, 2, 2]),
    (20.0, 10.0, [7, 6, 6, 5, 5, 4, 4, 3, 3]),
    (3.0, 6.0, [2, 2, 1, 1, 0, 0, 0, 0, 0]),
    (50.0, 6.0, [8, 8, 7, 7, 6, 6, 5, 5, 4]),
    (20.0, 0.0, [0] * 9),
])
def test_scan_finds_every_commutative_level_without_a_warning(r2, v, counts):
    import warnings

    spec = CommWellSpec(math.sqrt(r2), v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [len(comm_bound_states(spec, m)) for m in range(9)] == counts
        assert [len(comm_bound_states(spec, -m)) for m in range(9)] == counts
