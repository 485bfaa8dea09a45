"""The cross sections' lane passes against the scalar partial-wave loop they replace.

A cross section solves the waves of one energy in blocks, one lane pass
each (core._scattering_lanes).  Every sector must equal the scalar solve
of scalar_reference bit for bit (asserted with ==, no tolerance), and a
block with a failing lane must raise what the scalar loop raises, or
nothing when the loop stops before the failing wave.
"""

import cmath
import math

import numpy as np
import pytest

import ncwell.core as core_mod
from ncwell import specfun
from ncwell.core import WellSpec, cross_section_differential, cross_section_total, partial_wave_sum
from ncwell.errors import ConvergenceError, SingularSystemError
from ncwell.specfun import _DIRECT_N, _anchor_row
import scalar_reference
from scalar_reference import scalar_lane, scalar_solve, scalar_wave


def scalar_sum(energy, spec, m_max, include_negative=False):
    # the partial-wave loop on the scalar solves, as cross_section_total ran it before the blocks;
    # the sectors and weights of the sum's table are held to this test's own rule, not the core's
    k = math.sqrt(2.0 * (energy - spec.v))
    cap = spec.cap_n if include_negative else None
    sigma, table = partial_wave_sum(lambda s: scalar_wave(energy, spec, s), energy, k, spec.radius, m_max, cap)
    rule = []
    for m in range(abs(table[-1][0]) + 1):
        sectors = (m, -m) if include_negative and 1 <= m <= spec.cap_n else (m,)
        rule += [(s, 1.0 if include_negative or m == 0 else 2.0) for s in sectors]
    assert [(s, eps) for s, eps, _, _ in table] == rule
    return sigma, [(s, term) for s, _, _, term in table]


def block_calls(monkeypatch):
    calls = []
    real = core_mod._scattering_lanes

    def spy(spec, energies, sectors):
        calls.append(list(sectors))
        return real(spec, energies, sectors)

    monkeypatch.setattr(core_mod, "_scattering_lanes", spy)
    return calls


BLOCKS = [
    # (N, V, E, sectors)
    (10, 6.0, 7.0, list(range(13)) + [-k for k in range(1, 11)]),  # every row direct
    (62, 10.0, 14.0, list(range(10)) + [-1, -5]),  # rows 62, 63: direct
    (64, 10.0, 14.0, list(range(10)) + [-1, -5]),  # row 64 anchored, -1 and -5 direct
    (200, 10.0, 10.5, list(range(16, 25))),  # anchors clipped to n - 1
    (1000, 10.0, 10.05, list(range(12))),
    (1000, 10.0, 15.0, list(range(24))),
    (1000, 10.0, 58.0, list(range(52))),
    (3, 10.0, 40.0, [0, 1, -1, 2, -2, 3, -3, 4, 5, 6]),  # sector -3 matches at rows 0 and 1
    (1000, 10.0, 12.0, [0] + [s for m in range(1, 18) for s in (m, -m)]),
]


@pytest.mark.parametrize("cap_n, v, energy, sectors", BLOCKS)
def test_block_sectors_equal_scalar_waves(cap_n, v, energy, sectors):
    spec = WellSpec.from_radius(20.0, cap_n, v)
    got = list(core_mod._scattering_lanes(spec, [energy] * len(sectors), sectors))
    assert got == [scalar_lane(energy, spec, s) for s in sectors]
    rows = [core_mod._sector(s, spec) for s in sectors]
    w = spec.theta * (energy - spec.v)
    if cap_n in (62, 64):
        # both sides of _DIRECT_N in one block at N = 64
        direct = [row + 1 <= _DIRECT_N for _, row in rows]
        assert all(direct) if cap_n == 62 else (not direct[0] and direct[-1])
    if cap_n == 200:
        assert all(_anchor_row(order, w, row) == row - 1 for order, row in rows)


@pytest.mark.parametrize("cap_n, v, energy, m_max, include_negative, blocks", [
    (3, 10.0, 40.0, 2, True, 14),  # the sum reaches wave 145: blocks 0..43, then 13 of 8 waves
    (1000, 10.0, 12.0, 4, True, 1),
    (1000, 10.0, 15.0, 4, False, 1),
    (10, 6.0, 8.0, 4, False, 2),  # the sum reaches wave 18, past the first block's 0..17
])
def test_cross_section_equals_the_scalar_loop(monkeypatch, cap_n, v, energy, m_max, include_negative, blocks):
    spec = WellSpec.from_radius(20.0, cap_n, v)
    want = scalar_sum(energy, spec, m_max, include_negative)
    calls = block_calls(monkeypatch)
    got = cross_section_total(energy, spec, m_max, include_negative=include_negative)
    assert (got.sigma_total, list(got.contributions)) == want
    assert len(calls) == blocks


def test_every_cross_section_reads_its_sectors_and_weights_from_one_rule(monkeypatch):
    # another rule in core._wave_sectors alone: unit weights, with sectors -1..-3 added
    def rule(m, negative_cap=None):
        return ((m, 1.0), (-m, 1.0)) if 1 <= m <= 3 else ((m, 1.0),)

    monkeypatch.setattr(core_mod, "_wave_sectors", rule)
    spec, energy, phis = WellSpec.from_radius(20.0, 10, 6.0), 8.0, [0.0, 1.0, 2.5, 4.0]
    k = math.sqrt(2.0 * (energy - spec.v))
    calls = block_calls(monkeypatch)
    got = cross_section_total(energy, spec, 4)
    sectors = [s for s, _ in got.contributions]
    waves = sectors[-1] + 1
    assert sectors == [s for m in range(waves) for s, _ in rule(m)]
    assert sectors[:7] == [0, 1, -1, 2, -2, 3, -3]
    # the lanes of every block are the rule's sectors of its waves, in the sum's order
    lanes = [s for c in calls for s in c]
    assert len(calls) == 2 and lanes == [s for m in range(abs(lanes[-1]) + 1) for s, _ in rule(m)]
    assert got.contributions == tuple((s, (4.0 / k) * 1.0 * scalar_wave(energy, spec, s)[1]) for s in sectors)
    total = 0.0
    for _, term in got.contributions:
        total += term
    assert got.sigma_total == total
    want = []
    for phi in phis:
        f = 0j
        for s in sectors:
            d = scalar_wave(energy, spec, s)[0]
            f += 1.0 * math.cos(s * phi) * cmath.exp(1j * d) * math.sin(d)
        want.append((phi, abs(f * math.sqrt(2.0 / math.pi)) ** 2 / k))
    assert cross_section_differential(energy, spec, 4, phis) == want


def scalar_dcs(energy, spec, m_max, phis):
    # the angular sum as a double loop over (phi, wave) on the scalar solves' deltas
    waves = len(scalar_sum(energy, spec, m_max)[1])
    k = math.sqrt(2.0 * (energy - spec.v))
    deltas = [scalar_wave(energy, spec, m)[0] for m in range(waves)]
    out = []
    for phi in phis:
        f = 0j
        for m, d in enumerate(deltas):
            f += (1.0 if m == 0 else 2.0) * math.cos(m * phi) * cmath.exp(1j * d) * math.sin(d)
        out.append((phi, abs(f * math.sqrt(2.0 / math.pi)) ** 2 / k))
    return out


def test_dcs_needing_a_second_block_equals_the_scalar_waves(monkeypatch):
    spec, energy, phis = WellSpec.from_radius(20.0, 10, 6.0), 8.0, [0.0, 1.0, 2.5]
    calls = block_calls(monkeypatch)
    got = cross_section_differential(energy, spec, 4, phis)
    assert len(calls) == 2
    assert got == scalar_dcs(energy, spec, 4, phis)


@pytest.mark.parametrize("energy, n_phi, waves", [(15.0, 360, 20), (58.0, 720, 52)])
def test_dcs_grid_sum_equals_the_scalar_double_loop(energy, n_phi, waves):
    # the README dcs (E = 15, 360 angles) and a 52-wave sum on a 720-angle grid
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    phis = [2.0 * math.pi * i / n_phi for i in range(n_phi)]
    assert len(scalar_sum(energy, spec, 8)[1]) == waves
    assert cross_section_differential(energy, spec, 8, phis) == scalar_dcs(energy, spec, 8, phis)


@pytest.mark.parametrize("n_phi", [180, 360, 720, 4096])
def test_numpy_cos_is_libm_cos_on_the_dcs_grids(n_phi):
    # the dcs grid sum relies on this; a numpy whose float64 cos is not libm's fails here
    phis = [2.0 * math.pi * i / n_phi for i in range(n_phi)]
    grid = np.array(phis)
    for m in range(129):
        assert np.cos(m * grid).tolist() == [math.cos(m * p) for p in phis], m


def test_dcs_rows_keep_the_callers_phi_objects():
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    phis = [0, 3, 1.25, 6, math.nextafter(2.0 * math.pi, 0.0)]
    got = cross_section_differential(15.0, spec, 8, phis)
    assert got == scalar_dcs(15.0, spec, 8, phis)
    assert all(row[0] is phi for row, phi in zip(got, phis))
    assert cross_section_differential(15.0, spec, 8, []) == []


# a single point is a block of one lane: the seams of test_phase_oracle's 50-digit cases (N = 0,
# |m| = N, rows on either side of _DIRECT_N) at their energies, and N = 1000 at E = 58, where waves
# up to m = 52 escalate to mpmath
E_V6 = (6.05, 6.3, 7.0, 8.1, 15.0, 30.0)
E_V10 = (10.05, 10.54, 10.76, 11.14, 15.0, 20.63, 28.26, 35.0)
SINGLE = [
    (0, 6.0, (0, 1, 3), E_V6),
    (10, 6.0, (10, -10), E_V6),
    (63, 10.0, (0, 5, -5), E_V10),
    (64, 10.0, (0, 5, -5), E_V10),
    (1000, 10.0, tuple(range(-26, 54)), (58.0,)),
]


@pytest.mark.parametrize("cap_n, v, sectors, energies", SINGLE)
def test_single_solves_equal_the_scalar_solve(cap_n, v, sectors, energies):
    spec = WellSpec.from_radius(20.0, cap_n, v)
    for e in energies:
        for m in sectors:
            a, b, residuals = scalar_solve(e, spec, m)
            interior, exterior = core_mod.scattering_coeffs(e, spec, m)
            assert (interior.coeff_a, exterior.coeff_b) == (a, b), (e, m)
            assert core_mod.matching_relative_residuals(e, spec, m) == residuals, (e, m)
            assert core_mod.phase_shift(e, spec, m).delta == scalar_wave(e, spec, m)[0], (e, m)


# N = 1000, E = 15: the sum stops at wave 19, and the first block runs to wave 23
N1000 = WellSpec.from_radius(20.0, 1000, 10.0)
E15 = 15.0


def fail_reu_at(monkeypatch, order):
    # the mpmath settle of Re U fails at the exterior w of E15 for one order, in either path
    real = specfun._reu_settle
    w_out = N1000.theta * (E15 - N1000.v)

    def failing(n, m, w, pieces):
        if m == order and w == w_out:
            raise ConvergenceError(f"cut series failed to stabilize for n={n}, m={m}, w={w}")
        return real(n, m, w, pieces)

    monkeypatch.setattr(specfun, "_reu_settle", failing)


def fail_solve_at(monkeypatch, sector):
    # the lane block's solve and the scalar reference's fail alike
    for mod in (core_mod, scalar_reference):
        real = mod._solve_matching

        def failing(jin, jout, yout, energy, m, real=real):
            if m == sector:
                raise SingularSystemError(f"matching rows are degenerate at E={energy}, m={m}")
            return real(jin, jout, yout, energy, m)

        monkeypatch.setattr(mod, "_solve_matching", failing)


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_sum_stops_before_the_padding_waves():
    assert len(cross_section_total(E15, N1000, 4).contributions) == 20
    assert core_mod._sum_floor(4, math.sqrt(2.0 * (E15 - N1000.v)), N1000.radius) + core_mod._FIRST_PAD == 23


@pytest.mark.parametrize("fail_at", [
    # the failed lane of wave 22 keeps its error unread
    lambda mp: fail_reu_at(mp, 22),
    # a solve runs only when its wave is read, so wave 21 is never solved
    lambda mp: fail_solve_at(mp, 21),
], ids=["reu-at-wave-22", "solve-at-wave-21"])
def test_failure_past_the_stop_point_does_not_surface(monkeypatch, fail_at):
    want = cross_section_total(E15, N1000, 4)
    want_dcs = cross_section_differential(E15, N1000, 4, [0.0, 1.0])
    fail_at(monkeypatch)
    calls, solves = block_calls(monkeypatch), []
    scattering_coeffs = core_mod.scattering_coeffs
    monkeypatch.setattr(core_mod, "scattering_coeffs", lambda *args: solves.append(args) or scattering_coeffs(*args))
    assert cross_section_total(E15, N1000, 4) == want
    assert cross_section_differential(E15, N1000, 4, [0.0, 1.0]) == want_dcs
    # no wave is replayed on the scalar solves
    assert ([len(c) for c in calls], len(solves)) == ([24, 24], 0)


def test_failure_at_a_reached_wave_is_the_scalar_loops(monkeypatch):
    fail_reu_at(monkeypatch, 5)
    kind, msg = raised(lambda: scalar_sum(E15, N1000, 4))
    assert kind is ConvergenceError and "m=5" in msg
    assert raised(lambda: cross_section_total(E15, N1000, 4)) == (kind, msg)
    assert raised(lambda: cross_section_differential(E15, N1000, 4, [0.0])) == (kind, msg)


def test_singular_solve_at_an_earlier_wave_wins(monkeypatch):
    fail_reu_at(monkeypatch, 5)
    fail_solve_at(monkeypatch, 3)
    kind, msg = raised(lambda: scalar_sum(E15, N1000, 4))
    assert kind is SingularSystemError and "m=3" in msg
    assert raised(lambda: cross_section_total(E15, N1000, 4)) == (kind, msg)
    assert raised(lambda: cross_section_differential(E15, N1000, 4, [0.0])) == (kind, msg)
