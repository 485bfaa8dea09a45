"""The plain-float lane tails against the LogScaled combinations they replace.

core._bound_residual, core._j_rows/_y_rows and core._solve_matching carry
(sign, log magnitude) pairs as plain floats.  scalar_reference keeps the
LogScaled versions, and every value here must equal theirs bit for bit
(asserted with ==), and every error must have the same type and text: on
the scan grids and scattering lanes the library runs, and on synthetic
lanes that reach each branch of the combination.
"""

import math
import re

import numpy as np
import pytest

import ncwell.core as core_mod
from ncwell import cli, oracle
from ncwell.core import WellSpec, _matching_residual_grid, matching_residual_bound
from ncwell.errors import ConvergenceError, DomainError, SingularSystemError
from ncwell.logscale import ADD_CUTOFF, ZERO, LogScaled, log_add, log_to_float
from ncwell.specfun import _laguerre_sweep_grid, _sweep_pair, _u_ratio_1m_grid, bessel, bessel_deriv
import scalar_reference as ref


def pair(v: LogScaled):
    return v.sign, v.logmag


def ls(p):
    return LogScaled.from_log(*p)


def outcome(fn):
    """fn()'s value, or the type and text of what it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is part of what is compared
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the bound-scan residual
# ---------------------------------------------------------------------------

def scan_grid(v, points):
    lo, hi = 1e-9 * v, v - 1e-9 * v
    return lo + np.arange(points) * ((hi - lo) / (points - 1))


def reference_grid(energies, spec, m):
    """The LogScaled residual on the scan grid's factors, lane by lane."""
    order, row = core_mod._sector(m, spec)
    w = spec.theta * energies
    rows = _laguerre_sweep_grid(order, w, (row, row + 1))
    ratio = _u_ratio_1m_grid(row + 1, order, spec.theta * (spec.v - energies))
    cols = [a.tolist() for a in (*rows[row], *rows[row + 1], ratio, w)]
    return [
        ref._bound_residual(ls(_sweep_pair(m0, s0)), ls(_sweep_pair(m1, s1)), r, wi, spec, m)
        for m0, s0, m1, s1, r, wi in zip(*cols)
    ]


# lowered sectors with odd (-1, -3) and even (-6) k; N = 0 has no negative sector
SCANS = [(n, m) for n in (0, 10, 300, 1000) for m in (-6, -3, -1, 0, 1, 4) if -m <= n]


@pytest.mark.parametrize("cap_n, m", SCANS)
def test_scan_grid_residual_equals_logscaled(cap_n, m):
    spec = WellSpec.from_radius(20.0, cap_n, 6.0)
    energies = scan_grid(spec.v, 120 if cap_n == 1000 else 300)
    got = _matching_residual_grid(energies, spec, m)
    assert got == reference_grid(energies, spec, m)
    # the Brent path: a one-lane call at energies off the grid
    for e in (0.37 * spec.v, 0.81 * spec.v):
        order, row = core_mod._sector(m, spec)
        w = spec.theta * e
        l_n, l_n1 = ref.ls_rows(core_mod._laguerre_pair(order, w, row))
        ratio = core_mod._u_ratio_1m(row + 1, order, spec.theta * (spec.v - e))
        assert matching_residual_bound(e, spec, m) == ref._bound_residual(l_n, l_n1, ratio, w, spec, m)


N3 = WellSpec.from_radius(20.0, 3, 6.0)
# synthetic lanes (m, w, mant_n, scale_n, mant_n1, scale_n1, ratio); N = 3, so c = N + m + 1 = 4 + m
SYNTHETIC_BOUND = {
    "zero row N": (0, 0.7, 0.0, 0.0, -1.25, 3.0, 0.4),
    "zero row N+1": (1, 0.7, 2.5, -1.0, 0.0, 0.0, 0.4),
    "both rows zero": (2, 0.7, 0.0, 0.0, 0.0, 0.0, 0.4),
    "zero ratio": (0, 0.7, 2.5, -1.0, -1.25, 3.0, 0.0),
    # t1 = t2 exactly: (N + 1) * 0.5 * 1.0 = 2.0
    "exact cancellation": (0, 0.7, 1.0, 0.0, 2.0, 0.0, 0.5),
    "same sign, close": (0, 0.7, 1.0, 0.0, -2.0000000001, 0.0, -0.5),
    "gap above ADD_CUTOFF, t1 larger": (0, 0.7, 1.0, 0.0, -1.5, ADD_CUTOFF + 55.0, 0.3),
    "gap above ADD_CUTOFF, t2 larger": (1, 0.7, 1.0, ADD_CUTOFF + 55.0, -1.5, 0.0, 0.3),
    "lowered, odd k": (-3, 0.7, -0.75, 12.0, 1.5, 11.0, 2.5),
    "lowered, even k": (-2, 0.7, -0.75, 12.0, 1.5, 11.0, 2.5),
    "lowered, k = N": (-3, 1e-3, 3.0, 0.0, -2.0, 0.0, 7.0),
}


@pytest.mark.parametrize("lane", SYNTHETIC_BOUND.values(), ids=SYNTHETIC_BOUND.keys())
def test_synthetic_bound_lanes_equal_logscaled(lane):
    m, w, m0, s0, m1, s1, r = lane
    got = core_mod._bound_residual(N3, m, [w / N3.theta], [w], [m0], [s0], [m1], [s1], [r])
    want = ref._bound_residual(ls(_sweep_pair(m0, s0)), ls(_sweep_pair(m1, s1)), r, w, N3, m)
    assert got == [want]


def test_synthetic_bound_branches_are_reached():
    g = {name: core_mod._bound_residual(N3, lane[0], [1.0], *([v] for v in lane[1:]))[0]
         for name, lane in SYNTHETIC_BOUND.items()}
    assert (g["both rows zero"], g["exact cancellation"]) == (0.0, 0.0)
    assert g["gap above ADD_CUTOFF, t1 larger"] == -1.0
    assert g["gap above ADD_CUTOFF, t2 larger"] == -1.0
    assert 0.0 < abs(g["same sign, close"]) < 1e-9


def test_lanes_of_one_call_equal_one_lane_calls():
    lanes = [lane for lane in SYNTHETIC_BOUND.values() if lane[0] == 0]
    cols = [list(col) for col in zip(*lanes)][1:]
    energies = [w / N3.theta for w in cols[0]]
    assert core_mod._bound_residual(N3, 0, energies, *cols) == [
        core_mod._bound_residual(N3, 0, [e], *([v] for v in lane[1:]))[0] for e, lane in zip(energies, lanes)
    ]


def test_log_to_float_caps():
    # a lane's G and its row residuals stay within log 3 of their scale, so only these calls reach the caps
    for sign in (-1, 1):
        assert log_to_float(sign, 709.5) == sign * math.inf == LogScaled(sign, 709.5).to_float()
        assert log_to_float(sign, -745.5) == 0.0 == LogScaled(sign, -745.5).to_float()
        assert log_to_float(sign, 709.0) == sign * math.exp(709.0)
    assert log_to_float(0, 800.0) == 0.0
    assert log_add(1, 2.0, -1, 2.0) == (0, 0.0) and log_add(0, 0.0, -1, 3.0) == (-1, 3.0)


# ---------------------------------------------------------------------------
# a non-finite U ratio
# ---------------------------------------------------------------------------

N10 = WellSpec.from_radius(20.0, 10, 6.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_ratio_raises_convergence_error_naming_e_m_n(monkeypatch, bad):
    energies = scan_grid(N10.v, 20)
    monkeypatch.setattr(core_mod, "_u_ratio_1m_grid", lambda a, m, x: np.full(x.shape, bad))
    with pytest.raises(ConvergenceError, match=re.escape(f"not finite at E={energies[0].item()!r}, m=-2, N=10")):
        _matching_residual_grid(energies, N10, -2)
    monkeypatch.setattr(core_mod, "_u_ratio_1m", lambda a, m, x: bad)
    with pytest.raises(ConvergenceError, match=r"not finite at E=1\.5, m=3, N=10"):
        matching_residual_bound(1.5, N10, 3)


def run_bound_states(capsys, argv):
    code = cli.main(["bound-states", "--radius", "sqrt20", "--capital-n", "10", "--v", "6", *argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_cli_maps_a_non_finite_ratio_to_the_convergence_exit(monkeypatch, capsys, bad):
    # on the scan grid
    real_grid = core_mod._u_ratio_1m_grid
    monkeypatch.setattr(core_mod, "_u_ratio_1m_grid", lambda a, m, x: np.full(x.shape, bad))
    code, err = run_bound_states(capsys, ["--m", "0"])
    assert code == cli.CONVERGENCE_EXIT and "is not finite at E=" in err and "m=0, N=10" in err
    # on a Brent round only: the grid is sound, so the scan brackets a level first
    monkeypatch.setattr(core_mod, "_u_ratio_1m_grid",
                        lambda a, m, x: real_grid(a, m, x) if x.size == core_mod.GRID_POINTS else np.full(x.shape, bad))
    code, err = run_bound_states(capsys, ["--m", "0"])
    assert code == cli.CONVERGENCE_EXIT and "is not finite at E=" in err and "m=0, N=10" in err


# ---------------------------------------------------------------------------
# the scattering tail
# ---------------------------------------------------------------------------

N1000 = WellSpec.from_radius(20.0, 1000, 10.0)
ROWS = [
    # (order, row, w, lag, reu) with a zero row in each column
    (4, 1000, 0.4, (LogScaled(1, 3.25), ZERO), (ZERO, LogScaled(-1, -12.5))),
    (0, 7, 2.5, (LogScaled(-1, -0.5), LogScaled(1, 0.75)), (LogScaled(1, 1.0), LogScaled(1, -1.0))),
    (31, 2000, 1e-4, (ZERO, ZERO), (LogScaled(-1, 400.0), LogScaled(1, 398.0))),
]


@pytest.mark.parametrize("order, row, w, lag, reu", ROWS)
def test_basis_rows_equal_logscaled(order, row, w, lag, reu):
    consts = core_mod._row_consts(order, row)
    got_j, got_y = core_mod._jy_basis_rows(order, w, [pair(v) for v in lag], [pair(v) for v in reu], consts)
    assert got_j == [pair(v) for v in ref._j_rows(order, w, row, lag)]
    assert got_y == [pair(v) for v in ref._y_rows(order, w, row, reu)]


def solve_both(jin, jout, yout):
    got = outcome(lambda: core_mod._solve_matching(jin, jout, yout, 12.5, -3))
    want = outcome(lambda: ref._solve_matching(*([ls(p) for p in col] for col in (jin, jout, yout)), 12.5, -3))
    if not isinstance(want[0], type):
        want = (pair(want[0]), pair(want[1]), want[2])
    return got, want


UNIT = [(1, 0.0), (1, 0.0)]
SYNTHETIC_SOLVES = {
    # (jin, jout, yout)
    "vanished interior column": ([(0, 0.0), (0, 0.0)], UNIT, [(1, 0.5), (-1, 0.0)]),
    "vanished Y column": ([(1, 0.5), (-1, 0.0)], UNIT, [(0, 0.0), (0, 0.0)]),
    "vanished exterior J column": ([(1, 0.5), (-1, 0.0)], [(0, 0.0), (0, 0.0)], [(1, -0.25), (1, 1.0)]),
    "degenerate rows": (UNIT, [(1, 0.5), (-1, 0.0)], UNIT),
    "zero row": ([(1, 0.5), (0, 0.0)], [(1, -1.0), (1, 2.0)], [(-1, 0.25), (1, 0.0)]),
    # the columns' smaller rows fl() to subnormals, whose rounding the log-space residual sees
    "row residual above 1e-10": ([(1, -2.5), (1, -737.0)], [(1, -1.0), (1, -734.5)], [(-1, -1.5), (-1, 0.0)]),
    "subnormal residual": ([(1, -740.0), (1, 0.0)], UNIT, [(1, 0.0), (1, -740.0)]),
    # the residual is e^-800 of its scale, below -745: it reads 0.0
    "residual below the float range": ([(1, -800.0), (1, 0.0)], UNIT, [(1, 0.0), (1, -800.0)]),
    "rows far apart": ([(1, 300.0), (-1, -200.0)], [(-1, 150.0), (1, 420.0)], [(1, -100.0), (1, 80.0)]),
}


@pytest.mark.parametrize("cols", SYNTHETIC_SOLVES.values(), ids=SYNTHETIC_SOLVES.keys())
def test_synthetic_solves_equal_logscaled(cols):
    got, want = solve_both(*cols)
    assert got == want


def test_synthetic_solve_branches_are_reached():
    out = {name: solve_both(*cols)[0] for name, cols in SYNTHETIC_SOLVES.items()}
    vanished = (SingularSystemError, "a basis column vanished identically at both rows")
    assert out["vanished interior column"] == out["vanished Y column"] == vanished
    assert out["degenerate rows"] == (SingularSystemError, "matching rows are degenerate at E=12.5, m=-3")
    assert out["row residual above 1e-10"][0] is SingularSystemError
    assert "exceeds 1e-10 at E=12.5, m=-3" in out["row residual above 1e-10"][1]
    assert out["vanished exterior J column"] == ((0, 0.0), (0, 0.0), [0.0, 0.0])
    assert 0.0 < max(out["subnormal residual"][2]) < 1e-300
    assert out["residual below the float range"][2] == [0.0, 0.0]


@pytest.mark.parametrize("cap_n, v, m, energies", [
    (10, 6.0, -3, [6.05, 9.0, 20.0]),
    (1000, 10.0, 31, [10.05, 30.0]),
    (1000, 10.0, 0, [10.05, 15.0, 58.0]),
    (64, 10.0, 5, [10.5, 35.0]),
])
def test_phase_points_carry_the_larger_row_residual(cap_n, v, m, energies):
    spec = WellSpec.from_radius(20.0, cap_n, v)
    sweep = core_mod.phase_shift_sweep(energies, spec, m)
    for e, p in zip(energies, sweep):
        res = ref.scalar_solve(e, spec, m)[2]
        assert p.residual == core_mod.phase_shift(e, spec, m).residual == max(res)
        assert max(core_mod.matching_relative_residuals(e, spec, m)) == p.residual <= 1e-10


# ---------------------------------------------------------------------------
# the commutative phase shifts over a sweep
# ---------------------------------------------------------------------------

def comm_phase_reference(energy, spec, m):
    """comm_phase_shift's (tan delta, delta) one energy at a time, from the Bessel wrappers."""
    m = abs(m)
    r = spec.radius
    k_in, k_out = math.sqrt(2.0 * energy), math.sqrt(2.0 * (energy - spec.v))
    ji, jip = bessel("J", m, k_in * r), bessel_deriv("J", m, k_in * r)
    jo, jop = bessel("J", m, k_out * r), bessel_deriv("J", m, k_out * r)
    yo, yop = bessel("Y", m, k_out * r), bessel_deriv("Y", m, k_out * r)
    num = k_in * jip * jo - k_out * ji * jop
    den = k_in * jip * yo - k_out * ji * yop
    if den == 0.0:
        tan_delta = math.copysign(math.inf, num) if num != 0.0 else 0.0
    else:
        tan_delta = num / den
    delta = math.atan2(num, den)
    if delta > math.pi / 2:
        delta -= math.pi
    elif delta <= -math.pi / 2:
        delta += math.pi
    return tan_delta, delta


@pytest.mark.parametrize("v", [0.0, 6.0, 10.0])
def test_comm_phase_shifts_equal_the_pointwise_bessel_route(v):
    spec = oracle.CommWellSpec(math.sqrt(20.0), v)
    energies = (v + 0.01 + np.arange(150) * 0.37).tolist()
    for m in (0, 1, -3, 4, 9, 17, -30):
        pts = oracle.comm_phase_shifts(energies, spec, m)
        assert [(p.m, p.energy) for p in pts] == [(m, e) for e in energies]
        assert [(p.tan_delta, p.delta) for p in pts] == [comm_phase_reference(e, spec, m) for e in energies]
        assert pts[:3] == [oracle.comm_phase_shift(e, spec, m) for e in energies[:3]]


def test_comm_phase_shifts_check_every_energy_first():
    spec = oracle.CommWellSpec(math.sqrt(20.0), 10.0)
    assert oracle.comm_phase_shifts([], spec, 2) == []
    with pytest.raises(DomainError, match=re.escape("scattering needs E > V, got E=9.5, V=10.0")):
        oracle.comm_phase_shifts([12.0, 9.5, math.inf], spec, 2)
    # an argument k_out R that underflows to 0 fails as the Bessel wrappers fail
    tiny = oracle.CommWellSpec(1e-170, 0.0)
    for solve in (oracle.comm_phase_shift, comm_phase_reference):
        with pytest.raises(DomainError, match="derivative recurrence needs x > 0, got 0.0"):
            solve(1e-320, tiny, 0)
