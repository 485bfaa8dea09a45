"""The level counts behind the count-guided bound scan.

Both matching functions return, on request, the number of bound levels
below each lane's energy.  The noncommutative count must equal the inertia
of the truncated Fock-basis matrix (test_acceptance._fock_levels), the
commutative one the sign changes of a dense scan.  The scan evaluates the
fine grid only in the coarse cells where the count puts a level, and must
return exactly what a scan of every grid point returns: each root and
residual compared with ==, each error by type and message.  The lane guard
counts the energies the scan hands to the matching function.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ncwell.core as core_mod
from ncwell.core import (
    EDGE_FRACTION,
    GRID_POINTS,
    WellSpec,
    _bound_sectors,
    _matching_residual_grid,
    _scan_sectors,
    find_bound_states,
)
from ncwell.errors import DomainError
from ncwell.oracle import CommWellSpec, _log_derivative_mismatch_grid, comm_bound_states
from test_acceptance import _fock_levels


def scan_grid(v, points):
    lo, hi = EDGE_FRACTION * v, v - EDGE_FRACTION * v
    return lo + np.arange(points) * ((hi - lo) / (points - 1))


def assert_nc_count(spec, ms, energies):
    # the Fock truncation sits 4000 rows above the well's edge, as in ROADMAP item 9's table
    for m in ms:
        levels = np.sort(_fock_levels(spec, m, rows=spec.cap_n + 4000))
        _, counts = _matching_residual_grid(energies, spec, m, True)
        assert counts == np.searchsorted(levels, energies).tolist(), m


NC_WELLS = {
    "N=10, V=6, every m": (10, 6.0, range(-10, 11)),
    "N=10, V=20000, every m": (10, 20000.0, range(-10, 11)),
    "N=100, V=2000": (100, 2000.0, (-100, -37, -2, 0, 3, 41, 100)),
    "N=1000, V=6": (1000, 6.0, (-1000, -2, 0, 3, 700)),
    "N=1000, V=200": (1000, 200.0, (-999, -2, 0, 3, 250)),
}


@pytest.mark.parametrize("n, v, ms", NC_WELLS.values(), ids=NC_WELLS.keys())
def test_nc_count_is_the_fock_matrix_inertia(n, v, ms):
    spec = WellSpec.from_radius(20.0, n, v)
    rng = np.random.default_rng(n + int(v))
    assert_nc_count(spec, ms, np.sort(rng.uniform(0.0, v, 200)))
    # the scan's grid points, the default grid at N = 10 and a shorter one at large N
    assert_nc_count(spec, ms, scan_grid(v, GRID_POINTS if n == 10 else 300))


def test_nc_count_is_lane_for_lane_one_sector():
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    rng = np.random.default_rng(5)
    ms = rng.integers(-10, 11, 60)
    energies = rng.uniform(1e-3, spec.v - 1e-3, 60)
    g, counts = _matching_residual_grid(energies, spec, ms, True)
    alone = [_matching_residual_grid(np.array([e]), spec, int(m), True) for e, m in zip(energies, ms)]
    assert (g, counts) == ([a[0][0] for a in alone], [a[1][0] for a in alone])
    assert g == _matching_residual_grid(energies, spec, ms)


COMM_WELLS = {"V=6": (20.0, 6.0), "V=200": (20.0, 200.0), "V=20000": (20.0, 20000.0), "R^2=300": (300.0, 50.0)}


@pytest.mark.parametrize("r2, v", COMM_WELLS.values(), ids=COMM_WELLS.keys())
def test_comm_count_is_the_dense_scan_count(r2, v):
    spec = CommWellSpec(math.sqrt(r2), v)
    dense = scan_grid(v, 100_000)
    rng = np.random.default_rng(int(v))
    for m in (0, 1, 2, 7, 30):
        values = _log_derivative_mismatch_grid(dense, spec, m)
        # a level per sign change of the dense scan; its bracket is (dense[i], dense[i + 1])
        cells = np.flatnonzero((values[:-1] < 0.0) != (values[1:] < 0.0))
        energies = np.sort(np.concatenate((rng.uniform(dense[0], dense[-1], 300), dense[::251])))
        # probes inside a bracket cannot tell which side of the level they are on
        energies = energies[~np.isin(np.searchsorted(dense, energies) - 1, cells)]
        _, counts = _log_derivative_mismatch_grid(energies, spec, m, True)
        assert counts == np.searchsorted(dense[cells + 1], energies, side="right").tolist(), m
        _, ends = _log_derivative_mismatch_grid(dense[[0, -1]], spec, m, True)
        assert ends[1] - ends[0] == cells.size


def test_comm_count_refuses_a_kr_past_its_grid():
    # the zeros of J_m are walked on a grid of step 3 up to kR; at kR = 1.4e7 that would be 4.7e6 points
    with pytest.raises(DomainError, match=r"level count needs kR <= 3e\+06, got kR=14142135\.6"):
        comm_bound_states(CommWellSpec(1e7, 1.0), 0, grid_points=2)


def outcome(found):
    return [(type(f), str(f)) if isinstance(f, Exception) else f for f in found]


def scans(g, sectors, v, points):
    # the count-guided scan and the scan of every grid point, as outcomes, and the guided counts;
    # the latter is the same scan handed a count that rises at every energy, the energy itself,
    # which puts a level in every coarse cell
    def every(e, s, count=False):
        values = g(e, s)
        return (values, e) if count else values

    full, _ = _scan_sectors(every, sectors, v, points)
    guided, counts = _scan_sectors(g, sectors, v, points)
    return outcome(guided), outcome(full), counts


# theta from R^2 = 0.1 .. 300, or a subnormal theta (x = theta (V - E) underflows near V), or one
# so large that the U-ratio quadrature's (x + 1 - b)^2 overflows at the low energies
THETAS = st.one_of(
    st.floats(math.log(0.1), math.log(300.0)).map(lambda lr2: ("radius", math.exp(lr2))),
    st.sampled_from([("theta", 5e-324), ("theta", 1e-320), ("theta", 1e150)]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the missed levels, and numpy's on NaN residuals
@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 400),
    log_v=st.floats(math.log(0.5), math.log(2e4)),
    theta=THETAS,
    points=st.one_of(st.integers(2, 40), st.integers(2, 3000)),
    ms=st.lists(st.integers(0, 800), min_size=1, max_size=4),
)
# x underflows on the top 8% of the grid, the U-ratio guard fails on the low energies, and both
# scans of the deep golden well miss levels
@example(n=10, log_v=math.log(6.0), theta=("theta", 5e-324), points=2000, ms=[10, 7, 14])
@example(n=30, log_v=math.log(2e4), theta=("theta", 1e150), points=500, ms=[30, 32, 25])
@example(n=10, log_v=math.log(2e4), theta=("radius", 20.0), points=300, ms=[10, 11, 9])
def test_count_guided_scans_equal_the_full_grid_scans(n, log_v, theta, points, ms):
    v = math.exp(log_v)
    kind, value = theta
    spec = WellSpec.from_radius(value, n, v) if kind == "radius" else WellSpec(value, n, v)
    ms = list(dict.fromkeys(m % (2 * n + 1) - n for m in ms))  # sectors -N..N
    guided, full, counts = scans(lambda e, s, count=False: _matching_residual_grid(e, spec, s, count), ms, v, points)
    assert guided == full
    if kind == "theta" and value > 1.0:  # a radius of 1e76: the commutative level count refuses kR above 3e6
        return
    comm = CommWellSpec(spec.radius, v)
    orders = sorted({abs(m) for m in ms})
    guided, full, _ = scans(lambda e, s, count=False: _log_derivative_mismatch_grid(e, comm, s, count),
                            orders, v, points)
    assert guided == full


def lanes_of(monkeypatch, run):
    # the number of energies handed to the noncommutative matching function while run() runs
    real, lanes = core_mod._matching_residual_grid, []

    def counted(energies, spec, m, count=False):
        lanes.append(energies.size)
        return real(energies, spec, m, count)

    monkeypatch.setattr(core_mod, "_matching_residual_grid", counted)
    result = run()
    monkeypatch.setattr(core_mod, "_matching_residual_grid", real)
    return sum(lanes), result


def test_the_scan_evaluates_only_the_cells_that_hold_a_level(monkeypatch):
    # every lane, Brent's rounds included; a scan of every grid point took 2024 and 26,198
    spec = WellSpec.from_radius(20.0, 1000, 6.0)
    lanes, levels = lanes_of(monkeypatch, lambda: find_bound_states(spec, 0))
    assert len(levels) == 5 and lanes <= 300
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    lanes, levels = lanes_of(monkeypatch, lambda: list(_bound_sectors(spec, list(range(-6, 7)), GRID_POINTS)))
    assert sum(map(len, levels)) > 40 and lanes <= 0.15 * 26_198


def scan_warnings(run):
    # the messages of the RuntimeWarnings run() raises, and its levels
    with pytest.warns(RuntimeWarning) as rec:
        levels = run()
    return [str(w.message) for w in rec], levels


@pytest.mark.parametrize("v, found, expected, below, shared", [
    # the level count puts every level of the 1e11 well below E = 1e-9 V = 100; at 1e9, 2 lie below
    # E = 1 and the levels above share grid cells
    (1e11, 0, 11, 11, False),
    (1e9, 1, 11, 2, True),
])
def test_nc_scan_names_the_levels_below_the_grids_first_point(v, found, expected, below, shared):
    spec = WellSpec.from_radius(20.0, 10, v)
    messages, levels = scan_warnings(lambda: find_bound_states(spec, 0))
    assert len(levels) == found
    assert _matching_residual_grid(np.array([EDGE_FRACTION * v]), spec, 0, True)[1] == [below]
    tail = ", and levels that share a cell of the 2000-point grid are missed" if shared else ""
    assert messages == [
        f"noncommutative bound scan at N = 10 found {found} levels for m = 0, expected {expected}; "
        f"{below} lie below the grid's first point E = {EDGE_FRACTION * v:g}{tail}"
    ]


@pytest.mark.parametrize("v, found, expected, below", [(1e11, 1018, 636620, 20), (1e9, 986, 63662, 2)])
def test_comm_scan_names_the_levels_below_the_grids_first_point(v, found, expected, below):
    messages, levels = scan_warnings(lambda: comm_bound_states(CommWellSpec(math.sqrt(20.0), v), 0))
    assert len(levels) == found
    assert messages == [
        f"commutative bound scan found {found} levels for m = 0, expected {expected}; "
        f"{below} lie below the grid's first point E = {EDGE_FRACTION * v:g}, "
        "and levels that share a cell of the 2000-point grid are missed"
    ]


def test_the_pinned_wells_have_no_level_below_the_grid():
    # the README, golden and bench wells: their warnings keep the text without a below-grid part
    for r2, n, v, ms in ((20.0, 10, 6.0, range(-6, 7)), (20.0, 1000, 6.0, [0, 3]), (20.0, 10, 20000.0, [0, 1, 150]),
                         (20.0, 3, 6.6, [-3, 3]), (20.0, 360, 6.1, [9])):
        spec = WellSpec.from_radius(r2, n, v)
        e = np.array([EDGE_FRACTION * v])
        assert all(_matching_residual_grid(e, spec, m, True)[1] == [0] for m in ms)
        comm = CommWellSpec(math.sqrt(r2), v)
        assert all(_log_derivative_mismatch_grid(e, comm, abs(m), True)[1] == [0] for m in ms)
