"""The batched scan grid against the scalar matching functions.

The grid path must reproduce the scalar value bit for bit at every lane
(asserted with ==, no tolerance), so the scan brackets, the refined roots
and the CLI tables cannot move.  The U-ratio quadrature lanes are held to
the one-lane scalar bit for bit and to 30-digit mpmath ratios.
"""

import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest

from ncwell import specfun
from ncwell.core import (
    EDGE_FRACTION,
    ROOT_FRACTION,
    WellSpec,
    _matching_residual_grid,
    _scan_sectors,
    find_bound_states,
    matching_residual_bound,
)
from ncwell.errors import ConvergenceError, DomainError
from ncwell.oracle import CommWellSpec, _log_derivative_mismatch_grid, comm_bound_states
from ncwell.specfun import (
    _laguerre_sweep_grid,
    _u_cf,
    _u_quad,
    _u_ratio_1m,
    _u_ratio_1m_grid,
    bessel,
    bessel_deriv,
)


def scan_grid(v, points):
    # the grid _scan_sectors builds: lo, then lo + i * step
    lo, hi = EDGE_FRACTION * v, v - EDGE_FRACTION * v
    return lo + np.arange(points) * ((hi - lo) / (points - 1))


def assert_nc_grid_exact(energies, spec, m):
    got = _matching_residual_grid(energies, spec, m)
    want = [matching_residual_bound(e, spec, m) for e in energies.tolist()]
    assert got == want


def test_nc_grid_exact_at_n0():
    spec = WellSpec.from_radius(20.0, 0, 6.0)
    assert_nc_grid_exact(scan_grid(spec.v, 400), spec, 0)


@pytest.mark.parametrize("m", range(-10, 7))
def test_nc_grid_exact_at_n10_every_sector(m):
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    assert_nc_grid_exact(scan_grid(spec.v, 300), spec, m)


@pytest.mark.parametrize("m", [0, 9])
def test_nc_grid_exact_at_n1000_long_continued_fractions(m):
    spec = WellSpec.from_radius(20.0, 1000, 10.0)
    assert_nc_grid_exact(scan_grid(spec.v, 60), spec, m)


@pytest.mark.parametrize("m", [0, 9])
def test_nc_grid_exact_at_n1000_renormalizing_sweeps(m):
    # theta = 10: w = theta E passes 4N, where L^m_n grows past 1e250
    spec = WellSpec(10.0, 1000, 1000.0)
    energies = scan_grid(spec.v, 40)
    rows = _laguerre_sweep_grid(m, spec.theta * energies, (1000, 1001))
    assert np.count_nonzero(rows[1001][1]) > 10
    assert_nc_grid_exact(energies, spec, m)


def test_nc_grid_exact_across_series_cf_seam():
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    m = 1
    a = spec.cap_n + 1
    # (a + m + 1) x = _U_SERIES_SEAM with x = theta (V - E)
    e_seam = spec.v - specfun._U_SERIES_SEAM / ((a + m + 1) * spec.theta)
    energies = e_seam + np.linspace(-0.01, 0.01, 41)
    x = spec.theta * (spec.v - energies)
    series = (a + m + 1) * x <= specfun._U_SERIES_SEAM
    assert series.any() and not series.all()
    assert_nc_grid_exact(energies, spec, m)


def comm_mismatch_reference(energy, spec, m):
    # the commutative matching function one energy at a time, from the Bessel wrappers
    r = spec.radius
    k = math.sqrt(2.0 * energy)
    kappa = math.sqrt(2.0 * (spec.v - energy))
    return k * bessel_deriv("J", m, k * r) * bessel("K", m, kappa * r) - kappa * bessel_deriv(
        "K", m, kappa * r
    ) * bessel("J", m, k * r)


@pytest.mark.parametrize("m", range(7))
def test_comm_grid_exact(m):
    spec = CommWellSpec(math.sqrt(20.0), 6.0)
    energies = scan_grid(spec.v, 4000).tolist()
    want = [comm_mismatch_reference(e, spec, m) for e in energies]
    assert _log_derivative_mismatch_grid(np.array(energies), spec, m).tolist() == want
    # one energy at a time, as the root refinement calls it
    assert [float(_log_derivative_mismatch_grid(e, spec, m)) for e in energies] == want


# The test_cf_* tests below hold the U-ratio lanes, now the quadrature _u_quad,
# under the names they had when the continued fraction ran them.

def ratio_outcome(fn, a, b, x):
    """float.hex of fn's value (NaN and the sign of zero count), or the type and text of its ConvergenceError."""
    try:
        value = fn(a, b, x)
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return [float.hex(v) for v in value.tolist()] if isinstance(value, np.ndarray) else float.hex(value)


def assert_grid_matches_scalar(a, b, x):
    """_u_ratio_1m_grid on all lanes of x against _u_ratio_1m on each, values and errors, bit for bit."""
    m, x = 1 - b, np.asarray(x, dtype=float).tolist()
    want = [ratio_outcome(_u_ratio_1m, a, m, xi) for xi in x]
    failures = [w for w in want if isinstance(w, tuple)]
    assert ratio_outcome(_u_ratio_1m_grid, a, m, np.array(x, dtype=float)) == (failures[0] if failures else want)
    return want


def assert_near_mpmath(a, b, x, rel=1e-15):
    with mp.workdps(30):
        for xi in np.asarray(x, dtype=float).tolist():
            want = mp.hyperu(a + 1, b, xi) / mp.hyperu(a, b, xi)
            assert abs(_u_cf(a, b, xi) - want) <= rel * want, (a, b, xi)


def coarse_nodes(monkeypatch, count):
    """Replace the quadrature's node table by count nodes at the same step: too few to meet the guard."""
    monkeypatch.setattr(specfun, "_UQ_NODES", specfun._u_quad_nodes(0.06, count // 2, (count - 1) // 2))


def test_cf_grid_exact_and_raises_naming_the_lane(monkeypatch):
    x = np.array([0.004, 0.03, 0.5, 7.0])
    assert _u_quad(1001, 1, x).tolist() == [_u_cf(1001, 1, xi) for xi in x.tolist()]
    coarse_nodes(monkeypatch, 41)
    with pytest.raises(ConvergenceError, match=r"a=1001, b=1, x=0\.004$"):
        _u_quad(1001, 1, x)


def test_cf_grid_raises_below_its_floor_naming_the_lane():
    # (a+2-b) x = 0.1 on the middle lane: the rule is 5.4e-14 off there while both node bounds hold
    x = np.array([0.03, 0.1 / 1002, 7.0])
    with pytest.raises(ConvergenceError, match=re.escape(f"a=1001, b=1, x={x[1]}") + "$"):
        _u_quad(1001, 1, x)
    assert _u_quad(1001, 1, x[[0, 2]]).tolist() == [_u_cf(1001, 1, 0.03), _u_cf(1001, 1, 7.0)]


def mixed_sector_lanes():
    # per-lane (a, b, x): b from 1 down to -30, a from 1 to 1001, x from (a+2-b) x = 1 up to 10
    rng = np.random.default_rng(5)
    a = np.array([1, 1001, 40, 7, 1001, 300, 1, 12, 999, 2])
    b = np.array([1, -30, 0, -3, 1, -17, -30, 1, -9, -1])
    x = np.exp(rng.uniform(np.log(1.0 / (a + 2 - b)), np.log(10.0)))
    # rolled by one lane, so that the first lane meets the guard of an 81-node table and the third does not
    return np.roll(a, -1), np.roll(b, -1), np.roll(x, -1)


def test_cf_grid_with_a_sector_per_lane_equals_each_lanes_own_call(monkeypatch):
    a, b, x = mixed_sector_lanes()
    lanes = list(zip(a.tolist(), b.tolist(), x.tolist()))
    assert _u_quad(a, b, x).tolist() == [_u_cf(ai, bi, xi) for ai, bi, xi in lanes]
    assert _u_ratio_1m_grid(a, 1 - b, x).tolist() == [_u_ratio_1m(ai, 1 - bi, xi) for ai, bi, xi in lanes]
    # too few nodes: the guard names the first lane that fails on its own, which is not the first lane
    coarse_nodes(monkeypatch, 81)
    fails = [isinstance(ratio_outcome(_u_cf, *lane), tuple) for lane in lanes]
    first = fails.index(True)
    assert 0 < first < len(lanes) - 1 and not all(fails[first:])
    ai, bi, xi = lanes[first]
    with pytest.raises(ConvergenceError, match=re.escape(f"for a={ai}, b={bi}, x={xi}") + "$"):
        _u_quad(a, b, x)


def test_cf_grid_exact_at_block_edges():
    # quadrature lanes run in chunks of _BLOCK_CELLS // nodes lanes; every lane here is past the seam
    chunk = specfun._BLOCK_CELLS // specfun._UQ_NODES[0].size
    assert chunk > 30
    for lanes in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        x = np.geomspace(1.01 / 1002, 10.0, lanes)
        assert_grid_matches_scalar(1001, 1, x)
        assert_grid_matches_scalar(1001, 1, x[::-1])


def test_cf_grid_exact_when_every_lane_ends_in_the_first_block():
    # a = 1 lanes from just past the seam to 1e20, where U(2,1,x)/U(1,1,x) is about 1/x
    x = [0.5000001, 2.0, 3.6, 5.0, 10.0, 100.0, 1e20]
    assert_grid_matches_scalar(1, 1, x)
    assert_near_mpmath(1, 1, x)


def test_cf_grid_of_no_lanes_is_empty():
    assert _u_quad(5, 1, np.array([])).shape == (0,)
    assert _u_ratio_1m_grid(5, 0, np.array([])).shape == (0,)


def test_cf_grid_exact_on_a_wavefunction_sized_grid():
    # as wide as the wavefunction's radial scan: the lanes run in many chunks
    x = np.linspace(0.05, 8.0, 1900)
    assert x.size * specfun._UQ_NODES[0].size > 10 * specfun._BLOCK_CELLS
    assert_grid_matches_scalar(92, 0, x)


@pytest.mark.parametrize("b", range(1, -8, -1))
def test_cf_grid_exact_for_every_b(b):
    a = 40
    x = np.geomspace(1.0 / (a + 2 - b), 10.0, 25)
    assert_grid_matches_scalar(a, b, x)
    assert_near_mpmath(a, b, x[::6])


def test_cf_grid_matches_the_scalar_on_seeded_lanes():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a = int(rng.choice([rng.integers(1, 40), rng.integers(40, 1002)]))
        b = int(rng.integers(-7, 2))
        # from the series/quadrature seam (a + m + 1) x = 1, m = 1 - b, up to about 10
        lo = math.log(1.0 / (a + 2 - b))
        assert_grid_matches_scalar(a, b, np.exp(rng.uniform(lo, math.log(10.0), int(rng.integers(1, 12)))))


def test_cf_matches_the_reference_on_seeded_arguments():
    # the reference is now mpmath's ratio; x log-uniform over [1e-4, 10], on both sides of the seam
    rng = np.random.default_rng(23)
    quad = 0
    for _ in range(60):
        a = int(rng.choice([rng.integers(1, 40), rng.integers(40, 3001)]))
        b = int(rng.integers(-40, 2))
        x = np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 3))
        assert_grid_matches_scalar(a, b, x)
        on = x[(a + 2 - b) * x > specfun._U_SERIES_SEAM]
        quad += on.size
        assert_near_mpmath(a, b, on)
    assert quad > 80


@pytest.mark.parametrize("lanes", [1, 2, 15, 16, 17, 18, 40])
def test_cf_grid_lane_counts_on_both_sides_of_the_crossover(monkeypatch, lanes):
    # chunks of 16 lanes: 15 to 18 lanes end on either side of the first chunk's edge
    monkeypatch.setattr(specfun, "_BLOCK_CELLS", 16 * specfun._UQ_NODES[0].size)
    rng = np.random.default_rng(lanes)
    for a, b in ((1, 1), (92, 0), (1001, 1), (2500, -33)):
        lo = math.log(1.0 / (a + 2 - b))
        assert_grid_matches_scalar(a, b, np.exp(rng.uniform(lo, math.log(10.0), lanes)).tolist())


@pytest.mark.parametrize("lanes", [3, 30])
@pytest.mark.parametrize("nodes", [1, 5, 40, 99])
def test_cf_cap_raises_the_reference_error_on_both_paths(monkeypatch, lanes, nodes):
    # a node table cut to nodes nodes leaves weight at its ends on every a = 1 lane, so both
    # paths raise, and the grid names the lane the scalar raises on first
    x = [1e20, *np.geomspace(0.52, 50.0, lanes - 1).tolist()]
    coarse_nodes(monkeypatch, nodes)
    want = assert_grid_matches_scalar(1, 1, x)
    assert all(isinstance(w, tuple) and w[0] is ConvergenceError for w in want)
    assert want[0][1].endswith("for a=1, b=1, x=1e+20")


def scan_one(g, v, points):
    # the roots of g(es, count) on _scan_sectors' grid for V = v, in one sector; its error is raised
    (roots,), _ = _scan_sectors(lambda es, _, count=False: g(es, count), [0], v, points)
    if isinstance(roots, Exception):
        raise roots
    return roots


def test_scan_roots_counts_an_exact_grid_zero_once():
    def g(root):
        # the one level, counted below every energy above it
        return lambda es, count: (es - root, (es > root).astype(int)) if count else es - root

    mid = scan_grid(1.0, 5)[2]  # 0.5 to within EDGE_FRACTION
    roots = scan_one(g(mid), 1.0, 5)
    assert roots == [(mid, 0.0)]
    roots = scan_one(g(0.5), 1.0, 4)
    assert len(roots) == 1 and abs(roots[0][0] - 0.5) <= ROOT_FRACTION


@pytest.mark.parametrize(
    "g, lo, hi, points, want",
    [
        (lambda e: (e - 0.2) * (e - 0.55) * (e - 0.9), 0.0, 1.0, 7, [0.2, 0.55, 0.9]),
        (math.cos, 0.0, 10.0, 20, [0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi]),
    ],
)
def test_scan_roots_refines_inside_brackets_and_reuses_every_value(g, lo, hi, points, want):
    assert lo == 0.0  # the scan covers (0, V)
    v = hi
    passes = []

    def lanes(es, count):
        # a count that rises at every energy puts a level in every coarse cell, so the scan
        # evaluates every grid point
        passes.append(es.tolist())
        values = [g(e) for e in passes[-1]]
        return (values, passes[-1]) if count else values

    grid = scan_grid(v, points).tolist()
    tol = ROOT_FRACTION * v
    roots = scan_one(lanes, v, points)
    assert [r for r, _ in roots] == pytest.approx(want, rel=0, abs=tol)
    # the first passes are the grid, its coarse points and then the others, which supply the
    # bracket values; each later one is a round with at most one point per bracket, strictly
    # inside it, so never at a grid point
    rounds = list(itertools.dropwhile(lambda p: set(p) <= set(grid), passes))
    assert sorted(e for p in passes[:len(passes) - len(rounds)] for e in p) == grid
    brackets = [(a, b) for a, b in zip(grid, grid[1:]) if (g(a) < 0.0) != (g(b) < 0.0)]
    assert len(brackets) == len(roots)
    called = [e for points_ in rounds for e in points_]
    assert all(len(points_) <= len(brackets) for points_ in rounds)
    assert all(sum(a < e < b for a, b in brackets) == 1 for e in called)
    assert len(called) == len(set(called)) <= 10 * len(roots)
    # each residual is |g| at a point g was called at, the root itself
    for root, residual in roots:
        assert root in called and residual == abs(g(root))


def test_scan_roots_validates_grid_points_for_both_solvers():
    for bad in (1, 2.5):
        with pytest.raises(DomainError, match="grid_points"):
            find_bound_states(WellSpec.from_radius(20.0, 10, 6.0), 0, grid_points=bad)
        with pytest.raises(DomainError, match="grid_points"):
            comm_bound_states(CommWellSpec(math.sqrt(20.0), 6.0), 0, grid_points=bad)
