"""The batched scan grid against the scalar matching functions.

The grid path must reproduce the scalar value bit for bit at every lane
(asserted with ==, no tolerance), so the scan brackets, the refined roots
and the CLI tables cannot move.  The U-ratio quadrature lanes are held to
the one-lane scalar bit for bit and to 30-digit mpmath ratios.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from ncwell import specfun
from ncwell.core import (
    WellSpec,
    _matching_residual_grid,
    find_bound_states,
    matching_residual_bound,
    scan_roots,
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
    # the grid scan_roots builds: lo, then lo + i * step
    lo, hi = 1e-9 * v, v - 1e-9 * v
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


def test_scan_roots_counts_an_exact_grid_zero_once():
    def g(e):
        return e - 0.5

    roots = scan_roots(g, lambda grid: grid - 0.5, 0.0, 1.0, 5, 1e-12)
    assert roots == [(0.5, 0.0)]
    roots = scan_roots(g, lambda grid: grid - 0.5, 0.0, 1.0, 4, 1e-12)
    assert len(roots) == 1 and abs(roots[0][0] - 0.5) <= 1e-12


@pytest.mark.parametrize(
    "g, lo, hi, points, want",
    [
        (lambda e: (e - 0.2) * (e - 0.55) * (e - 0.9), 0.0, 1.0, 7, [0.2, 0.55, 0.9]),
        (math.cos, 0.0, 10.0, 20, [0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi]),
    ],
)
def test_scan_roots_refines_inside_brackets_and_reuses_every_value(g, lo, hi, points, want):
    calls = []

    def counted(e):
        calls.append((e, g(e)))
        return calls[-1][1]

    grid = lo + np.arange(points) * ((hi - lo) / (points - 1))
    tol = 1e-12
    roots = scan_roots(counted, lambda es: [g(e) for e in es.tolist()], lo, hi, points, tol)
    assert [r for r, _ in roots] == pytest.approx(want, rel=0, abs=tol)
    # the grid supplies the bracket values: g is called only between grid points
    called = dict(calls)
    assert not set(called) & set(grid.tolist())
    assert len(calls) == len(called) <= 10 * len(roots)
    # each residual is |g| at a point g was called at, the root itself
    for root, residual in roots:
        assert residual == abs(called[root])


def test_scan_roots_validates_grid_points_for_both_solvers():
    for bad in (1, 2.5):
        with pytest.raises(DomainError, match="grid_points"):
            find_bound_states(WellSpec.from_radius(20.0, 10, 6.0), 0, grid_points=bad)
        with pytest.raises(DomainError, match="grid_points"):
            comm_bound_states(CommWellSpec(math.sqrt(20.0), 6.0), 0, grid_points=bad)
