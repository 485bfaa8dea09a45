"""The batched scan grid against the scalar matching functions.

The grid path must reproduce the scalar value bit for bit at every lane
(asserted with ==, no tolerance), so the scan brackets, the refined roots
and the CLI tables cannot move.  The U-ratio continued fraction, scalar and
grid, is held to the reference loop in scalar_reference, not to itself.
"""

import math

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
from ncwell.specfun import _laguerre_sweep_grid, _u_cf, _u_cf_grid, bessel, bessel_deriv
from scalar_reference import _u_cf as cf_reference


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
    # (a + m + 1) x = 4 with x = theta (V - E)
    e_seam = spec.v - 4.0 / ((a + m + 1) * spec.theta)
    energies = e_seam + np.linspace(-0.05, 0.05, 41)
    x = spec.theta * (spec.v - energies)
    series = (a + m + 1) * x <= 4.0
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


def test_cf_grid_exact_and_raises_naming_the_lane(monkeypatch):
    x = np.array([0.004, 0.03, 0.5, 7.0])
    assert _u_cf_grid(1001, 1, x).tolist() == [cf_reference(1001, 1, xi) for xi in x.tolist()]
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 5)
    with pytest.raises(ConvergenceError, match=r"a=1001, b=1, x=0\.004"):
        _u_cf_grid(1001, 1, x)


def cf_outcome(fn, a, b, x):
    """float.hex of fn's value (NaN and the sign of zero count), or the type and text of its ConvergenceError."""
    try:
        value = fn(a, b, x)
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return [float.hex(v) for v in value.tolist()] if isinstance(value, np.ndarray) else float.hex(value)


def assert_cf_matches_reference(a, b, x):
    """The scalar on every lane of x and the grid on all of them against the reference, values and errors."""
    x = np.asarray(x, dtype=float).tolist()
    want = [cf_outcome(cf_reference, a, b, xi) for xi in x]
    assert [cf_outcome(_u_cf, a, b, xi) for xi in x] == want
    failures = [w for w in want if isinstance(w, tuple)]
    assert cf_outcome(_u_cf_grid, a, b, np.array(x, dtype=float)) == (failures[0] if failures else want)
    return want


def cf_exit_step(a, b, x):
    """The step j at which the reference continued fraction returns: the fewest iterations it needs, less one."""
    lo, hi = 1, 1 << 16
    with pytest.MonkeyPatch.context() as mp:
        while lo < hi:
            mid = (lo + hi) // 2
            mp.setattr(specfun, "_CF_MAX_ITER", mid)
            try:
                cf_reference(a, b, x)
            except ConvergenceError:
                lo = mid + 1
            else:
                hi = mid
    return lo - 1


def first_scalar_failure(a, b, x):
    """The message of the reference's ConvergenceError on the first lane of x that raises one."""
    for xi in x:
        try:
            cf_reference(a, b, xi)
        except ConvergenceError as exc:
            return str(exc)
    raise AssertionError("every lane converged")


# a = 1, b = 1 lanes by the step at which the scalar exits; no lane can exit
# at step 0, whose Lentz factor is 1 + 1e300 / (x + 3)
BLOCK_EDGE_LANES = [1e20, 3.41, 3.26, 3.13, 0.776, 0.0529]


def test_cf_grid_exact_at_block_edges():
    block = specfun._CF_BLOCK
    steps = [cf_exit_step(1, 1, x) for x in BLOCK_EDGE_LANES]
    assert steps[:5] == [1, block - 1, block, block + 1, 100] and steps[5] > 30 * block
    assert_cf_matches_reference(1, 1, BLOCK_EDGE_LANES)
    # each lane alone, and in reverse order
    for x in BLOCK_EDGE_LANES:
        assert_cf_matches_reference(1, 1, [x])
    assert_cf_matches_reference(1, 1, BLOCK_EDGE_LANES[::-1])


def test_cf_grid_exact_when_every_lane_ends_in_the_first_block():
    x = [3.6, 5.0, 10.0, 100.0, 1e20]
    assert max(cf_exit_step(1, 1, xi) for xi in x) < specfun._CF_BLOCK
    assert_cf_matches_reference(1, 1, x)


def test_cf_grid_of_no_lanes_is_empty():
    assert _u_cf_grid(5, 1, np.array([])).shape == (0,)


def test_cf_grid_exact_on_a_wavefunction_sized_grid():
    # as wide as the wavefunction's radial scan: blocks shrink to stay in their buffer
    x = np.linspace(0.05, 8.0, 1900)
    assert x.size * specfun._CF_BLOCK > specfun._BLOCK_CELLS
    assert_cf_matches_reference(92, 0, x)


@pytest.mark.parametrize("b", range(1, -8, -1))
def test_cf_grid_exact_for_every_b(b):
    a = 40
    assert_cf_matches_reference(a, b, np.geomspace(4.0 / (a + 2 - b), 10.0, 25))


@pytest.mark.parametrize("limit", [5, specfun._CF_BLOCK + 3])
def test_cf_grid_names_the_first_lane_at_a_limit_off_the_block_grid(monkeypatch, limit):
    x = [1e20, 3.41, 0.776, 3.0]
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", limit)
    want = first_scalar_failure(1, 1, x)
    assert ("x=3.41" in want) == (limit == 5)
    with pytest.raises(ConvergenceError) as err:
        _u_cf_grid(1, 1, np.array(x))
    assert str(err.value) == want


def test_cf_grid_redoes_a_block_with_a_zero_denominator(monkeypatch):
    # x = b - 2a - 2 makes the first denominator x + 2(a+1) - b exactly 0
    a, b = 1, 1
    x = [5.0, float(b - 2 * a - 2), 10.0]
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 2 * specfun._CF_BLOCK + 3)
    runs = []
    block = specfun._u_cf_block

    def spy(aj, bj, f, c, d, fix):
        runs.append((bj.shape, fix))
        return block(aj, bj, f, c, d, fix)

    monkeypatch.setattr(specfun, "_u_cf_block", spy)
    want = first_scalar_failure(a, b, x)
    assert "x=-3.0" in want
    with pytest.raises(ConvergenceError) as err:
        _u_cf_grid(a, b, np.array(x))
    assert str(err.value) == want
    # the first block ran without the fix, saw the zero and ran again with it
    assert runs[:2] == [((specfun._CF_BLOCK, 3), False), ((specfun._CF_BLOCK, 3), True)]
    # a zero first denominator that still exits: the fixed run gives the scalar's inf
    runs.clear()
    assert cf_reference(1, 6, 2.0) == _u_cf(1, 6, 2.0) == math.inf
    assert_cf_matches_reference(1, 6, [2.0, 5.0])
    assert [fix for _, fix in runs[:2]] == [False, True]


def test_cf_grid_matches_the_scalar_on_seeded_lanes():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a = int(rng.choice([rng.integers(1, 40), rng.integers(40, 1002)]))
        b = int(rng.integers(-7, 2))
        # from the series/CF seam (a + m + 1) x = 4, m = 1 - b, up to about 10
        lo = math.log(4.0 / (a + 2 - b))
        assert_cf_matches_reference(a, b, np.exp(rng.uniform(lo, math.log(10.0), int(rng.integers(1, 12)))))


def test_cf_matches_the_reference_on_seeded_arguments():
    rng = np.random.default_rng(23)
    outcomes = []
    for _ in range(60):
        a = int(rng.choice([rng.integers(1, 40), rng.integers(40, 3001)]))
        b = int(rng.integers(-40, 2))
        # x log-uniform over [1e-4, 10], off the series/CF seam as well as on the CF side of it
        outcomes += assert_cf_matches_reference(a, b, np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 3)).tolist())
    assert sum(isinstance(o, str) for o in outcomes) > 150


def test_cf_matches_the_reference_at_a_zero_first_denominator(monkeypatch):
    # x = b - 2a - 2 makes x + 2(a+1) - b exactly 0: both forms take the first d as tiny; at
    # b <= 1 that x is negative and no lane converges, so a lower cap keeps the test short
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 3000)
    for a, b in ((1, 1), (1, 6), (5, -3), (40, 0), (300, -12)):
        x = float(b - 2 * a - 2)
        assert_cf_matches_reference(a, b, [x])
        assert_cf_matches_reference(a, b, [5.0, x, 0.5])


def tail_runs(monkeypatch):
    """The step j of every lane the grid hands to the scalar steps, in the order it hands them."""
    runs = []
    cf_from = specfun._u_cf_from

    def spy(a, b, x, j, f, c, d):
        runs.append(j)
        return cf_from(a, b, x, j, f, c, d)

    monkeypatch.setattr(specfun, "_u_cf_from", spy)
    return runs


def test_cf_grid_tail_lanes_exit_before_at_and_after_the_crossover_block(monkeypatch):
    block, tail = specfun._CF_BLOCK, specfun._CF_TAIL_LANES
    runs = tail_runs(monkeypatch)
    # a = 1, b = 1: 1e20 and 3.41 exit in the first block (steps 1 and block - 1), 3.26 on the first
    # step after it and 3.13 on the second; the fillers and 0.776 (step 100) run past the second block
    edge = [1e20, 3.41, 3.26, 3.13, 0.776]
    assert [cf_exit_step(1, 1, x) for x in edge] == [1, block - 1, block, block + 1, 100]
    for live in (tail - 1, tail, tail + 1, tail + 2):
        x = edge + np.geomspace(0.05, 0.7, live - 3).tolist()
        assert min(cf_exit_step(1, 1, xi) for xi in x[5:]) > 2 * block
        for lanes in (x, x[::-1]):
            assert_cf_matches_reference(1, 1, lanes)
            runs.clear()
            _u_cf_grid(1, 1, np.array(lanes))
            # at most tail lanes live after the first block finish scalar from there; one or two
            # more run the second block on the lanes, where 3.26 and 3.13 exit
            assert runs == ([block] * live if live <= tail else [2 * block] * (live - 2))


@pytest.mark.parametrize("lanes", [1, 2, 15, 16, 17, 18, 40])
def test_cf_grid_lane_counts_on_both_sides_of_the_crossover(lanes):
    rng = np.random.default_rng(lanes)
    for a, b in ((1, 1), (92, 0), (1001, 1), (2500, -33)):
        lo = math.log(4.0 / (a + 2 - b))
        assert_cf_matches_reference(a, b, np.exp(rng.uniform(lo, math.log(10.0), lanes)).tolist())


@pytest.mark.parametrize("lanes", [3, 30])
@pytest.mark.parametrize("cap", [1, 5, 40, 3 * 32 + 3])
def test_cf_cap_raises_the_reference_error_on_both_paths(monkeypatch, lanes, cap):
    # 3 lanes reach the cap on the scalar steps, 30 on the lane steps (a cap below 32 cuts the
    # first block short); lane 0 exits at step 1, so past a cap of 1 the error names a later lane
    assert specfun._CF_BLOCK == 32 and 3 <= specfun._CF_TAIL_LANES < 30
    runs = tail_runs(monkeypatch)
    x = [1e20, *np.geomspace(0.02, 0.5, lanes - 1).tolist()]
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", cap)
    want = assert_cf_matches_reference(1, 1, x)
    assert isinstance(want[1], tuple) and want[1][0] is ConvergenceError
    runs.clear()
    with pytest.raises(ConvergenceError):
        _u_cf_grid(1, 1, np.array(x))
    assert (len(runs) > 0) == (lanes == 3)


def test_cf_step_counter_must_stay_an_exact_float(monkeypatch):
    # p = a + j is counted in floats, exact below 2**53: a + _CF_MAX_ITER may not reach it
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 5)
    for fn, x in ((_u_cf, 1.0), (_u_cf_grid, np.array([1.0, 2.0]))):
        with pytest.raises(DomainError, match=rf"a={2**53 - 5}, b=-3"):
            fn(2**53 - 5, -3, x)
        try:
            fn(2**53 - 6, -3, x)
        except ConvergenceError:
            pass


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
