"""The multi-sector bound scans against a loop over the one-sector calls.

`bound-states` and `compare --quantity bound-states` scan every sector of
--m at once: core._bound_sectors and oracle._comm_sectors run each
sector's grid, then refine the brackets of all sectors in lockstep rounds,
one lane pass each.  Every level must equal a loop over find_bound_states /
comm_bound_states bit for bit (energies, residuals and level indices, all
compared with ==), and a failing scan must raise what that loop raises
first.
"""

import math
import re
import warnings

import numpy as np
import pytest

import ncwell.core as core_mod
from ncwell import cli
from ncwell.core import WellSpec, _bound_sectors, _matching_residual_grid, find_bound_states, matching_residual_bound
from ncwell.errors import ConvergenceError
from ncwell.oracle import CommWellSpec, _comm_sectors, _log_derivative_mismatch_grid, comm_bound_states

WELLS = {
    "N=10, m=-6..6, 250 points": (WellSpec.from_radius(20.0, 10, 6.0), range(-6, 7), 250),
    "N=10, m=-6..6, 2000 points": (WellSpec.from_radius(20.0, 10, 6.0), range(-6, 7), 2000),
    "N=1000, m=-2..2": (WellSpec.from_radius(20.0, 1000, 6.0), range(-2, 3), 300),
    # tests/data/bound_states_n10_v20000.csv: both scans miss levels and warn
    "N=10, V=20000, m=0..1": (WellSpec.from_radius(20.0, 10, 20000.0), range(0, 2), 300),
}


def quietly(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn()


@pytest.mark.parametrize("spec, ms, points", WELLS.values(), ids=WELLS.keys())
def test_multi_sector_scans_equal_the_sector_loop(spec, ms, points):
    ms = list(ms)
    comm = CommWellSpec(spec.radius, spec.v)
    assert quietly(lambda: list(_bound_sectors(spec, ms, points))) == quietly(
        lambda: [find_bound_states(spec, m, points) for m in ms]
    )
    loop = quietly(lambda: [comm_bound_states(comm, m, points) for m in ms])
    assert quietly(lambda: list(_comm_sectors(comm, ms, points))) == loop
    assert sum(map(len, loop)) > 0


def test_plus_minus_m_share_one_commutative_scan():
    comm = CommWellSpec(math.sqrt(20.0), 6.0)
    levels = dict(zip(range(-6, 7), _comm_sectors(comm, list(range(-6, 7)), 2000)))
    for m in range(1, 7):
        relabelled = [type(s)(m=m, energy=s.energy, residual=s.residual, level=s.level) for s in levels[-m]]
        assert relabelled == levels[m] != []
        assert [s.m for s in levels[-m]] == [-m] * len(levels[m])


def test_the_count_warning_fires_once_per_label():
    # the deep well misses levels at both m = 1 and m = -1, which share one scan
    comm = CommWellSpec(math.sqrt(20.0), 20000.0)
    with pytest.warns(RuntimeWarning) as rec:
        list(_comm_sectors(comm, [-1, 0, 1], 300))
    assert [re.search(r"for m = (-?\d+),", str(w.message)).group(1) for w in rec] == ["-1", "0", "1"]


def test_per_lane_sectors_equal_one_lane_calls():
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    rng = np.random.default_rng(3)
    ms = rng.integers(-10, 8, 40)
    energies = rng.uniform(1e-3, spec.v - 1e-3, 40)
    want = [matching_residual_bound(e, spec, int(m)) for e, m in zip(energies.tolist(), ms.tolist())]
    assert _matching_residual_grid(energies, spec, ms) == want
    comm = CommWellSpec(spec.radius, spec.v)
    want = [float(_log_derivative_mismatch_grid(e, comm, int(abs(m)))) for e, m in zip(energies.tolist(), ms.tolist())]
    assert _log_derivative_mismatch_grid(energies, comm, np.abs(ms)).tolist() == want


def test_the_first_failing_sector_in_loop_order_is_reported(monkeypatch, capsys):
    # m = 3 fails on its scan grid, which the lockstep scan runs before any Brent round; m = 1
    # fails on its first Brent point, which a loop over the sectors reaches first
    spec, n, points = WellSpec.from_radius(20.0, 10, 6.0), 10, core_mod.GRID_POINTS
    real = core_mod._u_ratio_1m_grid

    def ratio(a, m, x):
        a_, m_ = np.broadcast_to(a, x.shape), np.broadcast_to(m, x.shape)
        bad = (a_ == n + 1) & ((m_ == 3) | ((m_ == 1) & (x.size != points)))
        return np.where(bad, math.inf, real(a, m, x))

    # every bracket of m = 1 fails at its first point; the loop refines the lowest first
    lo, hi = core_mod.EDGE_FRACTION * spec.v, spec.v - core_mod.EDGE_FRACTION * spec.v
    grid = (lo + np.arange(points) * ((hi - lo) / (points - 1))).tolist()
    g = _matching_residual_grid(np.array(grid), spec, 1)
    i = next(i for i in range(points - 1) if (g[i] < 0.0) != (g[i + 1] < 0.0))
    first = next(core_mod._brent(grid[i], grid[i + 1], g[i], g[i + 1], core_mod.ROOT_FRACTION * spec.v,
                                 core_mod.BRENT_RTOL))
    monkeypatch.setattr(core_mod, "_u_ratio_1m_grid", ratio)
    with pytest.raises(ConvergenceError) as loop:
        for m in range(-2, 5):
            find_bound_states(spec, m)
    assert str(loop.value).endswith(f" is not finite at E={first!r}, m=1, N=10")
    argv = ["bound-states", "--radius", "sqrt20", "--capital-n", "10", "--v", "6", "--m=-2..4"]
    for command in (argv, ["compare", "--quantity", "bound-states", *argv[1:]]):
        assert cli.main(command) == cli.CONVERGENCE_EXIT
        assert capsys.readouterr().err == f"ncwell: numerical non-convergence: {loop.value}\n"
