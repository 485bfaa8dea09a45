"""The one level driver of both bound solvers (core._sector_levels) and the sector map under it.

find_bound_states, comm_bound_states and `bound-states` reach the one scan
through one driver.  Its warnings must point at the code that asked for
the levels, its errors come in the order of a loop over the sectors, and
the negative-m map core._sector is one rule for an int and for an int
array of per-lane sectors.
"""

import pathlib
import warnings

import numpy as np
import pytest

from ncwell import cli
from ncwell.core import WellSpec, _bound_sectors, _sector, find_bound_states
from ncwell.errors import DomainError
from ncwell.oracle import CommWellSpec, comm_bound_states

# the deep well of tests/data/bound_states_n10_v20000.csv: both scans miss levels at 300 points
DEEP = WellSpec.from_radius(20.0, 10, 20000.0)


def recorded(run):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        run()
    assert rec and all(w.category is RuntimeWarning for w in rec)
    return rec


def test_library_warnings_point_at_the_caller():
    for run in (
        lambda: find_bound_states(DEEP, 0, 300),
        lambda: comm_bound_states(CommWellSpec(DEEP.radius, DEEP.v), 0, 300),
    ):
        assert {w.filename for w in recorded(run)} == {__file__}


def test_cli_warnings_point_at_the_cli(capsys):
    argv = ["bound-states", "--radius", "sqrt20", "--capital-n", "10", "--v", "20000", "--m=0..1",
            "--grid-points", "300"]
    rec = recorded(lambda: cli.main(argv))
    capsys.readouterr()
    assert {pathlib.Path(w.filename) for w in rec} == {pathlib.Path(cli.__file__)}
    assert len(rec) == 4


def test_a_cut_off_sector_after_scanned_ones_raises_in_loop_order():
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    sectors = _bound_sectors(spec, [0, 1, -11, 2], 250)
    assert next(sectors) == find_bound_states(spec, 0, 250) != []
    assert next(sectors) == find_bound_states(spec, 1, 250) != []
    with pytest.raises(DomainError, match=r"cut off at \|m\| <= N: got m=-11, N=10"):
        next(sectors)


def test_the_sector_map_of_an_int_array_is_the_int_map_lane_by_lane():
    spec = WellSpec.from_radius(20.0, 10, 6.0)
    ms = np.arange(-10, 11)
    order, row = _sector(ms, spec)
    assert (order.tolist(), row.tolist()) == tuple(map(list, zip(*(_sector(m, spec) for m in ms.tolist()))))
    assert _sector(-3, spec) == (3, 7) and _sector(4, spec) == (4, 10)
    assert all(type(v) is int for v in _sector(-3, spec))
