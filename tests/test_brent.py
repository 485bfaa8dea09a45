"""core._brent against scipy.optimize.brentq, the C routine it transcribes.

Every bound level must keep the bits it had when the scan refined its
brackets with brentq, so the port is pinned on the brackets of real scans
and on synthetic ones: the same root, bit for bit, and the same points
evaluated in the same order, none of them a grid point.  _brent is a
stepper that yields the points it needs; drive() here sends it the scalar
function's values one by one, as brentq calls the function.
scipy.optimize is imported here only; the package does not import it.
"""

import inspect
import math
import random
import sys

import pytest
from scipy import optimize

from ncwell import cli, core
from ncwell.core import BRENT_RTOL, WellSpec, _brent, find_bound_states, matching_residual_bound, scan_roots
from ncwell.errors import ConvergenceError
from ncwell.oracle import CommWellSpec, _log_derivative_mismatch_grid, comm_bound_states

_SRC, _FIRST = inspect.getsourcelines(_brent)
_ZERO_DIV_LINE = _FIRST + next(i for i, line in enumerate(_SRC) if "except ZeroDivisionError" in line)


def drive(g, a, b, ga, gb, xtol, rtol):
    """(root, g(root)) of a _brent stepper on [a, b], sent g at each point it yields, one by one."""
    stepper = _brent(a, b, ga, gb, xtol, rtol)
    try:
        point = next(stepper)
        while True:
            point = stepper.send(g(point))
    except StopIteration as stop:
        return stop.value


def assert_same_as_brentq(g, a, b, ga, gb, xtol, rtol):
    """The _brent stepper and brentq on one bracket: same root bits, same evaluation points."""

    def recorded(calls):
        def f(e):
            calls.append(e)
            return g(e)

        return f

    want_calls, got_calls = [], []
    want = optimize.brentq(recorded(want_calls), a, b, xtol=xtol, rtol=rtol)
    root, g_root = drive(recorded(got_calls), a, b, ga, gb, xtol, rtol)
    assert want_calls[:2] == [a, b] and [g(a), g(b)] == [ga, gb]
    assert got_calls == want_calls[2:]
    assert root.hex() == want.hex()
    assert g_root == g(root)
    # only strictly inside the bracket, so never at a grid point
    assert all(a < e < b for e in got_calls)


def scan_brackets(monkeypatch, g, run):
    """(g, *arguments) of every _brent stepper that run() starts, g being the scalar function of its scan."""
    calls = []
    real = core._brent

    def spy(*args):
        calls.append((g, *args))
        return real(*args)

    monkeypatch.setattr(core, "_brent", spy)
    run()
    monkeypatch.undo()
    return calls


def takes_zero_denominator(brackets) -> bool:
    """Whether the _brent stepper meets a zero interpolation denominator on any of the brackets."""
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == _ZERO_DIV_LINE:
            hits.append(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code is _brent.__code__ else None)
    try:
        for args in brackets:
            drive(*args)
    finally:
        sys.settrace(None)
    return bool(hits)


def comm_scalar(spec, m):
    """The commutative matching function at one energy, as the scalar Brent refinement called it."""
    return lambda e: float(_log_derivative_mismatch_grid(e, spec, m))


def test_readme_well_brackets_match_brentq(monkeypatch):
    # ncwell bound-states --radius sqrt20 --capital-n 10 --v 6 --m=-6..6, both solvers
    spec, comm = WellSpec.from_radius(20.0, 10, 6.0), CommWellSpec(math.sqrt(20.0), 6.0)
    levels, calls = [], []
    for m in range(-6, 7):
        calls += scan_brackets(monkeypatch, lambda e, m=m: matching_residual_bound(e, spec, m),
                               lambda: levels.extend(find_bound_states(spec, m)))
        calls += scan_brackets(monkeypatch, comm_scalar(comm, abs(m)),
                               lambda: levels.extend(comm_bound_states(comm, m)))
    assert len(calls) == len(levels) > 40
    for args in calls:
        assert_same_as_brentq(*args)


def test_deep_well_brackets_match_brentq_through_the_zero_denominator(monkeypatch):
    # the V = 1e4 and 1e5 wells of test_infinite_depth_limit_reaches_hard_wall_levels;
    # at 1e5 the residual is near 1e-195 and the extrapolation's denominator underflows to 0
    calls = []
    for m in (0, 1, 3):
        for spec, points in ((CommWellSpec(1.0, 1e4), core.GRID_POINTS), (CommWellSpec(1.0, 1e5), 40000)):
            calls += scan_brackets(monkeypatch, comm_scalar(spec, m),
                                   lambda: comm_bound_states(spec, m, grid_points=points))
    assert takes_zero_denominator(calls)
    assert len(calls) >= 6
    for args in calls:
        assert_same_as_brentq(*args)


_FORMS = {
    "cubic": lambda c, s: lambda x: (x - c) ** 3 + 1e-3 * s * (x - c),
    "step": lambda c, s: lambda x: -1.0 if x < c else 1.0 + s,
    "stair": lambda c, s: lambda x: math.floor(s * (x - c)) + 0.5,
    "tanh": lambda c, s: lambda x: math.tanh(s * (x - c)),
}


@pytest.mark.parametrize("scale", [1.0, 1e-190])
@pytest.mark.parametrize("form", sorted(_FORMS))
def test_synthetic_brackets_match_brentq(form, scale):
    rng = random.Random(f"{form}-{scale}")
    brackets = []
    for _ in range(60):
        g0 = _FORMS[form](rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(0.0, 4.0))

        def g(x, g0=g0):
            return scale * g0(x)

        lo, hi = rng.uniform(-0.5, 0.04), rng.uniform(0.96, 2.0)
        xtol = 10.0 ** rng.uniform(-14.0, -4.0)
        if (g(lo) < 0.0) != (g(hi) < 0.0) and g(lo) != 0.0 and g(hi) != 0.0:
            brackets.append((g, lo, hi, g(lo), g(hi), xtol, BRENT_RTOL))
    assert len(brackets) > 40
    # the scaled brackets underflow the extrapolation's denominator
    assert takes_zero_denominator(brackets) == (scale < 1.0 and form != "step")
    for args in brackets:
        assert_same_as_brentq(*args)


def test_iteration_cap_raises_naming_the_bracket(monkeypatch):
    def g(x):
        return math.tanh(100.0 * (x - 0.3))

    with pytest.raises(RuntimeError):
        optimize.brentq(g, 0.0, 1.0, xtol=1e-14, maxiter=3)
    monkeypatch.setattr(core, "BRENT_MAX_ITER", 3)
    with pytest.raises(ConvergenceError, match=r"within 3 steps on the bracket \[0\.0, 1\.0\]"):
        drive(g, 0.0, 1.0, g(0.0), g(1.0), 1e-14, BRENT_RTOL)


def test_nan_residual_raises_naming_the_energy():
    def g(x):
        return math.nan if 0.6 < x < 0.8 else x - 0.7

    # the secant step of both lands at 0.7
    with pytest.raises(ValueError, match=r"x=0\.7 is NaN"):
        optimize.brentq(g, 0.0, 1.0)
    with pytest.raises(ConvergenceError, match=r"NaN at E=0\.7 "):
        drive(g, 0.0, 1.0, g(0.0), g(1.0), 1e-12, BRENT_RTOL)
    # a NaN bracket value from the scan grid, next to a negative one
    with pytest.raises(ConvergenceError, match=r"NaN at E=1\.0 "):
        scan_roots(lambda grid: [-0.7, math.nan], 0.0, 1.0, 2, 1e-12)


def test_cli_maps_a_nan_residual_to_the_convergence_exit(monkeypatch, capsys):
    # the grid's lanes are untouched, so its brackets stand and the first refinement round meets the NaN
    real = core._matching_residual_grid
    v, points = 6.0, core.GRID_POINTS
    lo, hi = core.EDGE_FRACTION * v, v - core.EDGE_FRACTION * v
    grid = {lo + i * ((hi - lo) / (points - 1)) for i in range(points)}

    def residual(e, spec, m, count=False):
        got = real(e, spec, m, count)
        values = [g if x in grid else math.nan for x, g in zip(e.tolist(), got[0] if count else got)]
        return (values, got[1]) if count else values

    monkeypatch.setattr(core, "_matching_residual_grid", residual)
    argv = ["bound-states", "--radius", "sqrt20", "--capital-n", "10", "--v", "6", "--m", "0"]
    assert cli.main(argv) == cli.CONVERGENCE_EXIT
    assert "numerical non-convergence: matching residual is NaN at E=" in capsys.readouterr().err
