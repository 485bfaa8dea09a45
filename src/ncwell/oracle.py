"""Commutative 2D circular-well reference solver.

Independent of the projector-based solver: it never reads theta or the
boundary Fock index, only the radius R and the exterior level V.  Interior
solutions are J_m(k_in r) with k_in = sqrt(2E); bound exteriors decay as
K_m(kappa r) with kappa = sqrt(2(V-E)); scattering exteriors are
A J_m(k_out r) + B Y_m(k_out r) with k_out = sqrt(2(E-V)).  Value and
derivative continuity at r = R fixes the spectrum and tan(delta) = -B/A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GRID_POINTS,
    BoundState,
    CrossSectionPoint,
    PhaseShiftPoint,
    _check_above_v,
    _check_cross_section_args,
    _sector_levels,
    partial_wave_sum,
)
from .errors import DomainError
from .specfun import _check_int, bessel, bessel_deriv  # noqa: F401  (bench/tracing.py hooks both here)


@dataclass(frozen=True)
class CommWellSpec:
    """Commutative well: radius and exterior potential level (interior 0)."""

    radius: float
    v: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise DomainError(f"radius must be positive, got {self.radius}")
        if not (self.v >= 0.0 and math.isfinite(self.v)):
            raise DomainError(f"v must be >= 0, got {self.v}")


# the level count's grid of J_m runs to kR in steps of 3: 10^6 points at most
_COUNT_MAX_KR = 3e6


def _log_derivative_mismatch_grid(energies, spec: CommWellSpec, m, count: bool = False):
    """Cross-multiplied continuity condition; zeros are the bound levels.

    k J'_m(kR) K_m(kappa R) - kappa K'_m(kappa R) J_m(kR), pole-free in E,
    with C'_m = C_{m-1} - (m/x) C_m (K'_m = -K_{m-1} - (m/x) K_m).  Takes
    an array of energies or one energy, and one order m or an int array of
    per-lane orders; the scipy ufuncs broadcast them and return the same
    bits for an array as for scalars.  scipy's K underflows to 0 from
    kappa R ~ 697.9 on, which would make each such energy an exact zero;
    there both K columns are kve = e^{kappa R} K, which keeps the sign and
    the zeros.  At high m, K_m overflows to inf at small kappa R, which
    would make G inf - inf = NaN; where either K column is inf, both are
    divided by K_m > 0, giving (1, K_{m-1}/K_m) with the ratio from the
    stable upward recurrence, so G keeps its sign and zeros.  At high m,
    J_m(kR) and J_{m-1}(kR) both underflow to 0 at small kR, which would
    make G exactly 0 there too; such a kR lies far below J_m's first zero,
    where J_m, J'_m and K_m are positive and K'_m negative, so G is
    positive, and those lanes return the least positive float.

    With count (an array of energies), returns (values, level counts): the
    levels below each energy are the zeros of J_m in (0, kR), plus the bit
    [G J_m(kR) < 0] (a zero counting as positive).  The count is optional,
    as only the scan's coarse pass needs it (core._scan_sectors).
    """
    from scipy import special  # deferred: the noncommutative commands never load it

    r = spec.radius
    k = np.sqrt(2.0 * energies)
    kappa = np.sqrt(2.0 * (spec.v - energies))
    kr, kappar = k * r, kappa * r
    k_m, k_m1 = special.kv(m, kappar), special.kv(m - 1, kappar)
    low = (k_m == 0.0) | (k_m1 == 0.0)
    if low.any():
        k_m = np.where(low, special.kve(m, kappar), k_m)
        k_m1 = np.where(low, special.kve(m - 1, kappar), k_m1)
    high = np.isinf(k_m) | np.isinf(k_m1)
    if high.any():
        # r_nu = K_{nu-1}/K_nu from r_0 = K_1/K_0 by r_{nu+1} = 1/(r_nu + 2 nu/x), stable upward
        ratio = special.kve(1, kappar) / special.kve(0, kappar)
        for nu in range(int(np.max(m))):
            ratio = np.where(nu < m, 1.0 / (ratio + 2.0 * nu / kappar), ratio)
        k_m, k_m1 = np.where(high, 1.0, k_m), np.where(high, ratio, k_m1)
    j_m, j_m1 = special.jv(m, kr), special.jv(m - 1, kr)
    dj = j_m1 - (m / kr) * j_m
    dk = -k_m1 - (m / kappar) * k_m
    g = k * dj * k_m - kappa * dk * j_m
    under = (j_m == 0.0) & (j_m1 == 0.0)
    if under.any():
        g = np.where(under, math.ulp(0.0), g)
    if not count:
        return g
    # J_m > 0 on (0, max(m, 1)], and its zeros lie more than 3 apart, so on the grid max(m, 1) + 3i
    # each cell holds at most one: the zeros below kR are the sign changes on the grid up to kR's
    # cell, plus one where J_m(kR) differs in sign from J_m at that cell's start
    if not kr.max(initial=0.0) <= _COUNT_MAX_KR:
        raise DomainError(f"the commutative level count needs kR <= {_COUNT_MAX_KR:g}, got kR={kr.max()}")
    orders = np.broadcast_to(m, kr.shape)
    zeros = np.zeros(kr.shape, dtype=int)
    for n in np.unique(orders).tolist():
        lanes = orders == n
        x, lo = kr[lanes], max(n, 1.0)
        cell = np.floor((x - lo) / 3.0).astype(int)
        neg = special.jv(n, lo + 3.0 * np.arange(max(cell.max(initial=0), 0) + 1)) < 0.0
        changes = np.concatenate(([0], np.cumsum(neg[1:] != neg[:-1])))
        inside = cell >= 0
        at = np.maximum(cell, 0)
        zeros[lanes] = np.where(inside, changes[at] + (neg[at] != (j_m[lanes] < 0.0)), 0)
    return g, (zeros + ((g != 0.0) & ((g < 0.0) != (j_m < 0.0)))).tolist()


def _comm_sectors(spec: CommWellSpec, labels: list, grid_points: int, stacklevel: int = 2):
    """comm_bound_states(spec, m, grid_points) for each m of labels, in order.

    The spectrum depends on |m| only, so the one scan (core._sector_levels)
    runs each |m| once, and its levels are labelled for every m with that
    |m|.  stacklevel counts frames as warnings.warn does from the iterator's
    own frame.
    """
    return _sector_levels(
        lambda e, m, count=False: _log_derivative_mismatch_grid(e, spec, m, count), labels, abs, spec.v, grid_points,
        "commutative bound scan", stacklevel,
    )


def comm_bound_states(spec: CommWellSpec, m: int, grid_points: int = GRID_POINTS) -> list[BoundState]:
    """Bound levels in (0, V), labelled with the m passed; the spectrum depends on |m| only.

    The one counted scan of both solvers (core._sector_levels): the grid of
    grid_points energies defines the brackets, and the matching function is
    evaluated only in the grid cells where the level count
    (_log_derivative_mismatch_grid) puts a level.  A scan that finds another
    number of levels than the count, as when two levels share a grid cell,
    warns (RuntimeWarning) naming m and both numbers.
    """
    return next(_comm_sectors(spec, [_check_int(m, "m")], grid_points, stacklevel=3))


def _phase_fraction_grid(energies, spec: CommWellSpec, m: int):
    """(num, den) with tan(delta_m) = num / den, from log-derivative matching at r = R.

    num = k_in J'_m(k_in R) J_m(k_out R) - k_out J_m(k_in R) J'_m(k_out R), and
    den the same with Y_m at k_out R, with C'_m = C_{m-1} - (m/x) C_m.  Takes
    an array of energies above V or one energy, and makes one scipy call per
    Bessel column; the scipy ufuncs return the same bits for an array as for
    scalars, and numpy's sqrt, * and - round as Python's floats do.
    """
    from scipy import special

    r = spec.radius
    k_in = np.sqrt(2.0 * energies)
    k_out = np.sqrt(2.0 * (energies - spec.v))
    x_in, x_out = k_in * r, k_out * r
    # the smaller argument, as bessel_deriv checks it; it reaches 0 only by underflow
    if not np.all(x_out > 0.0):
        raise DomainError("derivative recurrence needs x > 0, got 0.0")
    ji, jo, yo = special.jv(m, x_in), special.jv(m, x_out), special.yv(m, x_out)
    jip = special.jv(m - 1, x_in) - (m / x_in) * ji
    jop = special.jv(m - 1, x_out) - (m / x_out) * jo
    yop = special.yv(m - 1, x_out) - (m / x_out) * yo
    return k_in * jip * jo - k_out * ji * jop, k_in * jip * yo - k_out * ji * yop


def comm_phase_shifts(energies, spec: CommWellSpec, m: int) -> list[PhaseShiftPoint]:
    """comm_phase_shift at each energy, from one _phase_fraction_grid call.

    Each energy is checked as comm_phase_shift checks it, in order, before
    any is solved.  tan(delta) and delta are formed point by point in math:
    tan = num/den, delta = atan2(num, den) folded into (-pi/2, pi/2].
    """
    label = _check_int(m, "m")
    energies = list(energies)
    for e in energies:
        _check_above_v(e, spec.v, "scattering")
    if not energies:
        return []
    num, den = _phase_fraction_grid(np.array(energies, dtype=float), spec, abs(label))
    out = []
    for e, n, d in zip(energies, num.tolist(), den.tolist()):
        if d == 0.0:
            tan_delta = math.copysign(math.inf, n) if n != 0.0 else 0.0
        else:
            tan_delta = n / d
        delta = math.atan2(n, d)
        if delta > math.pi / 2:
            delta -= math.pi
        elif delta <= -math.pi / 2:
            delta += math.pi
        out.append(PhaseShiftPoint(m=label, energy=e, tan_delta=tan_delta, delta=delta))
    return out


def comm_phase_shift(energy: float, spec: CommWellSpec, m: int) -> PhaseShiftPoint:
    """tan(delta_m) from log-derivative matching, labelled with the m passed; it depends on |m| only."""
    return comm_phase_shifts([energy], spec, m)[0]


def comm_cross_section(energy: float, spec: CommWellSpec, m_max: int) -> CrossSectionPoint:
    """sigma = (4/k) sum_m eps_m sin^2(delta_m), by the core's partial-wave sum and weights."""
    m_max, k = _check_cross_section_args(energy, spec.v, m_max)

    def waves(m):
        delta = comm_phase_shift(energy, spec, m).delta
        s = math.sin(delta)
        return delta, s * s

    sigma, table = partial_wave_sum(waves, energy, k, spec.radius, m_max)
    return CrossSectionPoint(energy=energy, k=k, sigma_total=sigma, contributions=tuple((m, t) for m, _, _, t in table))
