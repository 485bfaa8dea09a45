"""Matching conditions, bound states, scattering and wavefunctions of the well.

The well of radius R = sqrt(theta (2N+1)) is the projector onto the lowest
N+1 oscillator states; the interior potential is 0, the exterior V.  A
partial wave of angular momentum m is represented by the matrix elements
element(n) = <n|psi_m|n+m>, which combine a Laguerre branch (regular, the
J_m analog) and a branch built from U (irregular, the Y_m or K_m analog):

    w > 0:  element(n) = A sqrt(n!/(n+m)!) w^{m/2} L^m_n(w)
                       - (B/pi) sqrt(n!(n+m)!) e^w w^{-m/2} Re[U(n+1,1-m,-w)]
    w < 0:  element(n) = c1 sqrt(m!n!/(n+m)!) L^m_n(w)
                       + c2 sqrt(n!(n+m)!/m!) U(n+1,1-m,-w)

with w = theta*(E - V_region).  Interior and exterior solutions are joined
not by value/derivative continuity but by equality of the matrix elements
at the two boundary rows n = N and n = N+1.  Everything downstream (bound
state energies, phase shifts tan(delta) = -B/A, cross sections) follows
from those two conditions.

Negative m reduces structurally to a shifted positive-order problem
(element(n, -k) maps to element(n-k, +k)), which is where the |m| <= N
cutoff comes from.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, NCWellError, SingularSystemError
from .logscale import LogScaled, ONE, ZERO, log_add, log_to_float, ls_exp
from .specfun import (  # noqa: F401  (_reu_direct, _u_ratio_1m: bench/tracing.py hooks them here)
    CheckResult,
    OrderIndex,
    _check_int,
    _lag_reu_pairs_grid,
    _laguerre_sweep,
    _laguerre_sweep_grid,
    _lane_rows,
    _lower_order,
    _lowering_log,
    _sweep_pair,
    _ZERO_PAIR,
    _oracle_suites,
    _reu_direct,
    _reu_rows,
    _u_ratio_1m,
    _u_ratio_1m_grid,
    kummer_u,
    laguerre,
)

INTERIOR = "interior"
EXTERIOR = "exterior"

# scattering sums: relative tail size at which the partial-wave sum stops
TAIL_REL = 1e-6
HARD_M_CAP = 1024

# bound-state search defaults; the edge offset and the root tolerance are fractions of V
GRID_POINTS = 2000
EDGE_FRACTION = 1e-9
ROOT_FRACTION = 5e-13
# Brent's relative root tolerance: 4 eps, the smallest that scipy's brentq
# accepts, kept so that every root keeps the bits it had under brentq; a
# Python float, so that no numpy scalar enters Brent's steps
BRENT_RTOL = 4.0 * math.ulp(1.0)
# Brent's method raises ConvergenceError after this many steps (brentq's default)
BRENT_MAX_ITER = 100


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellSpec:
    """Geometry and potential of the well: x-y commutator theta, boundary
    Fock index cap_n, exterior potential level v (interior fixed at 0)."""

    theta: float
    cap_n: int
    v: float

    def __post_init__(self):
        # cap_n first: from_radius turns a negative cap_n into a negative theta
        object.__setattr__(self, "cap_n", _check_int(self.cap_n, "cap_n"))
        if self.cap_n < 0:
            raise DomainError(f"cap_n must be >= 0, got {self.cap_n}")
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise DomainError(f"theta must be positive and finite, got {self.theta}")
        if not (self.v >= 0.0 and math.isfinite(self.v)):
            raise DomainError(f"v must be >= 0 and finite, got {self.v}")

    @property
    def radius_sq(self) -> float:
        return self.theta * (2 * self.cap_n + 1)

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_sq)

    @classmethod
    def from_radius(cls, radius_sq: float, cap_n: int, v: float) -> "WellSpec":
        """Construct from the squared radius; theta = R^2 / (2N+1)."""
        cap_n = _check_int(cap_n, "cap_n")
        if not (radius_sq > 0.0 and math.isfinite(radius_sq)):
            raise DomainError(f"radius_sq must be positive and finite, got {radius_sq}")
        return cls(radius_sq / (2 * cap_n + 1), cap_n, v)

    @classmethod
    def from_theta_radius(cls, theta: float, radius_sq: float, v: float) -> "WellSpec":
        """Construct from (theta, R^2); N = (R^2/theta - 1)/2 must be integral."""
        if not (theta > 0.0 and radius_sq > 0.0 and math.isfinite(radius_sq)):
            raise DomainError("theta and radius_sq must be positive, radius_sq finite")
        n_real = (radius_sq / theta - 1.0) / 2.0
        if not math.isfinite(n_real):
            raise DomainError(f"R^2/theta overflows at theta = {theta}, R^2 = {radius_sq}")
        n_int = round(n_real)
        if n_int < 0 or abs(n_real - n_int) > 1e-9 * max(1.0, abs(n_real)):
            raise DomainError(
                f"R^2/theta = {radius_sq / theta} is not 2N+1 for integer N >= 0: "
                "the well radius is quantized"
            )
        return cls(theta, n_int, v)


@dataclass(frozen=True)
class RegionSolution:
    """Coefficients of one region's radial solution.

    coeff_a multiplies the regular branch (J_m / Laguerre), coeff_b the
    irregular one (Y_m / Re-U branch, or the decaying U branch when w < 0).
    """

    region: str
    w: float
    coeff_a: LogScaled
    coeff_b: LogScaled


@dataclass(frozen=True)
class BoundState:
    m: int
    energy: float
    residual: float
    level: int


@dataclass(frozen=True)
class PhaseShiftPoint:
    m: int
    energy: float
    tan_delta: float
    delta: float
    delta_unwrapped: float | None = None
    # the larger relative residual of the two matching rows (None from the commutative oracle)
    residual: float | None = None


@dataclass(frozen=True)
class CrossSectionPoint:
    energy: float
    k: float
    sigma_total: float
    contributions: tuple = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Fock-side basis elements
# ---------------------------------------------------------------------------

def _reu_pair(m: int, w: float, n: int):
    """(ReU at rows n and n+1) sharing one recurrence pass, as (sign, log magnitude) pairs."""
    return tuple(_reu_rows(m, w, n, 2))


def _laguerre_pair(m: int, w: float, n: int):
    """(L^m_n(w), L^m_{n+1}(w)) for m >= 0 from one forward sweep, as (sign, log magnitude) pairs."""
    res = _laguerre_sweep(m, w, {n, n + 1})
    return _sweep_pair(*res[n]), _sweep_pair(*res[n + 1])


_LOG_PI = math.log(math.pi)


def _row_consts(m: int, n: int):
    """Lane constants (jc, yc) of the basis rows of order m at rows n, n+1.

    They are the lgamma halves of the row prefactors: at row j = n + i,
    jc[i] = (lgamma(j+1) - lgamma(j+m+1))/2 and yc[i] = (lgamma(j+1) + lgamma(j+m+1))/2.
    """
    g = [(math.lgamma(j + 1.0), math.lgamma(j + m + 1.0)) for j in (n, n + 1)]
    return [0.5 * (a - b) for a, b in g], [0.5 * (a + b) for a, b in g]


def _jy_basis_rows(m: int, w: float, lag, reu, consts):
    """Regular/irregular basis columns (J rows, Y rows) at rows n and n+1 for w > 0, m >= 0.

    lag and reu are the rows n, n+1 of L^m(w) and of Re[U(.+1,1-m,-w)],
    and consts = _row_consts(m, n).  Row value of the
    element is coeff_a * J_row + coeff_b * Y_row with
    J_row = sqrt(n!/(n+m)!) w^{m/2} L^m_n(w) and
    Y_row = -(1/pi) sqrt(n!(n+m)!) e^w w^{-m/2} Re[U(n+1,1-m,-w)].
    Rows, given and returned, are (sign, log magnitude) pairs, (0, 0.0)
    for a zero row.
    """
    return _j_rows(m, w, lag, consts[0]), _y_rows(m, w, reu, consts[1])


def _j_rows(m: int, w: float, lag, jc):
    """The J rows of _jy_basis_rows from (L^m_n(w), L^m_{n+1}(w)), with jc from _row_consts."""
    half = 0.5 * m * math.log(w)
    return [(s, l + (c + half)) if s else _ZERO_PAIR for (s, l), c in zip(lag, jc)]


def _y_rows(m: int, w: float, reu, yc):
    """The Y rows of _jy_basis_rows from Re U(j+1, 1-m, -w) at rows j = n, n+1, with yc from _row_consts."""
    half = 0.5 * m * math.log(w)
    return [(-s, l + (c + w - half) - _LOG_PI) if s else _ZERO_PAIR for (s, l), c in zip(reu, yc)]


def _bound_prefactors(n: int, m: int) -> tuple[LogScaled, LogScaled]:
    """The bound branch's row-n prefactors sqrt(m! n!/(n+m)!) (Laguerre) and sqrt(n! (n+m)!/m!) (U), m >= 0."""
    return (
        ls_exp(0.5 * (math.lgamma(m + 1.0) + math.lgamma(n + 1.0) - math.lgamma(n + m + 1.0))),
        ls_exp(0.5 * (math.lgamma(n + 1.0) + math.lgamma(n + m + 1.0) - math.lgamma(m + 1.0))),
    )


def fock_element(n: int, m: int, sol: RegionSolution) -> LogScaled:
    """Matrix element <n|psi_m|n+m> of the region solution.

    For w < 0 (bound exterior) the coefficients are the (c1, c2) pair of
    the Laguerre/U basis; negative m reduces to the shifted positive-order
    element, with a (-1)^|m| parity factor in the oscillatory case.
    """
    idx = OrderIndex(n, m)
    n, m = idx.n, idx.m
    if m < 0:
        k = -m
        shifted = fock_element(n - k, k, sol)
        return -shifted if (sol.w > 0 and k % 2 == 1) else shifted
    w = sol.w
    a, b = sol.coeff_a, sol.coeff_b
    if w == 0.0:
        if not b.is_zero():
            raise DomainError("irregular branch is undefined at w = 0")
        return a if m == 0 else ZERO
    if w > 0.0:
        # a zero coefficient's column is not built: a regular solution runs no Re U
        jc, yc = _row_consts(m, n)
        value = ZERO if a.is_zero() else a * LogScaled.from_log(*_j_rows(m, w, _laguerre_pair(m, w, n), jc)[0])
        if b.is_zero():
            return value
        return value + b * LogScaled.from_log(*_y_rows(m, w, _reu_pair(m, w, n), yc)[0])
    # bound branch: w < 0, x = -w > 0
    x = -w
    lag = laguerre(n, m, w)
    u = kummer_u(n + 1, 1 - m, x)
    pref_l, pref_u = _bound_prefactors(n, m)
    return a * lag * pref_l + b * u * pref_u


def _check_bound_energy(energy: float, spec: WellSpec) -> None:
    if not (0.0 < energy < spec.v):
        raise DomainError(
            f"bound-state energy must lie strictly inside (0, V), got E={energy}, V={spec.v}"
        )


def _check_negative_cutoff(m: int, spec: WellSpec) -> None:
    if m < 0 and -m > spec.cap_n:
        raise DomainError(
            f"negative angular momentum is cut off at |m| <= N: got m={m}, N={spec.cap_n}"
        )


def _check_above_v(energy: float, v: float, what: str) -> None:
    """what (scattering or a cross section) needs a finite energy above V = v."""
    if not (energy > v):
        raise DomainError(f"{what} needs E > V, got E={energy}, V={v}")
    if not math.isfinite(energy):
        raise DomainError(f"{what} needs a finite energy, got E={energy}")


def _check_cross_section_args(energy: float, v: float, m_max) -> tuple[int, float]:
    """(m_max as an int, k = sqrt(2 (E - V))); m_max must be positive, and the energy finite and above V."""
    m_max = _check_int(m_max, "m_max")
    if m_max < 1:
        raise DomainError(f"m_max must be a positive integer, got {m_max}")
    _check_above_v(energy, v, "cross section")
    return m_max, math.sqrt(2.0 * (energy - v))


def _check_bound_x(x: float, energy: float, spec: WellSpec) -> None:
    """The bound scan's U argument x = theta (V - E) must not underflow to 0, as it can at a subnormal theta."""
    if x == 0.0:
        raise DomainError(f"x = theta (V - E) underflows to 0 at theta={spec.theta}, V={spec.v}, E={energy}")


def _sector(m, spec: WellSpec):
    """(order, row): sector m matches at rows row, row + 1 of order |m|; negative m sits -m rows lower.

    m is an int, or an int array mapped lane by lane to two int arrays.
    """
    order = abs(m)
    return order, spec.cap_n - (order - m) // 2


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

def _bound_residual(spec: WellSpec, m, energies, w, mant_n, scale_n, mant_n1, scale_n1, ratio) -> list[float]:
    """G(E) at each lane from its factors, as LogScaled would combine them but on plain floats.

    Lane i has energy energies[i], w[i] = theta E and sector m (an int), or
    m[i] (a list of ints, one per lane); (mant_n[i], scale_n[i])
    and (mant_n1[i], scale_n1[i]) are the sweep rows of L^|m| at rows N-k
    and N+1-k (k = max(-m, 0)), lowered to order m here by
    (-w)^k (n-k)!/n!; ratio[i] is U(N+2-k,1-|m|,x)/U(N+1-k,1-|m|,x).  With
    t1 = L^m_{N+1} and t2 = (N+m+1) ratio L^m_N, G = (t1 - t2) / max(|t1|, |t2|),
    0.0 when both vanish.  Values are (sign, log magnitude) pairs, and every
    step calls math in LogScaled's order (logscale.log_add, log_to_float), so
    G has the bits of the LogScaled combination.  The lowering constants
    log((n-k)!/n!) are sector constants, taken as -log of the exact integer
    n!/(n-k)! (specfun._lowering_log), and each row is lowered by
    specfun._lower_order.  A non-finite (N+m+1) ratio raises
    ConvergenceError naming E, m and N.
    """
    n = spec.cap_n
    ms = [m] * len(energies) if isinstance(m, int) else m
    # per sector: k, N + m + 1 and the lowering constants of rows N and N + 1
    consts = {}
    for mi in set(ms):
        k = max(-mi, 0)
        consts[mi] = k, n + mi + 1, _lowering_log(n, k), _lowering_log(n + 1, k)
    out = []
    for e, mi, wi, m0, s0, m1, s1, r in zip(energies, ms, w, mant_n, scale_n, mant_n1, scale_n1, ratio):
        k, c, lg_n, lg_n1 = consts[mi]
        f = c * r
        if not math.isfinite(f):
            raise ConvergenceError(f"U ratio (N+m+1) U(N+2)/U(N+1) = {f} is not finite at E={e}, m={mi}, N={n}")
        s_n, l_n = _sweep_pair(m0, s0)
        s_n1, l_n1 = _sweep_pair(m1, s1)
        if k:
            s_n, l_n = _lower_order((s_n, l_n), lg_n, k, wi)
            s_n1, l_n1 = _lower_order((s_n1, l_n1), lg_n1, k, wi)
        # t1 = (s_n1, l_n1); t2 = L^m_N * f
        s2, l2 = (s_n * (1 if f > 0 else -1), l_n + math.log(abs(f))) if s_n and f != 0.0 else (0, 0.0)
        if not (s_n1 or s2):
            out.append(0.0)
            continue
        scale = l2 if s2 and (not s_n1 or l2 > l_n1) else l_n1
        sd, ld = log_add(s_n1, l_n1, -s2, l2)
        out.append(log_to_float(sd, ld - scale))
    return out


def matching_residual_bound(energy: float, spec: WellSpec, m: int) -> float:
    """Normalized bound-state matching function G(E); zeros are bound levels.

    G = L^m_{N+1}(theta E) U(N+1,1-m,x) - (N+m+1) L^m_N(theta E) U(N+2,1-m,x)
    with x = theta (V - E), rescaled sign-preservingly by the larger term's
    magnitude so the return value lies in [-2, 2].  It is one lane of the
    scan's lane residual, _matching_residual_grid.
    """
    m = _check_int(m, "m")
    _check_bound_energy(energy, spec)
    _check_negative_cutoff(m, spec)
    return _matching_residual_grid(np.array([energy], dtype=float), spec, m)[0]


def _matching_residual_grid(energies: np.ndarray, spec: WellSpec, m, count: bool = False):
    """G at every energy, lane i in sector m (an int) or m[i] (an int array), each lane bit for bit a lane alone.

    The Laguerre sweep and the U-ratio quadrature run on numpy lanes, one
    per energy, on one order when the lanes share a sector and an order per
    lane otherwise; _bound_residual combines them lane by lane.

    With count, returns (G list, level count list): the levels of sector m
    below each energy E, the negative pivots of H - E for the Fock-basis
    Hamiltonian H of the sector (tridiagonal, Sylvester's law of inertia).
    Its leading minors are n! L^{|m|}_n(theta E) times positive factors, with
    the well's step at row N - k for m = -k (element(n, -k) is element(n-k,
    +k)), so the count is the sign changes of L^{|m|}_n over n = 0..N-k, plus
    the last pivot's bit [G' L^{|m|}_{N-k} < 0], where G' = (-1)^k G is G of
    that +k problem; the exterior block alone is positive definite below V.
    The count is optional, as only the scan's coarse pass needs it
    (_scan_sectors).
    """
    w = spec.theta * energies
    x = spec.theta * (spec.v - energies)
    low = int(x.argmin())
    _check_bound_x(float(x[low]), float(energies[low]), spec)
    order, row = _sector(m, spec)
    odd = (m < 0) & (m % 2 == 1)
    if isinstance(m, np.ndarray):
        swept = _laguerre_sweep_grid(order, w, set(row.tolist()) | set((row + 1).tolist()), count)
        rows = [_lane_rows(swept, row), _lane_rows(swept, row + 1)]
        m = m.tolist()
    else:
        swept = _laguerre_sweep_grid(order, w, (row, row + 1), count)
        rows = [swept[row], swept[row + 1]]
    ratio = _u_ratio_1m_grid(row + 1, order, x)
    g = _bound_residual(spec, m, *(a.tolist() for a in (energies, w, *rows[0][:2], *rows[1][:2], ratio)))
    if not count:
        return g
    mant, changes = rows[0][0], rows[0][2]
    gv = np.array(g)
    return g, (changes + ((gv != 0.0) & (((gv < 0.0) != odd) != (mant < 0.0)))).tolist()


def _brent(a: float, b: float, ga: float, gb: float, xtol: float, rtol: float):
    """Brent's method on [a, b] as a stepper, given ga = g(a) and gb = g(b).

    A generator: it yields each point where it needs g and is sent g there,
    and it returns (root, g(root)).  ga and gb must be nonzero and of
    opposite signs.  A step-for-step transcription of scipy's brentq.c, so
    the root and the points it yields are bit for bit brentq's; every point
    lies strictly inside the bracket.  The root is within xtol + rtol |root|
    of a sign change.  A NaN value of g, or no convergence within
    BRENT_MAX_ITER steps, raises ConvergenceError.
    """

    def checked(e, ge):
        if math.isnan(ge):
            raise ConvergenceError(f"matching residual is NaN at E={e} (bracket [{a}, {b}])")
        return ge

    xpre, xcur = a, b
    fpre, fcur = checked(a, ga), checked(b, gb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan  # C's inf or nan, which fails the step test and bisects
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, (yield xcur))
    raise ConvergenceError(f"Brent's method did not converge within {BRENT_MAX_ITER} steps on the bracket [{a}, {b}]")


def _lane_values(g, energies: list, sectors: list, count: bool = False) -> list:
    """g at each (energy, sector) lane as floats, in one lane pass on one sector (an int) or an int array.

    With count, g(energies, s, True) returns (values, level counts), and
    each lane gives a (value, count) pair.  When the pass raises a package
    error, each lane is rerun alone, and a lane that raises one gives it in
    place of its value; lanes equal their one-lane calls bit for bit, so the
    rerun changes no value.
    """

    def run(es, key):
        if count:
            values, counts = g(es, key, True)
            return list(zip(np.asarray(values, dtype=float).tolist(), counts))
        return np.asarray(g(es, key), dtype=float).tolist()

    key = sectors[0] if len(set(sectors)) == 1 else np.array(sectors)
    try:
        return run(np.array(energies), key)
    except NCWellError:
        out = []
        for e, s in zip(energies, sectors):
            try:
                out.append(run(np.array([e]), s)[0])
            except NCWellError as exc:
                out.append(exc)
        return out


def _grid_values(g, sectors: list, grid: np.ndarray) -> list:
    """Per sector, g on the whole grid as an array (or the error of one whole-grid call), and (count(lo), count(hi)).

    Two lane passes (_lane_values) cover all the sectors.  The coarse pass
    takes g and the level count at every s-th grid point and the last, with
    s = floor(sqrt(size / 4)).  The fine pass takes g at the other points of
    each coarse cell whose ends differ in count or in the sign of g, or hold
    a zero of g.  The level count is exact, so a cell whose ends agree holds
    no level and g keeps its sign there; its points take the value at its
    left end, and every sign change, bracket and bracket value of the full
    grid is kept.  A sector with a failing lane, or a coarse value that is
    not finite, is evaluated in one call on its whole grid, whose error
    lane-by-lane reruns could not give without every point: in it, x
    underflow at the top of the grid outranks the first failing quadrature
    lane, which outranks the first failing series lane.
    """
    size = grid.size
    coarse = np.unique(np.append(np.arange(0, size, max(1, math.isqrt(size // 4))), size - 1))
    energies = grid[coarse].tolist()
    lanes = _lane_values(g, energies * len(sectors), [s for s in sectors for _ in energies], count=True)
    # per sector: its grid values and count, or None to fall back; the grid indices of its fine pass
    out, fine = [], []
    for j in range(len(sectors)):
        pairs = lanes[j * len(energies):(j + 1) * len(energies)]
        if any(isinstance(p, Exception) or not math.isfinite(p[0]) for p in pairs):
            out.append(None)
            fine.append([])
            continue
        values, counts = (np.array(c) for c in zip(*pairs))
        neg = values < 0.0
        cells = (counts[:-1] != counts[1:]) | (neg[:-1] != neg[1:]) | (values[:-1] == 0.0) | (values[1:] == 0.0)
        out.append((np.append(np.repeat(values[:-1], np.diff(coarse)), values[-1]), (int(counts[0]), int(counts[-1]))))
        fine.append([i for a, b in zip(coarse[:-1][cells].tolist(), coarse[1:][cells].tolist()) for i in range(a + 1, b)])
    es = grid.tolist()
    lanes = [(es[i], s) for s, idx in zip(sectors, fine) for i in idx]
    got = iter(_lane_values(g, *zip(*lanes)) if lanes else ())
    for j, idx in enumerate(fine):
        values = [next(got) for _ in idx]
        if out[j] is not None and not any(isinstance(v, Exception) for v in values):
            out[j][0][idx] = values
            continue
        try:
            values, counts = g(grid, sectors[j], True)
            out[j] = np.asarray(values, dtype=float), (counts[0], counts[-1])
        except NCWellError as exc:
            out[j] = exc, None
    return out


def _scan_sectors(g, sectors: list, v: float, grid_points: int):
    """The roots of g(., s) in (0, V) for each sector s, as (root, |g(root)|) pairs in increasing order.

    g(energies, s) evaluates lane i at energies[i] in sector s, or in
    sector s[i] when s is an int array, and must equal g at each lane alone;
    g(energies, s, True) also returns the number of roots below each energy.
    Only the coarse pass of _grid_values asks for that count: the fine pass
    and the rounds need none, and counting there too made a bound-spectrum
    pass 1.3x slower.  The uniform grid of grid_points energies stays
    EDGE_FRACTION V clear of both ends.  Each sign change between
    neighbouring grid values starts a _brent stepper, refined to within
    ROOT_FRACTION V + BRENT_RTOL |root|, and a grid value that is exactly 0
    is itself a root.  Then every round sends the pending points of all live
    steppers through one call (_lane_values), so g is called only strictly
    inside the brackets.  Returns, per sector, its roots or the error a loop
    over the sectors, refining one bracket after another, would raise there:
    that of its grid, else of its first failing bracket; and per sector
    the level counts (count(lo), count(hi)) at the grid's ends, (0, 0) when
    the grid is empty (hi <= lo).  Both counts are 0 as E -> 0+, so
    count(hi) levels lie below hi, count(lo) of them below the grid.
    """
    grid_points = _check_int(grid_points, "grid_points")
    if grid_points < 2:
        raise DomainError("grid_points must be >= 2")
    found = [[] for _ in sectors]
    lo, hi = EDGE_FRACTION * v, v - EDGE_FRACTION * v
    if hi <= lo:
        return found, [(0, 0)] * len(sectors)
    tol = ROOT_FRACTION * v
    step = (hi - lo) / (grid_points - 1)
    grid = lo + np.arange(grid_points) * step
    es = grid.tolist()
    live = []  # [sector index, slot in its roots, stepper, pending point]
    scanned = _grid_values(g, sectors, grid)
    for j, (vals, _) in enumerate(scanned):
        if isinstance(vals, Exception):  # raised when the sector is reached
            found[j] = vals
            continue
        zero, neg = vals == 0.0, vals < 0.0
        hits = np.flatnonzero(zero[:-1] | ((neg[:-1] != neg[1:]) & ~zero[1:]))
        gs = vals.tolist()
        for i in hits.tolist():
            if gs[i] != 0.0:  # a bracket, whose slot its stepper fills
                live.append([j, len(found[j]), _brent(es[i], es[i + 1], gs[i], gs[i + 1], tol, BRENT_RTOL), None])
            found[j].append((es[i], 0.0))

    def advance(lane, value) -> bool:
        # send the lane's stepper its value (None starts it); whether it asks for another point
        j, slot, stepper = lane[:3]
        if isinstance(value, Exception):
            found[j][slot] = value
            return False
        try:
            lane[3] = stepper.send(value)
            return True
        except StopIteration as stop:
            root, g_root = stop.value
            found[j][slot] = (root, abs(g_root))
        except ConvergenceError as exc:
            found[j][slot] = exc
        return False

    live = [lane for lane in live if advance(lane, None)]
    while live:
        values = _lane_values(g, [lane[3] for lane in live], [sectors[lane[0]] for lane in live])
        live = [lane for lane, value in zip(live, values) if advance(lane, value)]
    # a sector's first failing bracket is the one a loop over the brackets meets first
    found = [f if isinstance(f, Exception) else next((r for r in f if isinstance(r, Exception)), f) for f in found]
    return found, [c for _, c in scanned]


def _sector_levels(g, labels: list, key, v: float, grid_points: int, scan: str, stacklevel: int):
    """The BoundStates of each label of labels, in order, from one _scan_sectors call.

    The scan runs g on the distinct sectors key(label), in first-seen
    order, and an empty labels list scans nothing.  For each label in turn
    the iterator raises its sector's error, else warns (RuntimeWarning, in
    the name of scan) when the roots found are not the level count below
    the grid's last point, naming the levels below its first point if there
    are any, and yields the roots as BoundStates labelled with it, so
    errors and warnings come in the order of a loop over the labels.  stacklevel counts frames
    as warnings.warn does from the iterator's own frame.
    """
    sectors = list(dict.fromkeys(map(key, labels)))
    if sectors:
        scanned = dict(zip(sectors, zip(*_scan_sectors(g, sectors, v, grid_points))))
    for label in labels:
        found, counts = scanned[key(label)]
        if isinstance(found, Exception):
            raise found
        below, count = counts
        if len(found) != count:
            why = [f"{below} lie below the grid's first point E = {EDGE_FRACTION * v:g}"] if below else []
            if len(found) != count - below:
                why.append(f"levels that share a cell of the {grid_points}-point grid are missed")
            warnings.warn(
                f"{scan} found {len(found)} levels for m = {label}, expected {count}; " + ", and ".join(why),
                RuntimeWarning,
                stacklevel=stacklevel,
            )
        yield [BoundState(m=label, energy=e, residual=r, level=i) for i, (e, r) in enumerate(found)]


def _bound_sectors(spec: WellSpec, ms: list, grid_points: int, stacklevel: int = 2):
    """find_bound_states(spec, m, grid_points) for each m of ms, in order, from one scan.

    The scan (_sector_levels) covers the sectors up to the first one cut
    off (m < -N), where a loop over find_bound_states stops by raising that
    m's DomainError.  stacklevel counts frames as warnings.warn does from
    the iterator's own frame.
    """
    scanned = list(itertools.takewhile(lambda m: m >= -spec.cap_n, ms))
    yield from _sector_levels(
        lambda e, s, count=False: _matching_residual_grid(e, spec, s, count), scanned, int, spec.v, grid_points,
        f"noncommutative bound scan at N = {spec.cap_n}", stacklevel + 1,
    )
    if len(scanned) < len(ms):
        _check_negative_cutoff(ms[len(scanned)], spec)


def find_bound_states(spec: WellSpec, m: int, grid_points: int = GRID_POINTS) -> list[BoundState]:
    """The bound levels of sector m in (0, V), from sign changes of the matching function on a grid.

    One counted scan (_scan_sectors): the grid of grid_points energies
    defines the brackets, each refined by Brent's method, and the matching
    function is evaluated only in the grid cells where the level count
    (_matching_residual_grid) puts a level.  A scan that finds another
    number of levels than the count, as when two levels share a grid cell,
    warns (RuntimeWarning) naming m, N and both numbers.
    """
    return next(_bound_sectors(spec, [_check_int(m, "m")], grid_points, stacklevel=3))


def bound_solutions(energy: float, spec: WellSpec, m: int):
    """Interior and exterior solutions of a bound level, normalized to c1 = 1.

    The exterior carries the branch weights (c1, c2) directly (the w < 0
    evaluation maps them to I/K position amplitudes itself); the interior is
    oscillatory, so its c1 is converted to the position-space J amplitude
    A = sqrt(m!) w^{-m/2} c1 here.  Supports m >= 0.
    """
    m = _check_int(m, "m")
    if m < 0:
        raise DomainError(f"bound solutions support m >= 0, got m={m}")
    _check_bound_energy(energy, spec)
    w_in = spec.theta * energy
    w_out = spec.theta * (energy - spec.v)
    n_cap = spec.cap_n
    lag = laguerre(n_cap, m, w_in)
    u = kummer_u(n_cap + 1, 1 - m, -w_out)
    pref_l, pref_u = _bound_prefactors(n_cap, m)
    c2 = (lag * pref_l) / (u * pref_u)
    a_pos = ls_exp(0.5 * math.lgamma(m + 1.0) - 0.5 * m * math.log(w_in))
    interior = RegionSolution(INTERIOR, w_in, a_pos, ZERO)
    exterior = RegionSolution(EXTERIOR, w_out, ZERO, c2)
    return interior, exterior


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def _check_scattering(energy: float, spec: WellSpec, m) -> int:
    """m as an int; scattering needs a finite E > V and |m| <= N for negative m."""
    m = _check_int(m, "m")
    _check_above_v(energy, spec.v, "scattering")
    _check_negative_cutoff(m, spec)
    return m


def _solve_matching(jin, jout, yout, energy: float, m: int):
    """(interior amplitude, exterior B, row residuals) from the interior J and the exterior J, Y columns.

    The columns are _jy_basis_rows's (sign, log magnitude) rows, and the
    amplitudes come back as such pairs.  Every step calls math in
    LogScaled's order, so the result has the bits of the LogScaled solve.  The residual
    of a row is relative to its largest term (0.0 when every term vanishes).
    Raises SingularSystemError when the 2x2 system is degenerate or a row
    residual exceeds 1e-10.
    """
    # column scales: the larger log magnitude of each basis column
    c1, c2, c3 = (
        max(l if s else -math.inf for s, l in col) for col in (jin, yout, jout)
    )
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise SingularSystemError("a basis column vanished identically at both rows")
    if not math.isfinite(c3):
        c3 = 0.0

    def fl(v, shift):
        return 0.0 if v[0] == 0 else v[0] * math.exp(v[1] - shift)

    a11, a21 = fl(jin[0], c1), fl(jin[1], c1)
    a12, a22 = -fl(yout[0], c2), -fl(yout[1], c2)
    b1, b2 = fl(jout[0], c3), fl(jout[1], c3)
    det = a11 * a22 - a12 * a21
    if det == 0.0 or abs(det) < 1e-280:
        raise SingularSystemError(
            f"matching rows are degenerate at E={energy}, m={m}"
        )
    x1 = (b1 * a22 - a12 * b2) / det
    x2 = (a11 * b2 - b1 * a21) / det
    # one refinement step in compensated arithmetic
    r1 = math.fsum((b1, -a11 * x1, -a12 * x2))
    r2 = math.fsum((b2, -a21 * x1, -a22 * x2))
    x1 += (r1 * a22 - a12 * r2) / det
    x2 += (a11 * r2 - r1 * a21) / det
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise SingularSystemError(f"matching solve overflowed at E={energy}, m={m}")

    sa, la = (1 if x1 > 0 else -1, math.log(abs(x1)) + (c3 - c1)) if x1 != 0.0 else _ZERO_PAIR
    sb, lb = (1 if x2 > 0 else -1, math.log(abs(x2)) + (c3 - c2)) if x2 != 0.0 else _ZERO_PAIR

    # residual of both rows, relative to the largest contributing term:
    # a_in J_in - B Y_out - J_out
    residuals = []
    for (sj, lj), (sy, ly), (so, lo) in zip(jin, yout, jout):
        terms = (
            (sa * sj, la + lj) if sa and sj else _ZERO_PAIR,
            (-sb * sy, lb + ly) if sb and sy else _ZERO_PAIR,
            (-so, lo),
        )
        resid = log_add(*log_add(*terms[0], *terms[1]), *terms[2])
        # the first largest |term|, as max() over LogScaled picks it
        scale = None
        for st, lt in terms:
            if st and (scale is None or lt > scale):
                scale = lt
        rel = 0.0 if scale is None else log_to_float(abs(resid[0]), resid[1] - scale)
        if rel > 1e-10:
            raise SingularSystemError(
                f"matching residual {rel:.2e} exceeds 1e-10 at E={energy}, m={m}"
            )
        residuals.append(rel)
    return (sa, la), (sb, lb), residuals


def scattering_coeffs(energy: float, spec: WellSpec, m: int):
    """Interior and exterior coefficients of the scattering solution.

    Interior coeff_b is pinned to 0 (regularity), exterior coeff_a to 1;
    the two matching rows n = N, N+1 give a 2x2 system for the interior
    amplitude and the exterior irregular coefficient B, with
    tan(delta_m) = -B.
    """
    m = _check_scattering(energy, spec, m)
    a_in, b_out, _ = next(_scattering_lanes(spec, [energy], [m]))
    interior = RegionSolution(INTERIOR, spec.theta * energy, LogScaled.from_log(*a_in), ZERO)
    exterior = RegionSolution(EXTERIOR, spec.theta * (energy - spec.v), ONE, LogScaled.from_log(*b_out))
    return interior, exterior


def matching_relative_residuals(energy: float, spec: WellSpec, m: int):
    """Relative residuals of the two matching rows for the solved coefficients."""
    m = _check_scattering(energy, spec, m)
    return next(_scattering_lanes(spec, [energy], [m]))[2]


def _phase_point(energy: float, m: int, b_out, residual: float | None = None) -> PhaseShiftPoint:
    """tan(delta) = -B/A with the exterior A pinned to 1; b_out is B as a (sign, log magnitude) pair."""
    tan_delta = -log_to_float(*b_out)
    delta = math.atan(tan_delta) if math.isfinite(tan_delta) else math.pi / 2
    return PhaseShiftPoint(m=m, energy=energy, tan_delta=tan_delta, delta=delta, residual=residual)


def phase_shift(energy: float, spec: WellSpec, m: int) -> PhaseShiftPoint:
    """Phase shift of partial wave m at E > V: tan(delta) = -B/A, with the larger row residual."""
    m = _check_scattering(energy, spec, m)
    _, b_out, residuals = next(_scattering_lanes(spec, [energy], [m]))
    return _phase_point(energy, m, b_out, max(residuals))


def _scattering_lanes(spec: WellSpec, energies, sectors):
    """_solve_matching's (interior amplitude, exterior B, row residuals) of each lane, in order.

    Lane i is (energies[i], sectors[i]), and each lane has passed
    _check_scattering.  One specfun._lag_reu_pairs_grid call gives every
    lane its Laguerre rows at the interior and exterior w and its Re U rows
    at the exterior w (sector -k is a lane of order k at row N - k).  The
    order is an int when the lanes share one sector, as the lane pass runs
    faster on one order than on an order per lane.  The returned iterator
    runs a lane's basis rows and 2x2 solve when it reaches the lane, and
    raises there the lane's ConvergenceError or DomainError or the solve's
    SingularSystemError, so errors come in the order of a point-by-point
    loop.  This is the one scattering solve: a single point
    (scattering_coeffs, phase_shift) is a block of one lane.
    """
    orders, rows = zip(*(_sector(s, spec) for s in sectors))
    order, row = (orders[0], rows[0]) if len(set(sectors)) == 1 else (np.array(orders), np.array(rows))
    e = np.array(energies, dtype=float)
    w_in, w_out = spec.theta * e, spec.theta * (e - spec.v)
    lag_in, lag_out, reu = _lag_reu_pairs_grid(order, row, w_in, w_out)
    consts = {key: _row_consts(*key) for key in set(zip(orders, rows))}

    def solve(i, wi, wo):
        if isinstance(reu[i], NCWellError):
            raise reu[i]
        rc = consts[orders[i], rows[i]]
        jin = _j_rows(orders[i], wi, lag_in[i], rc[0])
        jout, yout = _jy_basis_rows(orders[i], wo, lag_out[i], reu[i], rc)
        return _solve_matching(jin, jout, yout, energies[i], sectors[i])

    return (solve(i, wi, wo) for i, (wi, wo) in enumerate(zip(w_in.tolist(), w_out.tolist())))


def phase_shift_sweep(energies, spec: WellSpec, m: int) -> list[PhaseShiftPoint]:
    """Phase shifts over an energy grid, with a continuity-unwrapped companion.

    The energies up to the first one _check_scattering rejects are the lanes
    of one _scattering_lanes block.  Every point equals phase_shift(e, spec,
    m), a block of one lane, bit for bit, and a failing sweep raises what
    phase_shift raises at the first energy where it fails.
    """
    valid, failure = [], None
    for e in energies:
        try:
            mi = _check_scattering(e, spec, m)
        except DomainError as exc:
            failure = exc
            break
        valid.append(e)
    lanes = _scattering_lanes(spec, valid, [mi] * len(valid)) if valid else []
    pts = [_phase_point(e, mi, b, max(res)) for e, (_, b, res) in zip(valid, lanes)]
    if failure is not None:
        raise failure
    unwrapped = []
    offset = 0.0
    prev = None
    for p in pts:
        d = p.delta
        if prev is not None:
            while d + offset - prev > math.pi / 2:
                offset -= math.pi
            while d + offset - prev < -math.pi / 2:
                offset += math.pi
        unwrapped.append(d + offset)
        prev = d + offset
    return [
        PhaseShiftPoint(p.m, p.energy, p.tan_delta, p.delta, u, p.residual)
        for p, u in zip(pts, unwrapped)
    ]


def _wave_of_b(energy: float, m: int, b) -> tuple[float, float]:
    """(delta_m, sin^2(delta_m)) from the exterior B of a matching solve, a (sign, log magnitude) pair.

    With the exterior A pinned to 1, sin^2 is B^2/(1+B^2), computed as
    1/(1+B^-2) where |B| > 1, robust where |tan(delta)| blows up.
    """
    sign, logmag = b
    if sign == 0:
        return 0.0, 0.0
    delta = _phase_point(energy, m, b).delta
    if logmag > 0.0:
        t = log_to_float(sign, 0.0 - logmag)  # 1/B
        return delta, 1.0 / (1.0 + t * t)
    t = log_to_float(sign, logmag)
    return delta, t * t / (1.0 + t * t)


def _sum_floor(m_max: int, k: float, radius: float) -> int:
    """The last wave partial_wave_sum always reaches: max(m_max, ceil(kR) + 2)."""
    return max(m_max, math.ceil(k * radius) + 2)


# a cross section's first lane pass runs this many waves past _sum_floor, a later one this many waves
_FIRST_PAD = 6
_NEXT_BLOCK = 8


def _wave_sectors(m: int, negative_cap: int | None = None):
    """Wave m of the partial-wave sum as ((sector, eps), ...), the one rule for both.

    By default sector m alone, eps_0 = 1 and eps_{m>=1} = 2; with
    negative_cap = N (include_negative) sectors m and -m for 1 <= m <= N,
    each with eps = 1.
    """
    if negative_cap is None:
        return ((m, 1.0 if m == 0 else 2.0),)
    return ((m, 1.0), (-m, 1.0)) if 1 <= m <= negative_cap else ((m, 1.0),)


def _block_waves(energy: float, spec: WellSpec, m_max: int, k: float, negative_cap: int | None):
    """waves(sector) -> (delta, sin^2) for partial_wave_sum, solved in blocks.

    A block is one _scattering_lanes call at this energy over the sectors
    _wave_sectors gives its waves: the first covers waves 0 .. _sum_floor +
    _FIRST_PAD, a later one the next _NEXT_BLOCK waves, each capped at
    HARD_M_CAP, and a later one is built only when the sum asks for the
    first sector of its first wave.  A wave raises its own lane's error
    when it is read, so the sum raises what the scalar loop raises, and
    the waves past its stop point are dropped unread.
    """
    block, top = None, -1
    first_top = _sum_floor(m_max, k, spec.radius) + _FIRST_PAD

    def waves(sector):
        nonlocal block, top
        m = abs(sector)
        if m > top:
            top = min(first_top if m == 0 else m + _NEXT_BLOCK - 1, HARD_M_CAP)
            lanes = [s for j in range(m, top + 1) for s, _ in _wave_sectors(j, negative_cap)]
            block = _scattering_lanes(spec, [energy] * len(lanes), lanes)
        return _wave_of_b(energy, sector, next(block)[1])

    return waves


def partial_wave_sum(waves, energy: float, k: float, radius: float, m_max: int, negative_cap: int | None = None):
    """Sum the partial waves m = 0, 1, ... as (sigma, table).

    Wave m's sectors and weights are _wave_sectors(m, negative_cap), and
    waves(sector) returns (delta, sin^2(delta)) of each, asked in that
    order.  A sector adds the term (4/k) eps sin^2(delta), listed in table
    as (sector, eps, delta, term), and the largest term of a wave is what
    the tail rule sees.  Partial waves carry weight up to the
    impact-parameter cutoff m ~ kR, so the sum runs at least to
    max(m_max, ceil(kR) + 2) (sin^2(delta) can dip through zero at
    isolated m well before the tail truly decays); past that it stops once
    two waves in a row fall below TAIL_REL of the running total.  At
    m = HARD_M_CAP it stops with a warning aimed at the caller's caller.
    """
    min_extend = _sum_floor(m_max, k, radius)
    sigma = 0.0
    table = []
    below = 0
    m = 0
    while True:
        first = len(table)
        for sector, eps in _wave_sectors(m, negative_cap):
            delta, sin2 = waves(sector)
            term = (4.0 / k) * eps * sin2
            table.append((sector, eps, delta, term))
            sigma += term
        if max(row[3] for row in table[first:]) <= TAIL_REL * sigma:
            below += 1
        else:
            below = 0
        if m + 1 > min_extend and below >= 2:
            break
        if m >= HARD_M_CAP:
            warnings.warn(
                f"partial-wave sum hit the cap m = {HARD_M_CAP} before the tail "
                f"condition was met at E = {energy}",
                stacklevel=3,
            )
            break
        m += 1
    return sigma, table


def cross_section_total(
    energy: float,
    spec: WellSpec,
    m_max: int,
    include_negative: bool = False,
) -> CrossSectionPoint:
    """Total cross section sigma = (4/k) sum_m eps_m sin^2(delta_m), by partial_wave_sum.

    include_negative=True sums each sector m and -m with unit weight instead
    (_wave_sectors; exploratory variant, the negative side cut off at N).
    The waves are solved in blocks, one lane pass each (_block_waves);
    every term equals a wave-by-wave loop over phase_shift's solves bit for
    bit.
    """
    m_max, k = _check_cross_section_args(energy, spec.v, m_max)
    cap = spec.cap_n if include_negative else None
    sigma, table = partial_wave_sum(_block_waves(energy, spec, m_max, k, cap), energy, k, spec.radius, m_max, cap)
    return CrossSectionPoint(energy=energy, k=k, sigma_total=sigma, contributions=tuple((s, t) for s, _, _, t in table))


def cross_section_differential(
    energy: float,
    spec: WellSpec,
    m_max: int,
    phi_grid,
) -> list[tuple[float, float]]:
    """d(sigma)/d(phi) = |f(phi)|^2 / k on the supplied angular grid.

    f(phi) = sqrt(2/pi) sum_m eps_m cos(m phi) e^{i delta_m} sin(delta_m),
    over the table of cross_section_total's sum, solved in the same blocks.
    """
    m_max, k = _check_cross_section_args(energy, spec.v, m_max)
    phis = list(phi_grid)
    for p in phis:
        if not (0.0 <= p < 2.0 * math.pi):
            raise DomainError(f"phi values must lie in [0, 2 pi), got {p}")
    _, table = partial_wave_sum(_block_waves(energy, spec, m_max, k, None), energy, k, spec.radius, m_max)
    pref = math.sqrt(2.0 / math.pi)
    # the waves in the sum's order, each over the whole grid: np.cos is libm's cos and the
    # complex * and + are CPython's, so every entry is the scalar loop's; the modulus and
    # the square stay in Python, since numpy's abs(complex) and array ** 2 round otherwise
    grid = np.array(phis, dtype=float)
    f = np.zeros(len(phis), dtype=complex)
    for m, eps, delta, _ in table:
        f += eps * np.cos(m * grid) * cmath.exp(1j * delta) * math.sin(delta)
    return [(phi, abs(fp * pref) ** 2 / k) for phi, fp in zip(phis, f.tolist())]


# ---------------------------------------------------------------------------
# position-representation wavefunction
# ---------------------------------------------------------------------------

def wavefunction_eval(sol: RegionSolution, m: int, points) -> list[complex]:
    """psi(x, y) at coherent-state coordinates z = x + iy.

    Oscillatory regions (w > 0) evaluate A J_m + B Y_m with radial argument
    sqrt(2 theta) k r = 2 sqrt(w) r; the stored coefficients already are the
    position-space pair there.  Bound exteriors (w < 0) evaluate I_m/K_m,
    mapping the stored branch weights (c1, c2) to position amplitudes via
    A = sqrt(m!) wt^{-m/2} c1 and B = 2 c2 e^{wt} wt^{m/2} / sqrt(m!)
    with wt = |w|; the radial argument 2 sqrt(|w|) r must be finite.
    """
    from scipy import special  # deferred: only this and the oracle call a cylinder function

    m = _check_int(m, "m")
    if sol.w >= 0.0:
        regular, irregular = special.jv, special.yv
        a = sol.coeff_a.to_float()
        b = sol.coeff_b.to_float()
    else:
        if m < 0:
            raise DomainError(
                "bound-branch position evaluation supports m >= 0; negative m "
                "reduces to the shifted positive-order sector"
            )
        regular, irregular = special.iv, special.kv
        wt = -sol.w
        half_lg = 0.5 * math.lgamma(m + 1.0)
        half_lw = 0.5 * m * math.log(wt)
        a = (sol.coeff_a * ls_exp(half_lg - half_lw)).to_float()
        b = (sol.coeff_b * ls_exp(math.log(2.0) + wt + half_lw - half_lg)).to_float()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("coefficient magnitude exceeds float range")
    c = 2.0 * math.sqrt(abs(sol.w))
    out = []
    for (x, y) in points:
        r = math.hypot(x, y)
        cr = c * r
        if not math.isfinite(cr):
            raise DomainError(f"wavefunction points need a finite radial argument 2 sqrt(|w|) r, got ({x}, {y})")
        if r == 0.0:
            if b != 0.0:
                raise DomainError(
                    "the irregular branch is singular at the origin; origin "
                    "points need coeff_b = 0"
                )
            out.append(complex(a * float(regular(m, 0.0))))
            continue
        phi = math.atan2(y, x)
        # a zero regular term is skipped: I_m(c r) overflows far out in a bound exterior
        radial = a * float(regular(m, cr)) if a != 0.0 else 0.0
        if b != 0.0:
            radial += b * float(irregular(m, cr))
        out.append(radial * cmath.exp(1j * m * phi))
    return out


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def selftest() -> list[CheckResult]:
    """Every check the CLI selftest command prints, in its order.

    The specfun oracle-equivalence suites come first, then the invariants
    of the well.
    """
    out = _oracle_suites()
    spec10 = WellSpec.from_radius(20.0, 10, 6.0)
    spec1000 = WellSpec.from_radius(20.0, 1000, 10.0)
    ok = spec10.theta == 20.0 / 21.0 and spec1000.theta == 20.0 / 2001.0
    out.append(CheckResult(
        "radius quantization theta = R^2/(2N+1)", ok,
        f"theta(N=10)={spec10.theta!r}, theta(N=1000)={spec1000.theta!r}",
    ))

    worst = max(max(matching_relative_residuals(e, spec1000, 4)) for e in (12.0, 21.0, 30.0))
    out.append(CheckResult("scattering matching residuals", worst <= 1e-10, f"worst rel {worst:.2e} (tol 1e-10)"))

    worst = max((s.residual for s in find_bound_states(spec10, 1)), default=0.0)
    out.append(CheckResult("bound-state matching residuals", worst <= 1e-9, f"worst |G| {worst:.2e} (tol 1e-9)"))

    cs = cross_section_total(12.0, spec1000, 4)
    bound_ok = all(
        -1e-15 <= contrib <= (4.0 / cs.k) * _wave_sectors(m)[0][1] * (1.0 + 1e-12)
        for (m, contrib) in cs.contributions
    )
    sum_ok = abs(cs.sigma_total - sum(c for _, c in cs.contributions)) <= 1e-12 * cs.sigma_total
    out.append(CheckResult(
        "cross-section unitarity and additivity", bound_ok and sum_ok,
        f"{len(cs.contributions)} partial waves at E=12",
    ))

    p = phase_shift(3.0, WellSpec.from_radius(20.0, 10, 0.0), 2)
    out.append(CheckResult("free well scatters nothing", p.tan_delta == 0.0, f"tan delta = {p.tan_delta!r}"))
    return out
