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
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import DomainError, SingularSystemError
from .logscale import LogScaled, ONE, ZERO, ls_exp
from .specfun import (  # noqa: F401  (_reu_direct: bench/tracing.py hooks it here)
    OrderIndex,
    _check_int,
    _laguerre_sweep,
    _laguerre_sweep_grid,
    _ls_from_sweep,
    _lower_order,
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

# bound-state search defaults
GRID_POINTS = 2000
EDGE_FRACTION = 1e-9
BISECT_FRACTION = 1e-12


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
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise DomainError(f"theta must be positive and finite, got {self.theta}")
        _check_int(self.cap_n, "cap_n")
        if self.cap_n < 0:
            raise DomainError(f"cap_n must be >= 0, got {self.cap_n}")
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
        if not (radius_sq > 0.0):
            raise DomainError(f"radius_sq must be positive, got {radius_sq}")
        return cls(radius_sq / (2 * cap_n + 1), cap_n, v)

    @classmethod
    def from_theta_radius(cls, theta: float, radius_sq: float, v: float) -> "WellSpec":
        """Construct from (theta, R^2); N = (R^2/theta - 1)/2 must be integral."""
        if not (theta > 0.0 and radius_sq > 0.0):
            raise DomainError("theta and radius_sq must be positive")
        n_real = (radius_sq / theta - 1.0) / 2.0
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
    """(ReU at rows n and n+1) sharing one recurrence pass."""
    return tuple(_reu_rows(m, w, n, 2))


def _laguerre_pair(m: int, w: float, n: int):
    """(L^m_n(w), L^m_{n+1}(w)) for m >= 0 from one forward sweep."""
    res = _laguerre_sweep(m, w, {n, n + 1})
    return _ls_from_sweep(*res[n]), _ls_from_sweep(*res[n + 1])


def _jy_basis_rows(m: int, w: float, n: int):
    """Regular/irregular basis values at rows n and n+1 for w > 0, m >= 0.

    Row value of the element is coeff_a * J_row + coeff_b * Y_row with
    J_row = sqrt(n!/(n+m)!) w^{m/2} L^m_n(w) and
    Y_row = -(1/pi) sqrt(n!(n+m)!) e^w w^{-m/2} Re[U(n+1,1-m,-w)].
    """
    lnw = math.log(w)
    lag = _laguerre_pair(m, w, n)
    reu = _reu_pair(m, w, n)
    rows = []
    for i, idx in enumerate((n, n + 1)):
        half = 0.5 * (math.lgamma(idx + 1.0) - math.lgamma(idx + m + 1.0))
        j_row = lag[i] * ls_exp(half + 0.5 * m * lnw)
        y_row = reu[i] * ls_exp(
            0.5 * (math.lgamma(idx + 1.0) + math.lgamma(idx + m + 1.0))
            + w
            - 0.5 * m * lnw,
            sign=-1,
        ) / math.pi
        rows.append((j_row, y_row))
    return rows


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
        if m == 0:
            return a * ls_exp(0.5 * (math.lgamma(n + 1.0) - math.lgamma(n + m + 1.0)))
        return ZERO
    if w > 0.0:
        j0, y0 = _jy_basis_rows(m, w, n)[0]
        return a * j0 + b * y0
    # bound branch: w < 0, x = -w > 0
    x = -w
    lag = laguerre(n, m, w)
    u = kummer_u(n + 1, 1 - m, x)
    c1_part = a * lag * ls_exp(
        0.5 * (math.lgamma(m + 1.0) + math.lgamma(n + 1.0) - math.lgamma(n + m + 1.0))
    )
    c2_part = b * u * ls_exp(
        0.5 * (math.lgamma(n + 1.0) + math.lgamma(n + m + 1.0) - math.lgamma(m + 1.0))
    )
    return c1_part + c2_part


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


def _check_cross_section_args(energy: float, v: float, m_max) -> int:
    """m_max as an int; it must be positive, and the energy above V."""
    m_max = _check_int(m_max, "m_max")
    if m_max < 1:
        raise DomainError(f"m_max must be a positive integer, got {m_max}")
    if not (energy > v):
        raise DomainError(f"cross section needs E > V, got E={energy}, V={v}")
    return m_max


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------

def _bound_residual(l_n: LogScaled, l_n1: LogScaled, ratio: float, w: float, spec: WellSpec, m: int) -> float:
    """G(E) from its factors at one energy.

    l_n, l_n1 are L^|m| at rows N-k and N+1-k (k = max(-m, 0)), lowered to
    order m here; ratio is U(N+2-k,1-|m|,x)/U(N+1-k,1-|m|,x); w = theta E.
    """
    k = max(-m, 0)
    if k:
        l_n = _lower_order(l_n, spec.cap_n, k, w)
        l_n1 = _lower_order(l_n1, spec.cap_n + 1, k, w)
    t1 = l_n1
    t2 = l_n * ((spec.cap_n + m + 1) * ratio)
    scale = max(abs(t1), abs(t2))
    if scale.is_zero():
        return 0.0
    return ((t1 - t2) / scale).to_float()


def matching_residual_bound(energy: float, spec: WellSpec, m: int) -> float:
    """Normalized bound-state matching function G(E); zeros are bound levels.

    G = L^m_{N+1}(theta E) U(N+1,1-m,x) - (N+m+1) L^m_N(theta E) U(N+2,1-m,x)
    with x = theta (V - E), rescaled sign-preservingly by the larger term's
    magnitude so the return value lies in [-2, 2].
    """
    m = _check_int(m, "m")
    _check_bound_energy(energy, spec)
    _check_negative_cutoff(m, spec)
    order, k = abs(m), max(-m, 0)
    w = spec.theta * energy
    x = spec.theta * (spec.v - energy)
    l_n, l_n1 = _laguerre_pair(order, w, spec.cap_n - k)
    return _bound_residual(l_n, l_n1, _u_ratio_1m(spec.cap_n + 1 - k, order, x), w, spec, m)


def _matching_residual_grid(energies: np.ndarray, spec: WellSpec, m: int) -> list[float]:
    """matching_residual_bound at every energy of a scan grid, bit for bit.

    The Laguerre sweep and the U-ratio continued fraction run on numpy
    lanes, one per energy; only the final LogScaled combination is per lane.
    """
    order, k = abs(m), max(-m, 0)
    w = spec.theta * energies
    x = spec.theta * (spec.v - energies)
    rows = _laguerre_sweep_grid(order, w, (spec.cap_n - k, spec.cap_n + 1 - k))
    ratio = _u_ratio_1m_grid(spec.cap_n + 1 - k, order, x)
    cols = [a.tolist() for a in (*rows[spec.cap_n - k], *rows[spec.cap_n + 1 - k], ratio, w)]
    return [
        _bound_residual(_ls_from_sweep(m0, s0), _ls_from_sweep(m1, s1), r, wi, spec, m)
        for m0, s0, m1, s1, r, wi in zip(*cols)
    ]


def scan_roots(g, g_grid, lo: float, hi: float, grid_points: int, tol: float):
    """Roots of g in [lo, hi] as (root, |g(root)|) pairs, in increasing order.

    g_grid(energies) evaluates g on the whole uniform scan grid in one call
    and must equal g point by point.  Each sign change between neighbouring
    grid values is bisected with g down to width tol; a grid value that is
    exactly 0 is itself a root.
    """
    grid_points = _check_int(grid_points, "grid_points")
    if grid_points < 2:
        raise DomainError("grid_points must be >= 2")
    if hi <= lo:
        return []
    step = (hi - lo) / (grid_points - 1)
    grid = lo + np.arange(grid_points) * step
    vals = np.asarray(g_grid(grid), dtype=float)
    zero, neg = vals == 0.0, vals < 0.0
    hits = np.flatnonzero(zero[:-1] | ((neg[:-1] != neg[1:]) & ~zero[1:]))
    es, gs = grid.tolist(), vals.tolist()
    roots = []
    for i in hits.tolist():
        if gs[i] == 0.0:
            roots.append((es[i], 0.0))
            continue
        a, b, fa = es[i], es[i + 1], gs[i]
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = g(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fm < 0.0) == (fa < 0.0):
                a, fa = mid, fm
            else:
                b = mid
        root = 0.5 * (a + b)
        roots.append((root, abs(g(root))))
    return roots


def _bound_levels(g, g_grid, m: int, v: float, grid_points: int) -> list[BoundState]:
    """Bound levels of sector m: the roots of g in (0, V), by scan_roots.

    The scan stays EDGE_FRACTION V clear of both ends and bisects each sign
    change to BISECT_FRACTION V.
    """
    eps = EDGE_FRACTION * v
    roots = scan_roots(g, g_grid, eps, v - eps, grid_points, BISECT_FRACTION * v)
    return [BoundState(m=m, energy=e, residual=r, level=i) for i, (e, r) in enumerate(roots)]


def find_bound_states(spec: WellSpec, m: int, grid_points: int = GRID_POINTS) -> list[BoundState]:
    """Scan (0, V) for sign changes of the matching function and bisect them."""
    m = _check_int(m, "m")
    _check_negative_cutoff(m, spec)
    return _bound_levels(
        lambda e: matching_residual_bound(e, spec, m),
        lambda grid: _matching_residual_grid(grid, spec, m),
        m,
        spec.v,
        grid_points,
    )


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
    elem_l = lag * ls_exp(
        0.5 * (math.lgamma(m + 1.0) + math.lgamma(n_cap + 1.0) - math.lgamma(n_cap + m + 1.0))
    )
    elem_u = u * ls_exp(
        0.5 * (math.lgamma(n_cap + 1.0) + math.lgamma(n_cap + m + 1.0) - math.lgamma(m + 1.0))
    )
    c2 = elem_l / elem_u
    a_pos = ls_exp(0.5 * math.lgamma(m + 1.0) - 0.5 * m * math.log(w_in))
    interior = RegionSolution(INTERIOR, w_in, a_pos, ZERO)
    exterior = RegionSolution(EXTERIOR, w_out, ZERO, c2)
    return interior, exterior


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def _matching_rows(w_in: float, w_out: float, spec: WellSpec, m: int):
    """Interior and exterior basis rows at the two matching rows of sector m.

    Negative m is the same system at rows shifted down by |m| in the |m| sector.
    """
    row = spec.cap_n - (-m if m < 0 else 0)
    return _jy_basis_rows(abs(m), w_in, row), _jy_basis_rows(abs(m), w_out, row)


def scattering_coeffs(energy: float, spec: WellSpec, m: int):
    """Interior and exterior coefficients of the scattering solution.

    Interior coeff_b is pinned to 0 (regularity), exterior coeff_a to 1;
    the two matching rows n = N, N+1 give a 2x2 system for the interior
    amplitude and the exterior irregular coefficient B, with
    tan(delta_m) = -B.
    """
    m = _check_int(m, "m")
    if not (energy > spec.v):
        raise DomainError(f"scattering needs E > V, got E={energy}, V={spec.v}")
    _check_negative_cutoff(m, spec)
    theta = spec.theta
    w_in = theta * energy
    w_out = theta * (energy - spec.v)
    rows_in, rows_out = _matching_rows(w_in, w_out, spec, m)

    jin = [rows_in[0][0], rows_in[1][0]]
    jout = [rows_out[0][0], rows_out[1][0]]
    yout = [rows_out[0][1], rows_out[1][1]]

    # column scales: the larger log magnitude of each basis column
    c1, c2, c3 = (
        max(v.logmag if v.sign else -math.inf for v in col) for col in (jin, yout, jout)
    )
    if not (math.isfinite(c1) and math.isfinite(c2)):
        raise SingularSystemError("a basis column vanished identically at both rows")
    if not math.isfinite(c3):
        c3 = 0.0

    def fl(v, shift):
        return 0.0 if v.sign == 0 else v.sign * math.exp(v.logmag - shift)

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

    a_in = LogScaled.from_float(x1) * ls_exp(c3 - c1) if x1 != 0.0 else ZERO
    b_out = LogScaled.from_float(x2) * ls_exp(c3 - c2) if x2 != 0.0 else ZERO

    interior = RegionSolution(INTERIOR, w_in, a_in, ZERO)
    exterior = RegionSolution(EXTERIOR, w_out, ONE, b_out)

    # residual of both rows, relative to the largest contributing term
    for i in (0, 1):
        terms = (a_in * jin[i], -(b_out * yout[i]), -jout[i])
        resid = terms[0] + terms[1] + terms[2]
        scale = max(abs(t) for t in terms)
        if scale.is_zero():
            continue
        rel = (abs(resid) / scale).to_float()
        if rel > 1e-10:
            raise SingularSystemError(
                f"matching residual {rel:.2e} exceeds 1e-10 at E={energy}, m={m}"
            )
    return interior, exterior


def matching_relative_residuals(energy: float, spec: WellSpec, m: int):
    """Relative residuals of the two matching rows for the solved coefficients."""
    interior, exterior = scattering_coeffs(energy, spec, m)
    rows_in, rows_out = _matching_rows(interior.w, exterior.w, spec, m)
    out = []
    for i in (0, 1):
        lhs = interior.coeff_a * rows_in[i][0]
        rhs = exterior.coeff_a * rows_out[i][0] + exterior.coeff_b * rows_out[i][1]
        scale = max(abs(lhs), abs(rhs))
        if scale.is_zero():
            out.append(0.0)
        else:
            out.append((abs(lhs - rhs) / scale).to_float())
    return out


def phase_shift(energy: float, spec: WellSpec, m: int) -> PhaseShiftPoint:
    """Phase shift of partial wave m at E > V: tan(delta) = -B/A."""
    _, exterior = scattering_coeffs(energy, spec, m)
    ratio = exterior.coeff_b / exterior.coeff_a if exterior.coeff_b.sign else ZERO
    tan_delta = -ratio.to_float()
    delta = math.atan(tan_delta) if math.isfinite(tan_delta) else math.pi / 2
    return PhaseShiftPoint(m=m, energy=energy, tan_delta=tan_delta, delta=delta)


def phase_shift_sweep(energies, spec: WellSpec, m: int) -> list[PhaseShiftPoint]:
    """Phase shifts over an energy grid, with a continuity-unwrapped companion."""
    pts = [phase_shift(e, spec, m) for e in energies]
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
        PhaseShiftPoint(p.m, p.energy, p.tan_delta, p.delta, u)
        for p, u in zip(pts, unwrapped)
    ]


def _delta_and_sin2(energy: float, spec: WellSpec, m: int) -> tuple[float, float]:
    """(delta_m, sin^2(delta_m)) from one matching solve.

    sin^2 is computed as B^2/(A^2+B^2), robust where |tan(delta)| blows up.
    """
    _, exterior = scattering_coeffs(energy, spec, m)
    a, b = exterior.coeff_a, exterior.coeff_b
    if b.is_zero():
        return 0.0, 0.0
    tan_delta = -(b / a).to_float()
    delta = math.atan(tan_delta) if math.isfinite(tan_delta) else math.pi / 2
    if b.logmag > a.logmag:
        t = (a / b).to_float()
        return delta, 1.0 / (1.0 + t * t)
    t = (b / a).to_float()
    return delta, t * t / (1.0 + t * t)


def partial_wave_sum(waves, energy: float, k: float, radius: float, m_max: int, cap: int,
                     tail_rel: float):
    """Sum the partial waves m = 0, 1, ... as (sigma, contributions).

    waves(m) returns wave m's contributions as (label, term) pairs; the
    largest term of a wave is what the tail rule sees.  Partial waves carry
    weight up to the impact-parameter cutoff m ~ kR, so the sum runs at
    least to max(m_max, ceil(kR) + 2) (sin^2(delta) can dip through zero at
    isolated m well before the tail truly decays); past that it stops once
    two waves in a row fall below tail_rel of the running total.  At m = cap
    it stops with a warning aimed at the caller's caller.
    """
    min_extend = max(m_max, math.ceil(k * radius) + 2)
    sigma = 0.0
    contributions = []
    below = 0
    m = 0
    while True:
        terms = waves(m)
        for entry in terms:
            contributions.append(entry)
            sigma += entry[1]
        term = max(t for _, t in terms)
        if term <= tail_rel * sigma:
            below += 1
        else:
            below = 0
        if m + 1 > min_extend and below >= 2:
            break
        if m >= cap:
            warnings.warn(
                f"partial-wave sum hit the cap m = {cap} before the tail "
                f"condition was met at E = {energy}",
                stacklevel=3,
            )
            break
        m += 1
    return sigma, contributions


def cross_section_total(
    energy: float,
    spec: WellSpec,
    m_max: int,
    include_negative: bool = False,
    tail_rel: float = TAIL_REL,
) -> CrossSectionPoint:
    """Total cross section sigma = (4/k) sum_m eps_m sin^2(delta_m).

    eps_0 = 1, eps_{m>=1} = 2; the sum extends beyond m_max until the last
    contribution falls below tail_rel of the running total.  With
    include_negative=True each sector m and -m contributes its own
    sin^2(delta) with unit weight instead (exploratory variant; the
    negative side is cut off at N).
    """
    m_max = _check_cross_section_args(energy, spec.v, m_max)
    k = math.sqrt(2.0 * (energy - spec.v))

    if include_negative:
        def waves(m):
            terms = [(m, (4.0 / k) * _delta_and_sin2(energy, spec, m)[1])]
            if 1 <= m <= spec.cap_n:
                terms.append((-m, (4.0 / k) * _delta_and_sin2(energy, spec, -m)[1]))
            return terms
    else:
        def waves(m):
            eps = 1.0 if m == 0 else 2.0
            return [(m, (4.0 / k) * eps * _delta_and_sin2(energy, spec, m)[1])]

    cap = spec.cap_n if include_negative else HARD_M_CAP
    sigma, contributions = partial_wave_sum(waves, energy, k, spec.radius, m_max, cap, tail_rel)
    return CrossSectionPoint(
        energy=energy, k=k, sigma_total=sigma, contributions=tuple(contributions)
    )


def cross_section_differential(
    energy: float,
    spec: WellSpec,
    m_max: int,
    phi_grid,
    tail_rel: float = TAIL_REL,
) -> list[tuple[float, float]]:
    """d(sigma)/d(phi) = |f(phi)|^2 / k on the supplied angular grid.

    f(phi) = sqrt(2/pi) sum_m eps_m cos(m phi) e^{i delta_m} sin(delta_m).
    """
    m_max = _check_cross_section_args(energy, spec.v, m_max)
    phis = list(phi_grid)
    for p in phis:
        if not (0.0 <= p < 2.0 * math.pi):
            raise DomainError(f"phi values must lie in [0, 2 pi), got {p}")
    k = math.sqrt(2.0 * (energy - spec.v))
    # collect phase shifts with the same tail rule as the summed form
    deltas = []

    def waves(m):
        eps = 1.0 if m == 0 else 2.0
        delta, sin2 = _delta_and_sin2(energy, spec, m)
        deltas.append((m, eps, delta))
        return [(m, (4.0 / k) * eps * sin2)]

    partial_wave_sum(waves, energy, k, spec.radius, m_max, HARD_M_CAP, tail_rel)
    pref = math.sqrt(2.0 / math.pi)
    out = []
    for phi in phis:
        f = 0j
        for (mm, eps, d) in deltas:
            f += eps * math.cos(mm * phi) * cmath.exp(1j * d) * math.sin(d)
        f *= pref
        out.append((phi, abs(f) ** 2 / k))
    return out


# ---------------------------------------------------------------------------
# position-representation wavefunction
# ---------------------------------------------------------------------------

def wavefunction_eval(sol: RegionSolution, m: int, k: float, points) -> list[complex]:
    """psi(x, y) at coherent-state coordinates z = x + iy.

    Oscillatory regions (w > 0) evaluate A J_m + B Y_m with radial argument
    sqrt(2 theta) k r = 2 sqrt(w) r; the stored coefficients already are the
    position-space pair there.  Bound exteriors (w < 0) evaluate I_m/K_m,
    mapping the stored branch weights (c1, c2) to position amplitudes via
    A = sqrt(m!) wt^{-m/2} c1 and B = 2 c2 e^{wt} wt^{m/2} / sqrt(m!)
    with wt = |w|.
    """
    m = _check_int(m, "m")
    if not (k > 0.0):
        raise DomainError(f"wavenumber k must be positive, got {k}")
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
        if r == 0.0:
            if b != 0.0:
                raise DomainError(
                    "the irregular branch is singular at the origin; origin "
                    "points need coeff_b = 0"
                )
            out.append(complex(a * float(regular(m, 0.0))))
            continue
        phi = math.atan2(y, x)
        radial = a * float(regular(m, c * r))
        if b != 0.0:
            radial += b * float(irregular(m, c * r))
        out.append(radial * cmath.exp(1j * m * phi))
    return out
