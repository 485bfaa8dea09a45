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
from scipy import special

from .core import (
    HARD_M_CAP,
    TAIL_REL,
    BoundState,
    CrossSectionPoint,
    PhaseShiftPoint,
    _bound_levels,
    _check_cross_section_args,
    partial_wave_sum,
)
from .errors import DomainError
from .specfun import _check_int, bessel, bessel_deriv

GRID_POINTS = 4000


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


def _log_derivative_mismatch(energy: float, spec: CommWellSpec, m: int) -> float:
    """Cross-multiplied continuity condition; zeros are the bound levels.

    k J'_m(kR) K_m(kappa R) - kappa K'_m(kappa R) J_m(kR), pole-free in E.
    """
    r = spec.radius
    k = math.sqrt(2.0 * energy)
    kappa = math.sqrt(2.0 * (spec.v - energy))
    return k * bessel_deriv("J", m, k * r) * bessel("K", m, kappa * r) - kappa * bessel_deriv(
        "K", m, kappa * r
    ) * bessel("J", m, k * r)


def _log_derivative_mismatch_grid(energies: np.ndarray, spec: CommWellSpec, m: int) -> np.ndarray:
    """_log_derivative_mismatch on an array of energies, bit for bit.

    Same arithmetic order as the scalar path, on array calls of the scipy
    ufuncs (which return the same bits for an array as for scalars).
    """
    r = spec.radius
    k = np.sqrt(2.0 * energies)
    kappa = np.sqrt(2.0 * (spec.v - energies))
    kr, kappar = k * r, kappa * r
    j_m, k_m = special.jv(m, kr), special.kv(m, kappar)
    dj = special.jv(m - 1, kr) - (m / kr) * j_m
    dk = -special.kv(m - 1, kappar) - (m / kappar) * k_m
    return k * dj * k_m - kappa * dk * j_m


def comm_bound_states(spec: CommWellSpec, m: int, grid_points: int = GRID_POINTS) -> list[BoundState]:
    """Bound levels in (0, V); the spectrum depends on |m| only."""
    m = abs(_check_int(m, "m"))
    return _bound_levels(
        lambda e: _log_derivative_mismatch(e, spec, m),
        lambda grid: _log_derivative_mismatch_grid(grid, spec, m),
        m,
        spec.v,
        grid_points,
    )


def comm_phase_shift(energy: float, spec: CommWellSpec, m: int) -> PhaseShiftPoint:
    """tan(delta_m) from log-derivative matching of the scattering solution."""
    m = abs(_check_int(m, "m"))
    if not (energy > spec.v):
        raise DomainError(f"scattering needs E > V, got E={energy}, V={spec.v}")
    r = spec.radius
    k_in = math.sqrt(2.0 * energy)
    k_out = math.sqrt(2.0 * (energy - spec.v))
    ji = bessel("J", m, k_in * r)
    jip = bessel_deriv("J", m, k_in * r)
    jo = bessel("J", m, k_out * r)
    jop = bessel_deriv("J", m, k_out * r)
    yo = bessel("Y", m, k_out * r)
    yop = bessel_deriv("Y", m, k_out * r)
    num = k_in * jip * jo - k_out * ji * jop
    den = k_in * jip * yo - k_out * ji * yop
    if den == 0.0:
        tan_delta = math.copysign(math.inf, num) if num != 0.0 else 0.0
    else:
        tan_delta = num / den
    delta = math.atan2(num, den)
    if delta > math.pi / 2:
        delta -= math.pi
    elif delta <= -math.pi / 2:
        delta += math.pi
    return PhaseShiftPoint(m=m, energy=energy, tan_delta=tan_delta, delta=delta)


def comm_cross_section(
    energy: float, spec: CommWellSpec, m_max: int, tail_rel: float = TAIL_REL
) -> CrossSectionPoint:
    """sigma = (4/k) sum_m eps_m sin^2(delta_m), same tail rule as the core."""
    m_max = _check_cross_section_args(energy, spec.v, m_max)
    k = math.sqrt(2.0 * (energy - spec.v))

    def waves(m):
        eps = 1.0 if m == 0 else 2.0
        s = math.sin(comm_phase_shift(energy, spec, m).delta)
        return [(m, (4.0 / k) * eps * (s * s))]

    sigma, contributions = partial_wave_sum(
        waves, energy, k, spec.radius, m_max, HARD_M_CAP, tail_rel
    )
    return CrossSectionPoint(energy=energy, k=k, sigma_total=sigma, contributions=tuple(contributions))
