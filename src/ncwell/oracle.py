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
    GRID_POINTS,
    BoundState,
    CrossSectionPoint,
    PhaseShiftPoint,
    _bound_levels,
    _check_above_v,
    _check_cross_section_args,
    partial_wave_sum,
)
from .errors import DomainError
from .specfun import _check_int, bessel, bessel_deriv


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


def _log_derivative_mismatch_grid(energies, spec: CommWellSpec, m: int) -> np.ndarray:
    """Cross-multiplied continuity condition; zeros are the bound levels.

    k J'_m(kR) K_m(kappa R) - kappa K'_m(kappa R) J_m(kR), pole-free in E,
    with C'_m = C_{m-1} - (m/x) C_m (K'_m = -K_{m-1} - (m/x) K_m).  Takes
    an array of energies or one energy; the scipy ufuncs return the same
    bits for an array as for scalars.
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
    """Bound levels in (0, V), labelled with the m passed; the spectrum depends on |m| only."""
    label = _check_int(m, "m")
    m = abs(label)
    return _bound_levels(
        lambda e: float(_log_derivative_mismatch_grid(e, spec, m)),
        lambda grid: _log_derivative_mismatch_grid(grid, spec, m),
        label,
        spec.v,
        grid_points,
    )


def comm_phase_shift(energy: float, spec: CommWellSpec, m: int) -> PhaseShiftPoint:
    """tan(delta_m) from log-derivative matching, labelled with the m passed; it depends on |m| only."""
    label = _check_int(m, "m")
    m = abs(label)
    _check_above_v(energy, spec.v, "scattering")
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
    return PhaseShiftPoint(m=label, energy=energy, tan_delta=tan_delta, delta=delta)


def comm_cross_section(energy: float, spec: CommWellSpec, m_max: int) -> CrossSectionPoint:
    """sigma = (4/k) sum_m eps_m sin^2(delta_m), same tail rule as the core."""
    m_max = _check_cross_section_args(energy, spec.v, m_max)
    k = math.sqrt(2.0 * (energy - spec.v))

    def waves(m):
        s = math.sin(comm_phase_shift(energy, spec, m).delta)
        return [(m, 1.0 if m == 0 else 2.0, s * s)]

    sigma, contributions = partial_wave_sum(waves, energy, k, spec.radius, m_max)
    return CrossSectionPoint(energy=energy, k=k, sigma_total=sigma, contributions=tuple(contributions))
