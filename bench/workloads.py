"""Seeded workloads of ncwell CLI invocations.

Each workload is a list of ops; an op is one `ncwell.cli.main(argv)` call.
The README commands of a kind are included verbatim where one costs less
than a second; the slower ones run on a coarser grid, so that a pass over a
workload takes a few seconds and a run repeats it.  The seed only jitters
continuous parameters inside narrow strata and shuffles the order, so two
seeds ask for nearly the same amount of work: the run-to-run spread of the
timings stays small while the inputs still differ from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The README well: R^2 = 20, and the scattering runs use N = 1000, V = 10.
README_R2 = 20.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus the parameters its output checks need."""

    argv: tuple
    kind: str  # the subcommand
    v: float
    r2: float
    cap_n: int
    m: tuple = ()  # sectors asked for
    energies: tuple = ()  # energy grid of a sweep
    energy: float | None = None  # energy of a dcs or wavefunction op
    steps: int = 0  # grid size: sweep points, phi steps or radial points


def _fmt(x: float) -> str:
    return repr(float(x))


def _well(r2: float, cap_n: int, v: float) -> list[str]:
    rad = "sqrt20" if r2 == README_R2 else f"sqrt{_fmt(r2)}"
    return ["--radius", rad, "--capital-n", str(cap_n), "--v", _fmt(v)]


def _grid(emin: float, emax: float, steps: int) -> tuple:
    return tuple(emin + (emax - emin) * i / (steps - 1) for i in range(steps))


def _strata(rng: random.Random, lo: float, hi: float, count: int, jitter: float = 0.2):
    """count values spread evenly over [lo, hi], each moved by a small seeded jitter."""
    width = (hi - lo) / count
    return [lo + width * (i + 0.5 + jitter * (rng.random() - 0.5)) for i in range(count)]


def _log_strata(rng, lo, hi, count, jitter=0.2):
    return [math.exp(x) for x in _strata(rng, math.log(lo), math.log(hi), count, jitter)]


def _jitter(rng: random.Random, x: float, rel: float = 0.1) -> float:
    """x moved by up to +-rel/2 of itself."""
    return round(x * (1.0 + rel * (rng.random() - 0.5)), 3)


# ---------------------------------------------------------------------------
# bound-spectrum
# ---------------------------------------------------------------------------

def bound_op(cap_n: int, m: tuple, r2: float, v: float, grid: int) -> Op:
    """bound-states in the sectors m, which are one value or a range lo..hi."""
    spec = str(m[0]) if len(m) == 1 else f"{m[0]}..{m[-1]}"
    argv = ("bound-states", *_well(r2, cap_n, v), f"--m={spec}", "--grid-points", str(grid))
    return Op(argv, "bound-states", v, r2, cap_n, m=m)


def bound_spectrum(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        # the README N=10, m=-6..6 and N=1000, m=0 runs on a coarser scan grid,
        # so that one pass stays short enough to be repeated within a run
        bound_op(10, tuple(range(-6, 7)), README_R2, 6.0, grid=250),
        bound_op(1000, (0,), README_R2, 6.0, grid=300),
    ]
    # Sector m is fixed per slot: it sets the number of levels, hence the
    # bisection work, so drawing it from the seed would move the cost.
    # many small-N wells, one sector each, negative m included (|m| <= N)
    small_m = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 2, -2, 1, 3, -3, 0, 4, -4, 1, -1, 5)
    for n_real, m in zip(_strata(rng, 3.0, 32.0, 24), small_m):
        cap_n = round(n_real)
        ops.append(bound_op(cap_n, (max(m, -cap_n),), _jitter(rng, README_R2), _jitter(rng, 6.0),
                            grid=250))
    # large-N sectors: long continued fractions, coarse scan grid.  With the
    # two runs above and the wavefunctions they are the 14 slowest of 38 ops,
    # so op_tail_s (10 ops slower) falls amid them and op_p50_s amid the small-N.
    # The well moves less than for small N, since V sets the number of levels.
    for m, n_real in enumerate(_log_strata(rng, 120.0, 360.0, 10)):
        ops.append(bound_op(round(n_real), (m,), _jitter(rng, README_R2, 0.02),
                            _jitter(rng, 6.0, 0.02), grid=150))
    # bound-energy wavefunctions at N 60..100: scan plus the U anchor product;
    # the energy snaps to the nearest level, whose depth sets the CF length
    for m, (n_real, frac) in enumerate(zip(_strata(rng, 60.0, 100.0, 2), (0.3, 0.6))):
        cap_n, v = round(n_real), 6.0
        energy = round(v * (frac + 0.04 * (rng.random() - 0.5)), 3)
        argv = ("wavefunction", *_well(README_R2, cap_n, v), "--m", str(m),
                "--energy", _fmt(energy), "--points", "100")
        ops.append(Op(argv, "wavefunction", v, README_R2, cap_n, m=(m,), energy=energy, steps=100))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# phase-sweep
# ---------------------------------------------------------------------------

def phase_op(cap_n, m, r2, v, emin, emax, steps) -> Op:
    argv = ("phase-shifts", *_well(r2, cap_n, v), "--m", str(m),
            "--emin", _fmt(emin), "--emax", _fmt(emax), "--esteps", str(steps))
    return Op(argv, "phase-shifts", v, r2, cap_n, m=(m,), energies=_grid(emin, emax, steps),
              steps=steps)


# largest w = theta E, per m, below which the double-precision Re U pass
# keeps its digits (escalations stay sporadic, near zeros of Re U)
_W_CAP = [2.0] * 5 + [0.75] * 6 + [0.6] * 2 + [0.35] * 4


def phase_sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        # README, verbatim
        Op(("phase-shifts", "--radius", "sqrt20", "--capital-n", "1000", "--v", "10", "--m", "4",
            "--emin", "10.05", "--emax", "35", "--esteps", "400"),
           "phase-shifts", 10.0, 20.0, 1000, m=(4,), energies=_grid(10.05, 35.0, 400), steps=400),
    ]
    count = 48
    for i, n_real in enumerate(_log_strata(rng, 200.0, 3000.0, count)):
        cap_n = round(n_real)
        # the Re U series stays in double precision (mpmath escalation only
        # sporadic) while w <= _W_CAP[m]; high m is paired with large N so that the
        # sweep still spans at least 5 energy units above V.  m is a fixed
        # scatter over the slots, since it moves the cost per point.
        m = (7 * i) % (17 if cap_n >= 520 else 13 if cap_n >= 305 else 11 if cap_n >= 245 else 5)
        r2 = _jitter(rng, README_R2, 0.2)
        v = _jitter(rng, 10.0, 0.2)
        theta = r2 / (2 * cap_n + 1)
        emin = round(v + 0.02 + 0.3 * rng.random(), 3)
        emax = round(min(v + 20.0 + 10.0 * rng.random(), _W_CAP[m] / theta), 3)
        steps = max(12, round(35_000 / (cap_n + 250)))
        ops.append(phase_op(cap_n, m, r2, v, emin, emax, steps))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cross-section
# ---------------------------------------------------------------------------

def cross_op(emin, emax, steps) -> Op:
    argv = ("cross-section", *_well(README_R2, 1000, 10.0), "--emin", _fmt(emin),
            "--emax", _fmt(emax), "--esteps", str(steps))
    return Op(argv, "cross-section", 10.0, README_R2, 1000, energies=_grid(emin, emax, steps),
              steps=steps)


def dcs_op(energy, phi_steps) -> Op:
    argv = ("dcs", *_well(README_R2, 1000, 10.0), "--energy", _fmt(energy),
            "--phi-steps", str(phi_steps))
    return Op(argv, "dcs", 10.0, README_R2, 1000, energy=energy, steps=phi_steps)


def cross_section(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        # README dcs, verbatim
        Op(("dcs", "--radius", "sqrt20", "--capital-n", "1000", "--v", "10", "--energy", "15",
            "--phi-steps", "360"), "dcs", 10.0, 20.0, 1000, energy=15.0, steps=360),
    ]
    # two-point sweeps, one just above threshold and one above the onset of
    # the mpmath escalation
    for e in (12.0, 20.0):
        emin = round(e + 0.6 * (rng.random() - 0.5), 3)
        ops.append(cross_op(emin, round(emin + 1.0, 3), 2))
    # Single-energy dcs in groups.  The README sweep runs to E=60, where the
    # escalation dominates: one op near 60 and two on the way up stand for it
    # (the 200-point sweep itself takes minutes).  op_tail_s (10 ops slower)
    # falls in the 8 ops at E 16.3..18.7, where the cost per op is flat, and
    # op_p50_s in the 8 at E 13.2..14.8: each group is dense in cost, so those
    # order statistics average over several ops instead of following one.
    energies = (_strata(rng, 57.0, 60.0, 1) + _strata(rng, 26.0, 46.0, 2)
                + _strata(rng, 16.3, 18.7, 8, jitter=0.1) + _strata(rng, 13.2, 14.8, 8, jitter=0.1)
                + _strata(rng, 10.2, 12.8, 6, jitter=0.1))
    for i, e in enumerate(energies):
        ops.append(dcs_op(round(e, 3), (180, 360, 720)[i % 3]))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "bound-spectrum": bound_spectrum,
    "phase-sweep": phase_sweep,
    "cross-section": cross_section,
}


def generate(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)
