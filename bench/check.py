"""Correctness checks for the output of one op.

Two layers of checks:

* against stored reference outputs, for the seeds that have one
  (`reference/<workload>-seed<N>.json.gz`, computed by make_reference.py),
  with the per-column tolerances in TOLERANCES;
* reference-free invariants, for every seed: energy grids as requested,
  finite values, bound levels inside (0, V) and strictly ordered, phase
  shifts on the principal branch and consistent with tan(delta), the
  unwrapped phase continuous, wavefunction regions split at R.

partial_wave_checks() adds checks that call the library directly, outside
the timed region: unitarity 0 <= term <= 4 eps_m / k and additivity of the
partial-wave terms of sigma, and the angular integral of d(sigma)/d(phi)
against sigma.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# column -> (mode, tolerance).  rel: |a-b| <= tol |b|; abs: |a-b| <= tol;
# atan: |atan a - atan b| <= tol, for tan(delta) columns that blow up near
# poles; scaled: |a-b| <= tol * max |column| over the op's output.
# abs_deviation is derived from two checked columns and checked as an
# invariant instead.
TOLERANCES = {
    "m": ("exact", 0.0),
    "level": ("exact", 0.0),
    "region": ("exact", 0.0),
    "energy": ("rel", 1e-8),
    "energy_nc": ("rel", 1e-8),
    "energy_comm": ("rel", 1e-8),
    "k": ("rel", 1e-8),
    "sigma": ("rel", 1e-8),
    "delta_nc": ("abs", 1e-8),
    "delta_nc_unwrapped": ("abs", 1e-8),
    "tan_delta_nc": ("atan", 1e-8),
    "tan_delta_comm": ("atan", 1e-8),
    "abs_deviation": ("derived", 0.0),
    "phi": ("scaled", 1e-12),
    "dsigma_dphi": ("scaled", 1e-8),
    "r": ("scaled", 1e-12),
    "psi_re": ("scaled", 1e-8),
    "psi_im": ("scaled", 1e-8),
}

COLUMNS = {
    "bound-states": ["m", "level", "energy_nc", "energy_comm"],
    "phase-shifts": ["energy", "tan_delta_nc", "delta_nc", "delta_nc_unwrapped",
                     "tan_delta_comm", "abs_deviation"],
    "cross-section": ["energy", "k", "sigma"],
    "dcs": ["phi", "dsigma_dphi"],
    "wavefunction": ["r", "psi_re", "psi_im", "region"],
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def parse_table(text: str, kind: str) -> dict:
    """CSV output -> {column: list of values}; blank cells become None."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == COLUMNS[kind], f"unexpected header {rows[:1]}")
    cols = {name: [] for name in rows[0]}
    for row in rows[1:]:
        _require(len(row) == len(rows[0]), f"ragged row {row}")
        for name, cell in zip(rows[0], row):
            if cell == "":
                val = None
            elif name in ("m", "level"):
                val = int(cell)
            elif name == "region":
                val = cell
            else:
                val = float(cell)
            cols[name].append(val)
    return cols


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json.gz"


def load_reference(workload: str, seed: int):
    """{'argv': [...], 'outputs': [...]} or None when the seed has no reference."""
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def compare_reference(cols: dict, ref_cols: dict) -> None:
    _require(list(cols) == list(ref_cols), "columns differ from the reference")
    for name, ref in ref_cols.items():
        got = cols[name]
        _require(len(got) == len(ref), f"{name}: {len(got)} rows, reference has {len(ref)}")
        mode, tol = TOLERANCES[name]
        if mode == "derived":
            continue
        if mode == "scaled":
            tol *= max((abs(x) for x in ref if x is not None), default=0.0)
        for i, (a, b) in enumerate(zip(got, ref)):
            if a is None or b is None or mode == "exact":
                _require(a == b, f"{name}[{i}] = {a!r}, reference {b!r}")
                continue
            if mode == "rel":
                err, lim = abs(a - b), tol * abs(b)
            elif mode == "atan":
                err, lim = abs(math.atan(a) - math.atan(b)), tol
            else:
                err, lim = abs(a - b), tol
            _require(err <= lim, f"{name}[{i}] = {a!r}, reference {b!r} (tolerance {mode} {tol:g})")


# ---------------------------------------------------------------------------
# reference-free invariants
# ---------------------------------------------------------------------------

def _finite(values, name):
    for i, x in enumerate(values):
        _require(x is not None and math.isfinite(x), f"{name}[{i}] = {x!r} is not finite")


def _same_grid(got, want, name):
    _require(len(got) == len(want), f"{name}: {len(got)} points, asked for {len(want)}")
    for a, b in zip(got, want):
        _require(abs(a - b) <= 1e-12 * max(1.0, abs(b)), f"{name} {a!r} is not the grid point {b!r}")


def _levels(energies, v, what):
    present = [e for e in energies if e is not None]
    _require(energies[: len(present)] == present, f"{what}: blank level before a found one")
    _finite(present, what)
    _require(all(0.0 < e < v for e in present), f"{what}: level outside (0, V)")
    _require(all(a < b for a, b in zip(present, present[1:])), f"{what}: levels not increasing")


def _bound_invariants(op, c):
    seen = []
    for m, level in zip(c["m"], c["level"]):
        if not seen or seen[-1][0] != m:
            _require(level == 0, f"m={m} starts at level {level}")
            seen.append((m, []))
        else:
            _require(level == len(seen[-1][1]), f"m={m}: level {level} out of sequence")
        seen[-1][1].append(level)
    ms = [m for m, _ in seen]
    _require(all(m in op.m for m in ms) and ms == sorted(ms, key=op.m.index),
             f"sectors {ms} are not the requested {list(op.m)}")
    for m, _ in seen:
        rows = [i for i, mm in enumerate(c["m"]) if mm == m]
        _levels([c["energy_nc"][i] for i in rows], op.v, f"m={m} energy_nc")
        _levels([c["energy_comm"][i] for i in rows], op.v, f"m={m} energy_comm")


def _phase_invariants(op, c):
    _same_grid(c["energy"], op.energies, "energy")
    _finite(c["delta_nc"], "delta_nc")
    _finite(c["delta_nc_unwrapped"], "delta_nc_unwrapped")
    prev = None
    for i, (t, d, u, tc, dev) in enumerate(zip(c["tan_delta_nc"], c["delta_nc"],
                                               c["delta_nc_unwrapped"], c["tan_delta_comm"],
                                               c["abs_deviation"])):
        _require(-math.pi / 2 < d <= math.pi / 2, f"delta_nc[{i}] = {d!r} off the principal branch")
        if math.isfinite(t):
            _require(abs(math.atan(t) - d) <= 1e-12, f"delta_nc[{i}] != atan(tan_delta_nc)")
        turns = (u - d) / math.pi
        _require(abs(turns - round(turns)) <= 1e-9, f"unwrapped[{i}] - delta is not a multiple of pi")
        if prev is not None:
            _require(abs(u - prev) <= math.pi / 2 + 1e-12, f"unwrapped phase jumps at row {i}")
        prev = u
        _require(not math.isnan(tc), f"tan_delta_comm[{i}] is NaN")
        want = abs(t - tc)
        _require(dev == want or abs(dev - want) <= 1e-12 * want, f"abs_deviation[{i}] != |nc - comm|")


def _cross_invariants(op, c):
    _same_grid(c["energy"], op.energies, "energy")
    for e, k, s in zip(c["energy"], c["k"], c["sigma"]):
        _require(abs(k - math.sqrt(2.0 * (e - op.v))) <= 1e-14 * k, f"k at E={e} != sqrt(2(E-V))")
        _require(math.isfinite(s) and s > 0.0, f"sigma at E={e} = {s!r}")


def _dcs_invariants(op, c):
    n = op.steps
    _same_grid(c["phi"], [2.0 * math.pi * i / n for i in range(n)], "phi")
    vals = c["dsigma_dphi"]
    _finite(vals, "dsigma_dphi")
    _require(all(x >= 0.0 for x in vals), "negative d(sigma)/d(phi)")
    # only cos(m phi) enters f(phi): the pattern is mirror-symmetric
    tol = 1e-9 * max(vals)
    for i in range(1, n):
        _require(abs(vals[i] - vals[n - i]) <= tol, f"d(sigma)/d(phi) not symmetric at row {i}")


def _wavefunction_invariants(op, c):
    radius = math.sqrt(op.r2)
    n = op.steps
    _same_grid(c["r"], [2.0 * radius * i / (n - 1) for i in range(n)], "r")
    _finite(c["psi_re"], "psi_re")
    _finite(c["psi_im"], "psi_im")
    for r, region in zip(c["r"], c["region"]):
        _require(region == ("interior" if r <= radius else "exterior"), f"region at r={r} is {region}")


INVARIANTS = {
    "bound-states": _bound_invariants,
    "phase-shifts": _phase_invariants,
    "cross-section": _cross_invariants,
    "dcs": _dcs_invariants,
    "wavefunction": _wavefunction_invariants,
}


def check_output(op, text: str, ref_text: str | None) -> None:
    """Raise CheckFailed when the output of op is wrong."""
    cols = parse_table(text, op.kind)
    INVARIANTS[op.kind](op, cols)
    if ref_text is not None:
        compare_reference(cols, parse_table(ref_text, op.kind))


# ---------------------------------------------------------------------------
# direct library checks (run once per run, untimed)
# ---------------------------------------------------------------------------

# ops whose lowest energy is below this are cheap enough to re-solve directly
PW_CHECK_EMAX = 16.0


def partial_wave_checks(op, text: str) -> None:
    """Unitarity and additivity of sigma's terms; angular integral of dcs = sigma."""
    from ncwell import core

    spec = core.WellSpec.from_radius(op.r2, op.cap_n, op.v)
    cols = parse_table(text, op.kind)
    if op.kind == "cross-section":
        e, sigma = cols["energy"][0], cols["sigma"][0]
    else:
        e = op.energy
        sigma = sum(cols["dsigma_dphi"]) * 2.0 * math.pi / op.steps
    pt = core.cross_section_total(e, spec, 8)
    for m, term in pt.contributions:
        eps = 1.0 if m == 0 else 2.0
        _require(-1e-15 <= term <= 4.0 * eps / pt.k * (1.0 + 1e-12), f"unitarity broken at m={m}")
    total = math.fsum(t for _, t in pt.contributions)
    _require(abs(total - pt.sigma_total) <= 1e-12 * total, "partial-wave terms do not add up to sigma")
    what = "CLI sigma" if op.kind == "cross-section" else "angular integral of dcs"
    _require(abs(sigma - pt.sigma_total) <= 1e-9 * pt.sigma_total,
             f"{what} {sigma!r} != sigma {pt.sigma_total!r} at E={e}")


def wants_partial_wave_check(op) -> bool:
    if op.kind == "cross-section":
        return op.energies[0] <= PW_CHECK_EMAX
    return op.kind == "dcs" and op.energy <= PW_CHECK_EMAX
