"""Regenerate the golden files in this directory from the ncwell it imports.

    PYTHONPATH=src python tests/data/make_golden.py          # rewrite every golden
    PYTHONPATH=src python tests/data/make_golden.py --check  # diff; exit 1 on change

The goldens pin outputs bit for bit: the CSV files and selftest.txt hold the
stdout bytes of CLI commands, kernel_golden.json holds float.hex of kernel
values.  Refresh them only on purpose, from the parent commit of a change
that is meant to keep its outputs, or after a change that moves output bits
under README's "Changing output bits".  For a CSV that differs, --check
prints how many rows changed and the largest relative change of each
numeric column; for kernel_golden.json, how many cases changed and, per
kernel family, the largest change and any sign flip; for selftest.txt, a
unified line diff.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import math
import pathlib
import sys
from collections import Counter

import numpy as np

from ncwell import core, oracle, specfun
from ncwell.cli import main
from ncwell.logscale import LogScaled

DATA = pathlib.Path(__file__).resolve().parent
WELL10 = ["--radius", "sqrt20", "--capital-n", "10", "--v", "6"]
WELL1000 = ["--radius", "sqrt20", "--capital-n", "1000", "--v", "10"]

# golden file -> CLI argv whose stdout it holds
CLI_GOLDENS = {
    "readme_bound_states_n10.csv": ["bound-states", *WELL10, "--m=-6..6"],
    # long Laguerre sweeps, U ratios at a = 1001 on both sides of the series seam, and lowered
    # sectors with odd and even k
    "bound_states_n1000.csv": [
        "bound-states", "--radius", "sqrt20", "--capital-n", "1000", "--v", "6", "--m=-2..2",
        "--grid-points", "300",
    ],
    # a deep well: scipy's K underflows to 0 below E ~ 7820, where the commutative scan
    # switches to the scaled kve and finds no level at a grid energy
    "bound_states_n10_v20000.csv": [
        "bound-states", "--radius", "sqrt20", "--capital-n", "10", "--v", "20000", "--m=0..1",
        "--grid-points", "300",
    ],
    "readme_phase_shifts_n1000_m4.csv": [
        "phase-shifts", *WELL1000, "--m", "4", "--emin", "10.05", "--emax", "35", "--esteps", "400",
    ],
    "readme_dcs_n1000_e15.csv": ["dcs", *WELL1000, "--energy", "15", "--phi-steps", "360"],
    "compare_cross_section_n1000.csv": [
        "compare", "--quantity", "cross-section", *WELL1000, "--emax", "30", "--esteps", "3",
    ],
    "cross_section_negative_m_n10.csv": [
        "cross-section", *WELL10, "--emax", "12", "--esteps", "2", "--include-negative-m",
    ],
    # rows N-3 = 7, N-3+1 = 8 come from the direct cut series (<= _DIRECT_N)
    "phase_shifts_n10_m-3.csv": ["phase-shifts", *WELL10, "--m=-3", "--emax", "30", "--esteps", "50"],
    # near V the exterior anchor rule clips to n - 1, so row n is the upper anchor itself
    "phase_shifts_n200_m16.csv": [
        "phase-shifts", "--radius", "sqrt20", "--capital-n", "200", "--v", "10", "--m", "16",
        "--emax", "25", "--esteps", "60",
    ],
    "compare_phase_shift_n1000.csv": [
        "compare", "--quantity", "phase-shift", *WELL1000, "--m", "3", "--emax", "30", "--esteps", "25",
    ],
    # 0 < E < V snaps to the nearest bound level of m = 1
    "readme_wavefunction_n10_e0.3.csv": ["wavefunction", *WELL10, "--m", "1", "--energy", "0.3"],
    "wavefunction_n10_e8.csv": ["wavefunction", *WELL10, "--m", "1", "--energy", "8.0"],
    # the free well: every partial wave has delta = 0
    "cross_section_free_n10.csv": [
        "cross-section", "--radius", "sqrt20", "--capital-n", "10", "--v", "0",
        "--emin", "0.5", "--emax", "30", "--esteps", "4",
    ],
    # every level of m = -2..3 is found by both solvers
    "compare_bound_states_n10.csv": ["compare", "--quantity", "bound-states", *WELL10, "--m=-2..3"],
    # every check of the library selftest, as the CLI prints it
    "selftest.txt": ["selftest"],
}

KERNEL_GOLDEN = "kernel_golden.json"
# kernel families whose values are [sign, float.hex(log magnitude)]
LOG_FAMILIES = {
    "re_u_neg", "core._reu_pair", "_u_pos_direct", "_reu_direct_mp", "_reu_direct", "_log_series_mp", "laguerre",
    "fock_element", "bound_solutions",
}


def cli_stdout(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"ncwell {' '.join(argv)} exited with {code}")
    return buf.getvalue().encode()


def _ls(v) -> list:
    """[sign, float.hex(log magnitude)] of a LogScaled value or a (sign, log magnitude) pair."""
    sign, logmag = (v.sign, v.logmag) if isinstance(v, LogScaled) else v
    return [sign, float.hex(logmag)]


def _rows(rows: dict) -> dict:
    return {str(j): [float.hex(mant), float.hex(scale)] for j, (mant, scale) in sorted(rows.items())}


def _cross_section(pt) -> dict:
    return {
        "sigma": float.hex(pt.sigma_total),
        "contributions": [[m, float.hex(c)] for m, c in pt.contributions],
    }


def kernel_values() -> dict:
    """{case: value} of every kernel case, floats as float.hex."""
    out = {}
    # cut values: direct series, the _DIRECT_N switch and the recurrence
    for n in (0, 63, 64, 65, 1000, 2000):
        for m, w in ((0, 0.3), (3, 2.5), (8, 9.0), (20, 0.05)):
            out[f"re_u_neg({n}, {m}, {w!r})"] = _ls(specfun.re_u_neg(n, m, w))
    # row pairs; (40, 5.0, 70) starts the pass at its anchor (n == n_anchor + 1)
    for m, w, n in ((0, 0.3, 5), (3, 2.5, 63), (3, 2.5, 64), (8, 9.0, 200), (40, 5.0, 70), (2, 0.01, 1000)):
        out[f"core._reu_pair({m}, {w!r}, {n})"] = [_ls(v) for v in core._reu_pair(m, w, n)]
    for m, w in ((0, 0.7), (4, 0.02), (3, 35.0), (0, -0.5), (6, -3.0), (2, -40.0)):
        targets = (0, 1, 2, 50, 999, 1000)
        out[f"_laguerre_sweep({m}, {w!r}, {targets})"] = _rows(specfun._laguerre_sweep(m, w, set(targets)))
    # three lanes of the lane runner: a target below every start row, a lane that joins late and
    # one at w far past 4n that renormalizes
    w3, j3 = np.array([0.7, 35.0, 3000.0]), np.array([2, 40, 5])
    rows3 = specfun._recurrence_rows_grid(
        3, w3, j3, np.array([1.0, -0.25, 0.5]), np.array([1.5, 2.0, -1e-3]), np.array([0.0, 7.5, -3.0]),
        (1, 3, 100, 1000, 1001),
    )
    out["_recurrence_rows_grid(3, 3 lanes)"] = {
        str(t): [[float.hex(v) for v in mant.tolist()], [float.hex(v) for v in scale.tolist()]]
        for t, (mant, scale) in sorted(rows3.items())
    }
    # U-ratio quadrature lanes from just past the series seam to (a+1-b)x = 4.7e5, the deep
    # golden well's largest, at a up to 100001, where the continued fraction it replaced raised
    for a in (1, 11, 1001, 10001, 100001):
        for b in (1, -5):
            x = np.array([1.01, 4.5, 100.0, 1e4, 4.7e5]) / (a + 2 - b)
            out[f"_u_quad({a}, {b}, 5 lanes)"] = [float.hex(v) for v in specfun._u_quad(a, b, x).tolist()]
    out["_u_cf(100001, 1, 4.5e-05)"] = float.hex(specfun._u_cf(100001, 1, 4.5e-5))
    # the U-ratio grid of the scan of the N = 1000, m = 0 well, V = 6: series lanes near V, and
    # quadrature lanes in several chunks
    spec_v6 = core.WellSpec.from_radius(20.0, 1000, 6.0)
    x300 = spec_v6.theta * (spec_v6.v - np.linspace(6e-9, 6.0 - 6e-9, 300))
    out["_u_ratio_1m_grid(1001, 0, 300 lanes)"] = [
        float.hex(v) for v in specfun._u_ratio_1m_grid(1001, 0, x300).tolist()
    ]
    # positive-axis series on both sides of (a+m+1)x = 4; x >= 10 escalates to mpmath,
    # in two passes for (20, 3, 12.0) and three for (60, 5, 10.0)
    for a, m, x in ((1, 0, 0.5), (5, 2, 0.5), (5, 2, 0.6), (1001, 0, 0.0039), (1001, 0, 0.0041),
                    (30, 9, 0.1), (1, 0, 10.0), (2, 3, 12.0), (20, 3, 12.0), (60, 5, 10.0)):
        out[f"_u_pos_direct({a}, {m}, {x!r})"] = _ls(specfun._u_pos_direct(a, m, x))
    # mpmath cut series at escalations of a README-well cross-section sweep:
    # n up to 1000, m up to 51, w = 0.08 .. 0.58, 27 .. 35 digits
    for n, m, w, dps in ((999, 46, 0.5842278860569715, 35), (1000, 51, 0.4842778610694653, 28),
                         (1000, 41, 0.31007496251874067, 27), (999, 49, 0.5842278860569715, 33),
                         (889, 43, 0.5842278860569715, 35), (984, 17, 0.08245877061469266, 27),
                         (125, 16, 0.5842278860569715, 27), (326, 26, 0.5842278860569715, 30),
                         (397, 17, 0.20507746126936532, 27), (557, 34, 0.5842278860569715, 32)):
        out[f"_reu_direct_mp({n}, {m}, {w!r}, {dps})"] = _ls(specfun._reu_direct_mp(n, m, w, dps))
    # the escalated log series itself: cut passes of the seed-7 phase-sweep and cross-section
    # workloads at the digits they start at; positive-axis passes from 30 digits that need
    # 2 to 4 passes; and a tail that dips by about e^-187 between its ends
    for a, m, z, dps in ((6, 1, -1.2512770645066273, 27), (5, 1, -1.5118597708394697, 28),
                         (19, 6, -0.7191347183979975, 27), (5, 0, -0.8823771713407607, 27),
                         (1000, 46, -0.5856171914042979, 35), (1001, 43, -0.48566716641679164, 33),
                         (493, 32, -0.5856171914042979, 31), (830, 23, -0.17928035982008997, 29),
                         (598, 19, -0.17041479260369816, 28), (604, 17, -0.13485257371314344, 27),
                         (928, 28, 6.306, 30), (300, 30, 20.0, 30), (20, 3, 12.0, 30), (60, 5, 10.0, 30),
                         (10, 900, 190.0, 30)):
        out[f"_log_series_mp({a}, {m}, {z!r}, {dps})"] = _ls(specfun._log_series_mp(a, m, z, dps, "golden"))
    # cut series: float kept, and float lost so mpmath takes over
    for n, m, w in ((3, 2, 0.4), (60, 0, 30.0), (20, 6, 25.0), (64, 8, 9.0), (40, 30, 12.0)):
        out[f"_reu_direct({n}, {m}, {w!r})"] = _ls(specfun._reu_direct(n, m, w))
    # U ratios on both sides of (a+m+1)x = 1: the series quotient at or below it, the quadrature above
    for a, m, x in ((5, 2, 0.125), (5, 2, 0.13), (1001, 0, 0.000998), (1001, 0, 0.001), (30, 9, 0.025), (3, 4, 0.125)):
        out[f"_u_ratio_1m({a}, {m}, {x!r})"] = float.hex(specfun._u_ratio_1m(a, m, x))
    # negative superscripts lowered from L^k_{n-k}, on both signs of w
    for n, m, w in ((10, -3, 2.5), (10, -3, -2.5), (10, -2, 0.7), (1000, -4, 0.7), (1000, -5, -3.0)):
        out[f"laguerre({n}, {m}, {w!r})"] = _ls(specfun.laguerre(n, m, w))
    # both branches of fock_element, with each coefficient zero in turn; n = 70 reaches Re U by recurrence
    coeffs = ((1.7, -0.3), (0.0, -0.3), (1.7, 0.0))
    for n, m, w in ((10, 3, 2.5), (70, 2, 0.4), (10, -2, 2.5), (10, 2, -0.8), (1000, 3, -0.05)):
        for a, b in coeffs:
            sol = core.RegionSolution(core.EXTERIOR, w, LogScaled.from_float(a), LogScaled.from_float(b))
            out[f"fock_element({n}, {m}, w={w!r}, a={a!r}, b={b!r})"] = _ls(core.fock_element(n, m, sol))
    spec10 = core.WellSpec.from_radius(20.0, 10, 6.0)
    spec1000 = core.WellSpec.from_radius(20.0, 1000, 10.0)
    # the interior coeff_a and the exterior coeff_b of a bound level's solutions
    for spec, e, m in ((spec10, 0.3, 1), (spec10, 2.0, 0), (spec10, 5.5, 4), (spec1000, 9.0, 3)):
        interior, exterior = core.bound_solutions(e, spec, m)
        out[f"bound_solutions(N={spec.cap_n}, {e!r}, {m})"] = [_ls(interior.coeff_a), _ls(exterior.coeff_b)]
    out["cross_section_total(N=10, 6.5)"] = _cross_section(core.cross_section_total(6.5, spec10, 4))
    out["cross_section_total(N=1000, 12.0)"] = _cross_section(core.cross_section_total(12.0, spec1000, 4))
    out["cross_section_total(N=10, 7.0, include_negative)"] = _cross_section(
        core.cross_section_total(7.0, spec10, 4, include_negative=True)
    )
    # here the -m terms decide where the tail rule stops
    out["cross_section_total(N=1000, 12.0, include_negative)"] = _cross_section(
        core.cross_section_total(12.0, spec1000, 2, include_negative=True)
    )
    phis = [2.0 * math.pi * i / 12 for i in range(12)]
    for spec, e in ((spec10, 7.0), (spec1000, 10.5)):
        out[f"cross_section_differential(N={spec.cap_n}, {e!r})"] = [
            [float.hex(p), float.hex(v)] for p, v in core.cross_section_differential(e, spec, 4, phis)
        ]
    comm = oracle.CommWellSpec(spec10.radius, spec10.v)
    for e in (6.5, 30.0):
        out[f"comm_cross_section({e!r})"] = _cross_section(oracle.comm_cross_section(e, comm, 4))
    return out


def kernel_json() -> bytes:
    return (json.dumps(kernel_values(), indent=1) + "\n").encode()


def generate() -> dict:
    files = {name: cli_stdout(argv) for name, argv in CLI_GOLDENS.items()}
    files[KERNEL_GOLDEN] = kernel_json()
    return files


def _cells(data: bytes) -> list:
    return [line.split(",") for line in data.decode().splitlines()]


def csv_changes(old: bytes, new: bytes) -> str:
    """How a CLI golden moved: rows changed and the largest relative change per numeric column."""
    old_rows, new_rows = _cells(old), _cells(new)
    if len(old_rows) != len(new_rows) or old_rows[0] != new_rows[0]:
        return f"layout changed: {len(old_rows) - 1} -> {len(new_rows) - 1} rows, header {new_rows[0]}"
    header = new_rows[0]
    worst = {}
    for a, b in zip(old_rows[1:], new_rows[1:]):
        for col, x, y in zip(header, a, b):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                if x != y:
                    worst[col] = "text"
                continue
            rel = 0.0 if fx == fy else abs(fy - fx) / abs(fx) if fx else math.inf
            if worst.get(col) != "text":
                worst[col] = max(worst.get(col, 0.0), rel)
    changed = sum(a != b for a, b in zip(old_rows[1:], new_rows[1:]))
    cols = ", ".join(f"{c} {v}" if v == "text" else f"{c} {v:.2e}" for c, v in worst.items())
    return f"{changed} of {len(new_rows) - 1} rows changed; largest relative change: {cols}"


def _leaves(value) -> list:
    """The leaves of a kernel value in order: ints (signs, labels) as they are, float.hex decoded."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [float.fromhex(value) if isinstance(value, str) else value]


def kernel_changes(old: bytes, new: bytes) -> str:
    """How kernel_golden.json moved: cases changed and, per family, the largest change and sign flips.

    A family is a case name up to its "(".  The change is in log magnitude
    for the LogScaled families and relative for every other float; a sign
    flip is a changed int (a LogScaled sign) or a plain float changing sign.
    """
    old_cases, new_cases = json.loads(old), json.loads(new)
    if sorted(old_cases) != sorted(new_cases):
        return f"cases changed: {len(old_cases)} -> {len(new_cases)}"
    cases, changed, flips, worst = Counter(), Counter(), Counter(), Counter()
    for case, was in old_cases.items():
        fam = case.split("(")[0]
        log = fam in LOG_FAMILIES
        cases[fam] += 1
        if was == new_cases[case]:
            continue
        changed[fam] += 1
        for x, y in zip(_leaves(was), _leaves(new_cases[case])):
            if isinstance(x, int):
                flips[fam] += x != y
            elif x != y:
                flips[fam] += not log and (x < 0) != (y < 0)
                worst[fam] = max(worst[fam], abs(y - x) if log else abs(y - x) / abs(x) if x else math.inf)
    parts = [
        f"{fam} {n} of {cases[fam]} ({'log magnitude' if fam in LOG_FAMILIES else 'relative'} {worst[fam]:.2e}"
        + (f", {flips[fam]} sign flips)" if flips[fam] else ")")
        for fam, n in changed.items()
    ]
    return f"{changed.total()} of {len(old_cases)} cases changed; largest change: {', '.join(parts)}"


def text_changes(name: str, old: bytes, new: bytes) -> str:
    """How a text golden moved: a unified line diff, committed file first."""
    lines = difflib.unified_diff(
        old.decode().splitlines(), new.decode().splitlines(), f"{name} (committed)", f"{name} (generated)",
        lineterm="",
    )
    return "\n".join(lines)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare against the committed files instead")
    args = ap.parse_args(argv)
    changed = 0
    for name, data in generate().items():
        path = DATA / name
        if not args.check:
            path.write_bytes(data)
            continue
        old = path.read_bytes() if path.exists() else None
        if old == data:
            continue
        changed += 1
        if old is None:
            how = ""
        elif name.endswith(".csv"):
            how = f": {csv_changes(old, data)}"
        elif name == KERNEL_GOLDEN:
            how = f": {kernel_changes(old, data)}"
        else:
            how = f"\n{text_changes(name, old, data)}"
        print(f"differs: {name}{how}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(run())
