"""Regenerate the golden files in this directory from the ncwell it imports.

    PYTHONPATH=src python tests/data/make_golden.py          # rewrite every golden
    PYTHONPATH=src python tests/data/make_golden.py --check  # diff; exit 1 on change

The goldens pin outputs bit for bit: the CSV files hold the stdout bytes of
CLI commands, kernel_golden.json holds float.hex of kernel values.  Refresh
them only on purpose, from the parent commit of a change that is meant to
keep its outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import pathlib
import sys
import warnings

from ncwell import core, oracle, specfun
from ncwell.cli import main

DATA = pathlib.Path(__file__).resolve().parent
WELL10 = ["--radius", "sqrt20", "--capital-n", "10", "--v", "6"]
WELL1000 = ["--radius", "sqrt20", "--capital-n", "1000", "--v", "10"]

# golden file -> CLI argv whose stdout it holds
CLI_GOLDENS = {
    "readme_bound_states_n10.csv": ["bound-states", *WELL10, "--m=-6..6"],
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
}

KERNEL_GOLDEN = "kernel_golden.json"


def cli_stdout(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"ncwell {' '.join(argv)} exited with {code}")
    return buf.getvalue().encode()


def _ls(v) -> list:
    return [v.sign, float.hex(v.logmag)]


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
    # positive-axis series on both sides of (a+m+1)x = 4; x >= 10 escalates to mpmath
    for a, m, x in ((1, 0, 0.5), (5, 2, 0.5), (5, 2, 0.6), (1001, 0, 0.0039), (1001, 0, 0.0041),
                    (30, 9, 0.1), (1, 0, 10.0), (2, 3, 12.0)):
        out[f"_u_pos_direct({a}, {m}, {x!r})"] = _ls(specfun._u_pos_direct(a, m, x))
    # cut series: float kept, and float lost so mpmath takes over
    for n, m, w in ((3, 2, 0.4), (60, 0, 30.0), (20, 6, 25.0), (64, 8, 9.0), (40, 30, 12.0)):
        out[f"_reu_direct({n}, {m}, {w!r})"] = _ls(specfun._reu_direct(n, m, w))
    spec10 = core.WellSpec.from_radius(20.0, 10, 6.0)
    spec1000 = core.WellSpec.from_radius(20.0, 1000, 10.0)
    out["cross_section_total(N=10, 6.5)"] = _cross_section(core.cross_section_total(6.5, spec10, 4))
    out["cross_section_total(N=1000, 12.0)"] = _cross_section(core.cross_section_total(12.0, spec1000, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the negative side stops at its cap m = N
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


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare against the committed files instead")
    args = ap.parse_args(argv)
    changed = []
    for name, data in generate().items():
        path = DATA / name
        if args.check:
            if not path.exists() or path.read_bytes() != data:
                changed.append(name)
        else:
            path.write_bytes(data)
    for name in changed:
        print(f"differs: {name}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(run())
