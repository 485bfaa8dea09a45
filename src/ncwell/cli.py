"""Command-line front end emitting CSV/JSON tables.

Subcommands: bound-states, phase-shifts, cross-section, dcs, wavefunction,
compare, selftest.  The well is specified by exactly two of
--theta / --capital-n / --radius plus --v; radii accept sqrt literals such
as "sqrt20" so quantized setups are expressible exactly.  Numeric output is
17-significant-digit round-trippable and byte-identical across runs; rows
are emitted in sweep order.

Exit status: 0 success, 1 domain error, 2 numerical non-convergence,
64 usage error, 74 an --output path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

from . import core, oracle
from .errors import ConvergenceError, DomainError

USAGE_EXIT = 64
DOMAIN_EXIT = 1
CONVERGENCE_EXIT = 2
IO_EXIT = 74  # EX_IOERR, from sysexits as USAGE_EXIT is

_SQRT_RE = re.compile(r"^sqrt\(?([0-9eE.+-]+)\)?$")


class _WriteError(Exception):
    """An --output path that cannot be written, as "<path>: <reason>"."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_radius_sq(text: str) -> float:
    mt = _SQRT_RE.match(text.strip())
    try:
        val = float(mt.group(1) if mt else text)
    except ValueError:
        raise DomainError(f"--radius must be a number or a sqrt literal like sqrt20, got {text!r}") from None
    if mt:
        if not (val > 0.0):
            raise DomainError(f"radius^2 must be positive, got sqrt of {val}")
    elif not (val > 0.0):
        raise DomainError(f"radius must be positive, got {val}")
    radius_sq = val if mt else val * val
    if not math.isfinite(radius_sq):
        raise DomainError(f"--radius must give a finite radius^2, got {text!r}")
    return radius_sq


def _parse_m_list(text: str) -> list[int]:
    text = text.strip()
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise DomainError(f"--m must be an integer or a range lo..hi, got {text!r}") from None
    if hi < lo:
        raise DomainError(f"empty m range {text!r}")
    return list(range(lo, hi + 1))


def _single_m(args, message: str) -> int:
    """The one m of --m; message is the error for a range."""
    m_list = _parse_m_list(args.m)
    if len(m_list) != 1:
        raise DomainError(message)
    return m_list[0]


def _m_max(args) -> int:
    """--mmax, checked here so that its error names the flag."""
    if args.mmax < 1:
        raise DomainError(f"--mmax must be a positive integer, got {args.mmax}")
    return args.mmax


def _grid_points(args) -> int:
    """--grid-points, checked here so that its error names the flag and the value given."""
    if args.grid_points < 2:
        raise DomainError(f"--grid-points must be >= 2, got {args.grid_points}")
    return args.grid_points


def _well_from_args(args) -> core.WellSpec:
    given = [
        name
        for name, val in (
            ("theta", args.theta),
            ("capital-n", args.capital_n),
            ("radius", args.radius),
        )
        if val is not None
    ]
    if len(given) != 2:
        raise DomainError(
            "exactly two of --theta / --capital-n / --radius must be given, "
            f"got {given or 'none'}"
        )
    if args.v is None:
        raise DomainError("--v is required")
    v = float(args.v)
    if args.theta is not None and args.capital_n is not None:
        return core.WellSpec(float(args.theta), int(args.capital_n), v)
    if args.radius is not None and args.capital_n is not None:
        return core.WellSpec.from_radius(_parse_radius_sq(args.radius), int(args.capital_n), v)
    return core.WellSpec.from_theta_radius(
        float(args.theta), _parse_radius_sq(args.radius), v
    )


def _energy_grid(args, spec: core.WellSpec) -> list[float]:
    if args.emax is None:
        raise DomainError("--emax is required")
    for flag, val in (("--emin", args.emin), ("--emax", args.emax)):
        if val is not None and not math.isfinite(val):
            raise DomainError(f"{flag} must be finite, got {val}")
    if args.esteps < 2:
        raise DomainError(f"--esteps must be >= 2, got {args.esteps}")
    if args.emin is None and not (math.isfinite(args.e_offset) and spec.v + args.e_offset > spec.v):
        raise DomainError(f"--e-offset must be finite and > 0 (V + offset > V={spec.v}), got {args.e_offset}")
    e_min = args.emin if args.emin is not None else spec.v + args.e_offset
    e_max = args.emax
    if e_min <= spec.v:
        raise DomainError(f"--emin must be strictly above V={spec.v}, got {e_min} (omit it for V + --e-offset)")
    if not (e_min < e_max):
        raise DomainError(f"need emin < emax, got {e_min} >= {e_max}")
    n = args.esteps
    return [e_min + (e_max - e_min) * i / (n - 1) for i in range(n)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.17g}"


class _FieldSpecs(dict):
    """The % conversion that writes a value of each type as _fmt does: "" for None, str() for int and str."""

    def __missing__(self, kind):
        spec = self[kind] = "%s" if issubclass(kind, (int, str)) else "%.17g"
        return spec


_FIELD_SPECS = _FieldSpecs({type(None): "%.0s"})


def _csv_text(columns: list[str], rows: list[list]) -> str:
    """The table as CSV with CRLF line ends, byte for byte what csv.writer writes of _fmt's fields.

    No field needs quoting (numbers, level indices and region names) and
    every table has two or more columns, so no field is quoted.  The rows
    are one % template, a conversion per value picked by its type, applied
    once to all the values.
    """
    values = tuple(itertools.chain.from_iterable(rows))
    specs = map(_FIELD_SPECS.__getitem__, map(type, values))
    lines = map(",".join, zip(*[specs] * len(columns)))
    return ",".join(columns) + "\r\n" + "\r\n".join(itertools.chain(lines, [""])) % values


def _write_rows(columns: list[str], rows: list[list], output: str, fmt: str) -> None:
    if fmt == "csv":
        text = _csv_text(columns, rows)
    else:
        # strict JSON has no inf or nan: a non-finite float is written as the CSV's text
        objs = [
            {c: _fmt(x) if isinstance(x, float) and not math.isfinite(x) else x for c, x in zip(columns, row)}
            for row in rows
        ]
        text = json.dumps(objs, indent=2, allow_nan=False) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _WriteError(f"{output}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _level_rows(spec: core.WellSpec, m_list: list[int], grid_points: int) -> list[list]:
    """[m, level, E_nc, E_comm] per level; a level only one solver finds leaves the other empty."""
    comm = oracle.CommWellSpec(spec.radius, spec.v)
    # each solver scans every sector at once; zip reads them sector by sector, the noncommutative
    # levels first, so errors and warnings come as from a loop over the sectors
    sectors = zip(m_list, core._bound_sectors(spec, m_list, grid_points),
                  oracle._comm_sectors(comm, m_list, grid_points))
    rows = []
    for m, nc, cm in sectors:
        for level, (a, b) in enumerate(itertools.zip_longest(nc, cm)):
            rows.append([m, level, a.energy if a else None, b.energy if b else None])
    return rows


def _phase_pairs(spec: core.WellSpec, m: int, energies: list[float]) -> list[tuple]:
    """(nc point, comm point) per energy."""
    comm = oracle.CommWellSpec(spec.radius, spec.v)
    pts = core.phase_shift_sweep(energies, spec, m)
    cms = oracle.comm_phase_shifts(energies, comm, m)
    return list(zip(pts, cms))


def _with_deviations(rows: list[list]) -> list[list]:
    """Extend rows ending in [nc, comm] by |nc - comm| and |nc - comm| / |comm|.

    Both stay empty when either value is missing, and both are 0 when the
    values are equal.
    """
    for row in rows:
        a, b = row[-2:]
        if a is None or b is None:
            row += [None, None]
        elif a == b:
            row += [0.0, 0.0]
        else:
            dev = abs(a - b)
            row += [dev, dev / abs(b) if b != 0.0 else math.inf]
    return rows


def _cmd_bound_states(args) -> int:
    rows = _level_rows(_well_from_args(args), _parse_m_list(args.m), _grid_points(args))
    _write_rows(["m", "level", "energy_nc", "energy_comm"], rows, args.output, args.format)
    return 0


def _cmd_phase_shifts(args) -> int:
    spec = _well_from_args(args)
    m = _single_m(args, "phase-shifts takes a single m, not a range")
    rows = [
        [p.energy, p.tan_delta, p.delta, p.delta_unwrapped, c.tan_delta, abs(p.tan_delta - c.tan_delta)]
        for p, c in _phase_pairs(spec, m, _energy_grid(args, spec))
    ]
    _write_rows(
        ["energy", "tan_delta_nc", "delta_nc", "delta_nc_unwrapped", "tan_delta_comm", "abs_deviation"],
        rows,
        args.output,
        args.format,
    )
    return 0


def _cmd_cross_section(args) -> int:
    spec = _well_from_args(args)
    m_max = _m_max(args)
    pts = [
        core.cross_section_total(e, spec, m_max, include_negative=args.include_negative_m)
        for e in _energy_grid(args, spec)
    ]
    rows = [[p.energy, p.k, p.sigma_total] for p in pts]
    _write_rows(["energy", "k", "sigma"], rows, args.output, args.format)
    return 0


def _cmd_dcs(args) -> int:
    spec = _well_from_args(args)
    m_max = _m_max(args)
    if args.energy is None:
        raise DomainError("--energy is required for dcs")
    n = args.phi_steps
    if n < 2:
        raise DomainError(f"--phi-steps must be >= 2, got {n}")
    phis = [2.0 * math.pi * i / n for i in range(n)]
    pts = core.cross_section_differential(args.energy, spec, m_max, phis)
    rows = [[phi, val] for (phi, val) in pts]
    _write_rows(["phi", "dsigma_dphi"], rows, args.output, args.format)
    return 0


def _cmd_wavefunction(args) -> int:
    spec = _well_from_args(args)
    m = _single_m(args, "wavefunction takes a single m, not a range")
    energy = args.energy
    if energy is None:
        raise DomainError("--energy is required for wavefunction")
    r_max = args.rmax if args.rmax is not None else 2.0 * spec.radius
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise DomainError(f"--rmax must be positive and finite, got {r_max}")
    n = args.points
    if n < 2:
        raise DomainError(f"--points must be >= 2, got {n}")
    if not math.isfinite(r_max * (n - 1)):
        raise DomainError(f"--rmax times (--points - 1) must be finite, got --rmax {r_max}, --points {n}")
    if energy > spec.v:
        interior, exterior = core.scattering_coeffs(energy, spec, m)
    elif 0.0 < energy < spec.v:
        if m < 0:
            raise DomainError("bound wavefunction output supports m >= 0")
        states = core.find_bound_states(spec, m)
        if not states:
            raise DomainError(f"no bound state exists for m={m}")
        energy = min(states, key=lambda b: abs(b.energy - args.energy)).energy
        interior, exterior = core.bound_solutions(energy, spec, m)
    else:
        raise DomainError(f"energy must lie in (0, V) or above V, got {energy}")
    # radial cut at phi = 0: z = r, coherent-state radius r = rho / sqrt(2 theta); rho grows
    # with i, so the first k points lie in the interior and the rest in the exterior
    rhos = [r_max * i / (n - 1) for i in range(n)]
    k = sum(rho <= spec.radius for rho in rhos)
    rows = []
    for sol, part in ((interior, rhos[:k]), (exterior, rhos[k:])):
        if part:
            vals = core.wavefunction_eval(sol, m, [(rho / math.sqrt(2.0 * spec.theta), 0.0) for rho in part])
            rows += [[rho, val.real, val.imag, sol.region] for rho, val in zip(part, vals)]
    _write_rows(["r", "psi_re", "psi_im", "region"], rows, args.output, args.format)
    return 0


def _cmd_compare(args) -> int:
    spec = _well_from_args(args)
    if args.quantity == "phase-shift":
        m = _single_m(args, "compare --quantity phase-shift takes a single m")
        pairs = _phase_pairs(spec, m, _energy_grid(args, spec))
        columns = ["energy", "tan_delta_nc", "tan_delta_comm"]
        rows = [[p.energy, p.tan_delta, c.tan_delta] for p, c in pairs]
    elif args.quantity == "cross-section":
        m_max = _m_max(args)
        energies = _energy_grid(args, spec)
        comm = oracle.CommWellSpec(spec.radius, spec.v)
        # every NC value before any commutative one: the NC sum's warnings and errors come first
        nc = [core.cross_section_total(e, spec, m_max).sigma_total for e in energies]
        cm = [oracle.comm_cross_section(e, comm, m_max).sigma_total for e in energies]
        columns = ["energy", "sigma_nc", "sigma_comm"]
        rows = [list(row) for row in zip(energies, nc, cm)]
    else:  # bound-states
        columns = ["m", "level", "energy_nc", "energy_comm"]
        rows = _level_rows(spec, _parse_m_list(args.m), core.GRID_POINTS)
    columns += ["abs_deviation", "rel_deviation"]
    _write_rows(columns, _with_deviations(rows), args.output, args.format)
    return 0


def _cmd_selftest(args) -> int:
    checks = core.selftest()
    n_pass = sum(1 for c in checks if c.passed)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    print(f"{n_pass} passed, {len(checks) - n_pass} failed")
    return 0 if n_pass == len(checks) else CONVERGENCE_EXIT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_well_args(p: _Parser) -> None:
    p.add_argument("--theta", type=float, default=None, help="noncommutativity parameter")
    p.add_argument("--capital-n", type=int, default=None, help="boundary Fock index N")
    p.add_argument(
        "--radius", type=str, default=None, help="well radius; accepts sqrt literals like sqrt20"
    )
    p.add_argument("--v", type=float, default=None, help="exterior potential level")
    p.add_argument("--output", "-o", type=str, default="-", help="output path, '-' for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_energy_args(p: _Parser) -> None:
    p.add_argument("--emin", type=float, default=None, help="sweep start (default V + offset)")
    p.add_argument("--emax", type=float, default=None, help="sweep end")
    p.add_argument("--esteps", type=int, default=400, help="number of sweep points")
    p.add_argument(
        "--e-offset",
        type=float,
        default=0.05,
        help="offset above V used when --emin is omitted (E = V is a domain boundary)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="ncwell", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound-states", help="bound levels of the well and the commutative reference")
    _add_well_args(p)
    p.add_argument("--m", type=str, required=True, help="angular momentum, int or range like -6..6")
    p.add_argument("--grid-points", type=int, default=core.GRID_POINTS, help="energy scan density")
    p.set_defaults(func=_cmd_bound_states)

    p = sub.add_parser("phase-shifts", help="tan(delta_m) sweep, with the commutative reference")
    _add_well_args(p)
    _add_energy_args(p)
    p.add_argument("--m", type=str, required=True, help="angular momentum (single value)")
    p.set_defaults(func=_cmd_phase_shifts)

    p = sub.add_parser("cross-section", help="total cross section sweep")
    _add_well_args(p)
    _add_energy_args(p)
    p.add_argument("--mmax", type=int, default=8, help="minimum partial-wave count")
    p.add_argument(
        "--include-negative-m",
        action="store_true",
        help="exploratory variant summing each sector m and -m separately (negative side capped at N)",
    )
    p.set_defaults(func=_cmd_cross_section)

    p = sub.add_parser("dcs", help="differential cross section over the scattering angle")
    _add_well_args(p)
    p.add_argument("--energy", type=float, default=None, help="scattering energy (> V)")
    p.add_argument("--mmax", type=int, default=8, help="minimum partial-wave count")
    p.add_argument("--phi-steps", type=int, default=360, help="angular grid size")
    p.set_defaults(func=_cmd_dcs)

    p = sub.add_parser("wavefunction", help="radial wavefunction cut at phi = 0")
    _add_well_args(p)
    p.add_argument("--m", type=str, required=True, help="angular momentum (single value)")
    p.add_argument("--energy", type=float, default=None, help="E > V scatters; 0 < E < V picks the nearest bound level")
    p.add_argument("--rmax", type=float, default=None, help="radial extent (default 2R)")
    p.add_argument("--points", type=int, default=200, help="radial grid size")
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("compare", help="paired nc/comm table with deviations")
    _add_well_args(p)
    _add_energy_args(p)
    p.add_argument(
        "--quantity",
        choices=("phase-shift", "cross-section", "bound-states"),
        default="phase-shift",
    )
    p.add_argument("--m", type=str, default="0", help="angular momentum (int or range)")
    p.add_argument("--mmax", type=int, default=8, help="minimum partial-wave count")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("selftest", help="run the oracle-equivalence and invariant suites")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _main_parser() -> _Parser:
    """The parser main() uses: built once per process, since parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"ncwell: domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except ConvergenceError as exc:
        print(f"ncwell: numerical non-convergence: {exc}", file=sys.stderr)
        return CONVERGENCE_EXIT
    except _WriteError as exc:
        print(f"ncwell: cannot write {exc}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
