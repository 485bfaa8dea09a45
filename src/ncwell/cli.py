"""Command-line front end emitting CSV/JSON tables.

Subcommands: bound-states, phase-shifts, cross-section, dcs, wavefunction,
compare, selftest.  The well is specified by exactly two of
--theta / --capital-n / --radius plus --v; radii accept sqrt literals such
as "sqrt20" so quantized setups are expressible exactly.  Numeric output is
17-significant-digit round-trippable and byte-identical across runs; rows
are emitted in sweep order.

Exit status: 0 success, 1 domain error, 2 numerical non-convergence,
64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

from . import core, oracle, specfun
from .errors import ConvergenceError, DomainError

USAGE_EXIT = 64
DOMAIN_EXIT = 1
CONVERGENCE_EXIT = 2

_SQRT_RE = re.compile(r"^sqrt\(?([0-9eE.+-]+)\)?$")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one table-producing run.

    Invariants enforced by from_args: exactly two of theta/capital-n/radius
    fix the well, energy sweeps satisfy V < emin < emax with esteps >= 2,
    and m ranges are nonempty.
    """

    command: str
    spec: core.WellSpec
    m_list: list | None
    energies: list | None
    m_max: int | None
    output: str
    fmt: str

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        spec = _well_from_args(args)
        m_raw = getattr(args, "m", None)
        m_list = _parse_m_list(m_raw) if m_raw is not None else None
        energies = _energy_grid(args, spec) if getattr(args, "emax", None) is not None else None
        return cls(
            command=args.command,
            spec=spec,
            m_list=m_list,
            energies=energies,
            m_max=getattr(args, "mmax", None),
            output=args.output,
            fmt=args.format,
        )


def _parse_radius_sq(text: str) -> float:
    mt = _SQRT_RE.match(text.strip())
    if mt:
        val = float(mt.group(1))
        if not (val > 0.0):
            raise DomainError(f"radius^2 must be positive, got sqrt of {val}")
        return val
    r = float(text)
    if not (r > 0.0):
        raise DomainError(f"radius must be positive, got {r}")
    return r * r


def _parse_m_list(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise DomainError(f"empty m range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


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
    if args.esteps < 2:
        raise DomainError(f"--esteps must be >= 2, got {args.esteps}")
    e_min = args.emin if args.emin is not None else spec.v + args.e_offset
    e_max = args.emax
    if e_min <= spec.v:
        raise DomainError(
            f"energy sweep must start strictly above V={spec.v}; got emin={e_min} "
            "(omit --emin to use V + offset)"
        )
    if not (e_min < e_max):
        raise DomainError(f"need emin < emax, got {e_min} >= {e_max}")
    n = args.esteps
    return [e_min + (e_max - e_min) * i / (n - 1) for i in range(n)]


def _sweep_energies(cfg: RunConfig) -> list[float]:
    if cfg.energies is None:
        raise DomainError("--emax is required")
    return cfg.energies


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.17g}"


def _write_rows(columns: list[str], rows: list[list], output: str, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        text = buf.getvalue()
    else:
        objs = [dict(zip(columns, row)) for row in rows]
        text = json.dumps(objs, indent=2) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_bound_states(args) -> int:
    cfg = RunConfig.from_args(args)
    spec = cfg.spec
    comm = oracle.CommWellSpec(spec.radius, spec.v)
    rows = []
    for m in cfg.m_list:
        nc = core.find_bound_states(spec, m, grid_points=args.grid_points)
        cm = oracle.comm_bound_states(comm, m)
        # a level only one solver finds leaves the other column empty
        for level, (a, b) in enumerate(itertools.zip_longest(nc, cm)):
            rows.append([m, level, a.energy if a else None, b.energy if b else None])
    _write_rows(["m", "level", "energy_nc", "energy_comm"], rows, cfg.output, cfg.fmt)
    return 0


def _cmd_phase_shifts(args) -> int:
    cfg = RunConfig.from_args(args)
    spec = cfg.spec
    if len(cfg.m_list) != 1:
        raise DomainError("phase-shifts takes a single m, not a range")
    m = cfg.m_list[0]
    energies = _sweep_energies(cfg)
    comm = oracle.CommWellSpec(spec.radius, spec.v)
    pts = core.phase_shift_sweep(energies, spec, m)
    cms = [oracle.comm_phase_shift(e, comm, m) for e in energies]
    rows = [
        [
            p.energy,
            p.tan_delta,
            p.delta,
            p.delta_unwrapped,
            c.tan_delta,
            abs(p.tan_delta - c.tan_delta),
        ]
        for p, c in zip(pts, cms)
    ]
    _write_rows(
        ["energy", "tan_delta_nc", "delta_nc", "delta_nc_unwrapped", "tan_delta_comm", "abs_deviation"],
        rows,
        cfg.output,
        cfg.fmt,
    )
    return 0


def _cmd_cross_section(args) -> int:
    cfg = RunConfig.from_args(args)
    spec = cfg.spec
    energies = _sweep_energies(cfg)
    if spec.v == 0.0:
        rows = [[e, math.sqrt(2.0 * e), 0.0] for e in energies]
    else:
        pts = [
            core.cross_section_total(e, spec, cfg.m_max, include_negative=args.include_negative_m)
            for e in energies
        ]
        rows = [[p.energy, p.k, p.sigma_total] for p in pts]
    _write_rows(["energy", "k", "sigma"], rows, cfg.output, cfg.fmt)
    return 0


def _cmd_dcs(args) -> int:
    cfg = RunConfig.from_args(args)
    if args.energy is None:
        raise DomainError("--energy is required for dcs")
    n = args.phi_steps
    if n < 2:
        raise DomainError(f"--phi-steps must be >= 2, got {n}")
    phis = [2.0 * math.pi * i / n for i in range(n)]
    pts = core.cross_section_differential(args.energy, cfg.spec, cfg.m_max, phis)
    rows = [[phi, val] for (phi, val) in pts]
    _write_rows(["phi", "dsigma_dphi"], rows, cfg.output, cfg.fmt)
    return 0


def _cmd_wavefunction(args) -> int:
    cfg = RunConfig.from_args(args)
    spec = cfg.spec
    if len(cfg.m_list) != 1:
        raise DomainError("wavefunction takes a single m, not a range")
    m = cfg.m_list[0]
    energy = args.energy
    if energy is None:
        raise DomainError("--energy is required for wavefunction")
    r_max = args.rmax if args.rmax is not None else 2.0 * spec.radius
    n = args.points
    if n < 2:
        raise DomainError(f"--points must be >= 2, got {n}")
    radius = spec.radius
    theta = spec.theta
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
    k_in = math.sqrt(2.0 * energy)
    k_out = math.sqrt(2.0 * abs(energy - spec.v))
    # radial cut at phi = 0: z = r, coherent-state radius r = rho / sqrt(2 theta)
    rows = []
    for i in range(n):
        rho = r_max * i / (n - 1)
        r_coh = rho / math.sqrt(2.0 * theta)
        if rho <= radius:
            sol, k = interior, k_in
            region = "interior"
        else:
            sol, k = exterior, k_out
            region = "exterior"
        val = core.wavefunction_eval(sol, m, k, [(r_coh, 0.0)])[0]
        rows.append([rho, val.real, val.imag, region])
    _write_rows(["r", "psi_re", "psi_im", "region"], rows, cfg.output, cfg.fmt)
    return 0


def _deviation_rows(energies, nc, cm) -> list[list]:
    """[E, nc, comm, |nc - comm|, |nc - comm| / |comm|] per energy."""
    rows = []
    for e, a, b in zip(energies, nc, cm):
        dev = abs(a - b)
        rows.append([e, a, b, dev, dev / abs(b) if b != 0.0 else math.inf])
    return rows


def _cmd_compare(args) -> int:
    cfg = RunConfig.from_args(args)
    spec = cfg.spec
    comm = oracle.CommWellSpec(spec.radius, spec.v)
    if args.quantity == "phase-shift":
        if len(cfg.m_list) != 1:
            raise DomainError("compare --quantity phase-shift takes a single m")
        m = cfg.m_list[0]
        energies = _sweep_energies(cfg)
        nc = [core.phase_shift(e, spec, m).tan_delta for e in energies]
        cm = [oracle.comm_phase_shift(e, comm, m).tan_delta for e in energies]
        _write_rows(
            ["energy", "tan_delta_nc", "tan_delta_comm", "abs_deviation", "rel_deviation"],
            _deviation_rows(energies, nc, cm),
            cfg.output,
            cfg.fmt,
        )
    elif args.quantity == "cross-section":
        energies = _sweep_energies(cfg)
        nc = [core.cross_section_total(e, spec, cfg.m_max).sigma_total for e in energies]
        cm = [oracle.comm_cross_section(e, comm, cfg.m_max).sigma_total for e in energies]
        _write_rows(
            ["energy", "sigma_nc", "sigma_comm", "abs_deviation", "rel_deviation"],
            _deviation_rows(energies, nc, cm),
            cfg.output,
            cfg.fmt,
        )
    else:  # bound-states
        rows = []
        for m in cfg.m_list:
            nc = core.find_bound_states(spec, m)
            cm = oracle.comm_bound_states(comm, m)
            for level, (a, b) in enumerate(zip([s.energy for s in nc], [s.energy for s in cm])):
                rows.append([m, level, a, b, abs(a - b), abs(a - b) / abs(b)])
        _write_rows(
            ["m", "level", "energy_nc", "energy_comm", "abs_deviation", "rel_deviation"],
            rows,
            cfg.output,
            cfg.fmt,
        )
    return 0


def _cmd_selftest(args) -> int:
    checks = list(specfun.selftest(fast=not args.full))
    checks.extend(_core_invariant_checks())
    n_pass = sum(1 for c in checks if c.passed)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    print(f"{n_pass} passed, {len(checks) - n_pass} failed")
    return 0 if n_pass == len(checks) else CONVERGENCE_EXIT


def _core_invariant_checks():
    from .specfun import CheckResult

    out = []
    spec10 = core.WellSpec.from_radius(20.0, 10, 6.0)
    spec1000 = core.WellSpec.from_radius(20.0, 1000, 10.0)
    ok = spec10.theta == 20.0 / 21.0 and spec1000.theta == 20.0 / 2001.0
    out.append(
        CheckResult(
            "radius quantization theta = R^2/(2N+1)",
            ok,
            f"theta(N=10)={spec10.theta!r}, theta(N=1000)={spec1000.theta!r}",
        )
    )

    worst = 0.0
    for e in (12.0, 21.0, 30.0):
        worst = max(worst, max(core.matching_relative_residuals(e, spec1000, 4)))
    out.append(
        CheckResult(
            "scattering matching residuals", worst <= 1e-10, f"worst rel {worst:.2e} (tol 1e-10)"
        )
    )

    states = core.find_bound_states(spec10, 1)
    worst = max((s.residual for s in states), default=0.0)
    out.append(
        CheckResult(
            "bound-state matching residuals", worst <= 1e-9, f"worst |G| {worst:.2e} (tol 1e-9)"
        )
    )

    cs = core.cross_section_total(12.0, spec1000, 4)
    bound_ok = all(
        -1e-15 <= contrib <= (4.0 / cs.k) * (1.0 if m == 0 else 2.0) * (1.0 + 1e-12)
        for (m, contrib) in cs.contributions
    )
    sum_ok = abs(cs.sigma_total - sum(c for _, c in cs.contributions)) <= 1e-12 * cs.sigma_total
    out.append(
        CheckResult(
            "cross-section unitarity and additivity",
            bound_ok and sum_ok,
            f"{len(cs.contributions)} partial waves at E=12",
        )
    )

    free = core.WellSpec.from_radius(20.0, 10, 0.0)
    p = core.phase_shift(3.0, free, 2)
    out.append(
        CheckResult("free well scatters nothing", p.tan_delta == 0.0, f"tan delta = {p.tan_delta!r}")
    )
    return out


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
    p.add_argument("--grid-points", type=int, default=2000, help="energy scan density")
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
        help="exploratory variant summing each sector m and -m separately (capped at N)",
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
    p.add_argument("--full", action="store_true", help="denser grids (slower)")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
