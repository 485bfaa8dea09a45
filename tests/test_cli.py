import importlib.util
import json
import math
import pathlib
import re

import pytest

import ncwell.cli as cli_mod
from ncwell import specfun
from ncwell.cli import main, _parse_m_list, _parse_radius_sq
from ncwell.errors import DomainError

WELL10 = ["--radius", "sqrt20", "--capital-n", "10", "--v", "6"]

_spec = importlib.util.spec_from_file_location(
    "make_golden", pathlib.Path(__file__).parent / "data" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_radius_literal_forms():
    assert _parse_radius_sq("sqrt20") == 20.0
    assert _parse_radius_sq("sqrt(20)") == 20.0
    assert _parse_radius_sq("2.0") == 4.0
    with pytest.raises(DomainError):
        _parse_radius_sq("sqrt-1")


def test_m_range_parsing():
    assert _parse_m_list("4") == [4]
    assert _parse_m_list("-6..6") == list(range(-6, 7))
    assert _parse_m_list("-3..-1") == [-3, -2, -1]
    with pytest.raises(DomainError):
        _parse_m_list("3..-3")
    for text in ("abc", "1..", "..3", "1.5"):
        with pytest.raises(DomainError, match=f"--m .*{re.escape(repr(text))}"):
            _parse_m_list(text)


def test_bound_states_layout(capsys):
    code, out, _ = run_cli(capsys, ["bound-states", *WELL10, "--m=-1..1"])
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "m,level,energy_nc,energy_comm"
    first = lines[1].split(",")
    assert first[0] == "-1" and first[1] == "0"
    # every data row round-trips through float
    for line in lines[1:]:
        cells = line.split(",")
        for cell in cells[2:]:
            if cell:
                float(cell)


def test_output_deterministic(capsys, tmp_path):
    argv = ["phase-shifts", *WELL10, "--m", "2", "--emin", "6.5", "--emax", "8.0", "--esteps", "5"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv)
    assert out1 == out2
    # file output matches stdout bytes
    path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, argv + ["--output", str(path)])
    assert code == 0
    assert path.read_bytes().decode() == out1


def test_phase_shift_columns_and_first_column_is_energy(capsys):
    code, out, _ = run_cli(
        capsys,
        ["phase-shifts", *WELL10, "--m", "4", "--emin", "6.5", "--emax", "7.0", "--esteps", "3"],
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0].split(",")[0] == "energy"
    assert lines[0] == "energy,tan_delta_nc,delta_nc,delta_nc_unwrapped,tan_delta_comm,abs_deviation"
    assert float(lines[1].split(",")[0]) == 6.5


def test_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "phase-shifts", *WELL10, "--m", "1",
            "--emin", "6.5", "--emax", "7.0", "--esteps", "2",
            "--format", "json",
        ],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert set(rows[0]) == {
        "energy", "tan_delta_nc", "delta_nc", "delta_nc_unwrapped",
        "tan_delta_comm", "abs_deviation",
    }


def test_json_writes_non_finite_floats_as_the_csv_text(capsys, monkeypatch):
    def point(e, spec, m_max, include_negative):
        return cli_mod.core.CrossSectionPoint(e, math.inf if e < 7.5 else math.nan, -math.inf)

    monkeypatch.setattr(cli_mod.core, "cross_section_total", point)
    argv = ["cross-section", *WELL10, "--emin", "7", "--emax", "8", "--esteps", "2"]
    _, out, _ = run_cli(capsys, argv)
    assert out.split("\r\n")[1:3] == ["7,inf,-inf", "8,nan,-inf"]
    _, out, _ = run_cli(capsys, [*argv, "--format", "json"])

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    rows = json.loads(out, parse_constant=reject)
    assert rows == [{"energy": 7.0, "k": "inf", "sigma": "-inf"}, {"energy": 8.0, "k": "nan", "sigma": "-inf"}]


def test_compare_free_well_has_zero_deviations(capsys):
    # both tan(delta) are exactly 0, so the relative deviation is 0, not inf
    code, out, _ = run_cli(
        capsys,
        ["compare", "--v", "0", "--capital-n", "10", "--radius", "sqrt20", "--m", "2",
         "--emin", "1", "--emax", "3", "--esteps", "3"],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\r\n")[1:]]
    assert [row[1:] for row in rows] == [["-0", "-0", "0", "0"]] * 3


def test_cross_section_zero_potential(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "cross-section", "--radius", "sqrt20", "--capital-n", "10", "--v", "0",
            "--emin", "0.5", "--emax", "1.0", "--esteps", "3",
        ],
    )
    assert code == 0
    for line in out.strip().split("\r\n")[1:]:
        assert line.split(",")[2] == "0"
    # the free well goes through the same argument checks as any other
    code, _, err = run_cli(
        capsys,
        ["cross-section", "--radius", "sqrt20", "--capital-n", "10", "--v", "0", "--emax", "1.0", "--mmax", "0"],
    )
    assert code == 1
    assert err == "ncwell: domain error: --mmax must be a positive integer, got 0\n"


def test_compare_phase_shift(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "compare", *WELL10, "--quantity", "phase-shift", "--m", "1",
            "--emin", "6.5", "--emax", "7.5", "--esteps", "3",
        ],
    )
    assert code == 0
    header = out.strip().split("\r\n")[0]
    assert header == "energy,tan_delta_nc,tan_delta_comm,abs_deviation,rel_deviation"


def test_compare_bound_states(capsys):
    code, out, _ = run_cli(
        capsys, ["compare", *WELL10, "--quantity", "bound-states", "--m", "1"]
    )
    assert code == 0
    header = out.strip().split("\r\n")[0]
    assert header == "m,level,energy_nc,energy_comm,abs_deviation,rel_deviation"


def test_compare_bound_states_keeps_unpaired_levels(capsys):
    # sector -5 of WELL10 has one commutative level more than noncommutative ones
    code, out, _ = run_cli(capsys, ["compare", *WELL10, "--quantity", "bound-states", "--m=-5"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\r\n")[1:]]
    assert len(rows) == 3
    m, level, e_nc, e_comm, dev, rel = rows[-1]
    assert (m, level, e_nc, dev, rel) == ("-5", "2", "", "", "")
    assert float(e_comm) > 0.0


def test_compare_bound_states_ignores_sweep_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compare", *WELL10, "--quantity", "bound-states", "--m", "1", "--emax", "3", "--esteps", "1"],
    )
    assert code == 0
    assert out == run_cli(capsys, ["compare", *WELL10, "--quantity", "bound-states", "--m", "1"])[1]


def test_nonfinite_sweep_bound_is_domain_error(capsys):
    base = ["phase-shifts", *WELL10, "--m", "0", "--esteps", "3"]
    for flags, name in ((["--emax", "inf"], "--emax"), (["--emax", "nan"], "--emax"),
                        (["--emin", "inf", "--emax", "8"], "--emin")):
        code, _, err = run_cli(capsys, base + flags)
        assert code == 1
        assert f"{name} must be finite" in err


E_OFFSET_SWEEP = ["phase-shifts", *WELL10, "--m", "0", "--emax", "8", "--esteps", "3"]


@pytest.mark.parametrize("text, shown", [("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-0.5", "-0.5")])
def test_bad_e_offset_is_named_when_emin_is_omitted(capsys, text, shown):
    code, out, err = run_cli(capsys, E_OFFSET_SWEEP + ["--e-offset", text])
    assert (code, out) == (1, "")
    assert err == f"ncwell: domain error: --e-offset must be finite and > 0 (V + offset > V=6.0), got {shown}\n"


def test_e_offset_is_unused_and_unchecked_when_emin_is_given(capsys):
    code, out, _ = run_cli(capsys, E_OFFSET_SWEEP + ["--emin", "7", "--e-offset", "nan"])
    assert code == 0
    assert out == run_cli(capsys, E_OFFSET_SWEEP + ["--emin", "7"])[1]


def test_negative_capital_n_is_named(capsys):
    argv = ["bound-states", "--radius", "sqrt20", "--capital-n", "-1", "--v", "6", "--m", "0"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "ncwell: domain error: cap_n must be >= 0, got -1\n"


def test_nonfinite_energy_is_domain_error(capsys):
    for argv in (["wavefunction", *WELL10, "--m", "1", "--energy", "inf"], ["dcs", *WELL10, "--energy", "inf"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "finite energy, got E=inf" in err


def test_dcs_runs(capsys):
    code, out, _ = run_cli(
        capsys,
        ["dcs", *WELL10, "--energy", "8.0", "--phi-steps", "16", "--mmax", "2"],
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "phi,dsigma_dphi"
    assert len(lines) == 17


def test_wavefunction_scattering_and_bound(capsys):
    code, out, _ = run_cli(
        capsys,
        ["wavefunction", *WELL10, "--m", "1", "--energy", "8.0", "--points", "12"],
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "r,psi_re,psi_im,region"
    assert lines[1].endswith("interior")
    assert lines[-1].endswith("exterior")
    code, out, _ = run_cli(
        capsys,
        ["wavefunction", *WELL10, "--m", "0", "--energy", "0.12", "--points", "8"],
    )
    assert code == 0
    # far out in the bound exterior I_m overflows; its zero coefficient must not make nan
    code, out, _ = run_cli(
        capsys,
        ["wavefunction", *WELL10, "--m", "1", "--energy", "0.3", "--rmax", "1e5", "--points", "3"],
    )
    assert code == 0
    assert out.split("\r\n")[2:4] == ["50000,0,0,exterior", "100000,0,0,exterior"]


def test_overflowing_theta_radius_exits_1(capsys):
    code, out, err = run_cli(capsys, ["dcs", "--theta", "1e-300", "--radius", "1e10", "--v", "6", "--energy", "8"])
    assert (code, out) == (1, "")
    assert err == "ncwell: domain error: R^2/theta overflows at theta = 1e-300, R^2 = 1e+20\n"


def test_domain_error_names_rule_and_exits_1(capsys):
    code, _, err = run_cli(capsys, ["bound-states", *WELL10, "--m=-11"])
    assert code == 1
    assert "|m| <= N" in err
    code, _, err = run_cli(capsys, ["bound-states", *WELL10, "--m", "1.."])
    assert code == 1
    assert err == "ncwell: domain error: --m must be an integer or a range lo..hi, got '1..'\n"
    for text in ("abc", "sqrt1e"):
        code, _, err = run_cli(capsys, ["bound-states", "--radius", text, "--capital-n", "10", "--v", "6", "--m", "0"])
        assert code == 1
        assert err == f"ncwell: domain error: --radius must be a number or a sqrt literal like sqrt20, got '{text}'\n"
    # a radius whose square overflows names --radius, not theta
    for text in ("inf", "1e200", "sqrt(1e400)"):
        code, _, err = run_cli(capsys, ["bound-states", "--radius", text, "--capital-n", "10", "--v", "6", "--m", "0"])
        assert code == 1
        assert err == f"ncwell: domain error: --radius must give a finite radius^2, got '{text}'\n"
    for text, shown in (("inf", "inf"), ("nan", "nan"), ("-1", "-1.0"), ("0", "0.0")):
        code, out, err = run_cli(capsys, ["wavefunction", *WELL10, "--m", "1", "--energy", "8.0", "--rmax", text])
        assert (code, out) == (1, "")
        assert err == f"ncwell: domain error: --rmax must be positive and finite, got {shown}\n"
    # the last radius, --rmax * (points - 1) / (points - 1), overflows on the way
    code, out, err = run_cli(capsys, ["wavefunction", *WELL10, "--m", "1", "--energy", "8", "--rmax", "1e308"])
    assert (code, out) == (1, "")
    assert err == "ncwell: domain error: --rmax times (--points - 1) must be finite, got --rmax 1e+308, --points 200\n"
    code, out, err = run_cli(capsys, ["dcs", *WELL10, "--energy", "8", "--mmax", "0"])
    assert (code, out) == (1, "")
    assert err == "ncwell: domain error: --mmax must be a positive integer, got 0\n"


def test_convergence_error_names_a_b_x_and_exits_2(capsys, monkeypatch):
    # a one-step cap stops the scan's first U-ratio continued fraction
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 1)
    code = main(["bound-states", "--radius", "sqrt20", "--capital-n", "1000", "--v", "10", "--m", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"ncwell: numerical non-convergence: .* for a=\d+, b=-?\d+, x=[0-9.e+-]+\n", err)


def test_scattering_below_v_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["phase-shifts", *WELL10, "--m", "0", "--emin", "3.0", "--emax", "8.0", "--esteps", "3"],
    )
    assert code == 1
    assert "strictly above V" in err


def test_well_overdetermined_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "bound-states", "--theta", "1.0", "--radius", "sqrt20",
            "--capital-n", "10", "--v", "6", "--m", "0",
        ],
    )
    assert code == 1
    assert "exactly two" in err


def test_usage_error_exits_64(capsys):
    assert main(["bound-states", "--nonsense"]) == 64
    assert main([]) == 64


@pytest.mark.parametrize("where", ["missing-directory", "full-device"])
def test_unwritable_output_exits_74_naming_the_path(capsys, tmp_path, where):
    if where == "missing-directory":
        path, reason = str(tmp_path / "missing" / "x.csv"), "No such file or directory"
    else:
        if not pathlib.Path("/dev/full").exists():
            pytest.skip("no /dev/full on this platform")
        path, reason = "/dev/full", "No space left on device"
    code, out, err = run_cli(capsys, ["bound-states", *WELL10, "--m", "0", "-o", path])
    assert (code, out) == (74, "")
    assert err == f"ncwell: cannot write {path}: {reason}\n"


def test_subnormal_theta_exits_1_naming_theta_v_and_e(capsys):
    # theta (V - E) underflows to 0 at the top of the scan grid
    argv = ["bound-states", "--theta", "1e-320", "--capital-n", "10", "--v", "6", "--m", "0", "--grid-points", "10"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "ncwell: domain error: x = theta (V - E) underflows to 0 at theta=1e-320, V=6.0, E=5.999999994\n"


def test_phase_shift_rows_equal_pointwise_values_in_order(capsys):
    from ncwell import core, oracle

    argv = [
        "phase-shifts", *WELL10, "--m", "1",
        "--emin", "6.5", "--emax", "8.0", "--esteps", "9",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    rows = [[float(c) for c in line.split(",")] for line in out.strip().split("\r\n")[1:]]
    spec = core.WellSpec.from_radius(20.0, 10, 6.0)
    comm = oracle.CommWellSpec(spec.radius, spec.v)
    energies = [6.5 + (8.0 - 6.5) * i / 8 for i in range(9)]
    assert [r[0] for r in rows] == energies
    for (e, tan_nc, delta_nc, _, tan_comm, dev), e_ref in zip(rows, energies):
        p = core.phase_shift(e_ref, spec, 1)
        c = oracle.comm_phase_shift(e_ref, comm, 1)
        assert (tan_nc, delta_nc, tan_comm) == (p.tan_delta, p.delta, c.tan_delta)
        assert dev == abs(p.tan_delta - c.tan_delta)


def test_readme_bound_states_matches_golden_csv(capsys):
    name = "readme_bound_states_n10.csv"
    code, out, _ = run_cli(capsys, make_golden.CLI_GOLDENS[name])
    assert code == 0
    assert out.encode() == (make_golden.DATA / name).read_bytes()


@pytest.mark.filterwarnings("ignore:partial-wave sum hit the cap")
@pytest.mark.parametrize(
    "name", sorted(set(make_golden.CLI_GOLDENS) - {"readme_bound_states_n10.csv"})
)
def test_cli_output_matches_golden_csv(capsys, name):
    code, out, _ = run_cli(capsys, make_golden.CLI_GOLDENS[name])
    assert code == 0
    assert out.encode() == (make_golden.DATA / name).read_bytes()


def test_emin_defaults_to_v_plus_offset(capsys):
    code, out, _ = run_cli(
        capsys,
        ["phase-shifts", *WELL10, "--m", "0", "--emax", "7.0", "--esteps", "2"],
    )
    assert code == 0
    first = float(out.strip().split("\r\n")[1].split(",")[0])
    assert first == pytest.approx(6.05)


def test_bound_wavefunction_continuity_emerges_at_small_theta():
    # Fock-side matching is not position continuity, but the position
    # mismatch at the boundary must vanish as theta -> 0; this pins the
    # branch-weight -> position-amplitude maps for every m
    import math

    from ncwell import WellSpec, bound_solutions, find_bound_states, wavefunction_eval

    for m in (0, 3, 6):
        spec = WellSpec.from_radius(20.0, 1000, 6.0)
        state = find_bound_states(spec, m)[0]
        interior, exterior = bound_solutions(state.energy, spec, m)
        r_coh = spec.radius / math.sqrt(2.0 * spec.theta)
        vi = wavefunction_eval(interior, m, [(r_coh, 0.0)])[0]
        ve = wavefunction_eval(exterior, m, [(r_coh, 0.0)])[0]
        assert vi.real / ve.real == pytest.approx(1.0, abs=0.1)


def test_run_config_invariants(capsys):
    base = ["phase-shifts", *WELL10, "--m", "0", "--emax", "8.0"]
    code, _, err = run_cli(capsys, base + ["--esteps", "1"])
    assert code == 1 and "esteps" in err
    code, _, err = run_cli(capsys, base + ["--emin", "9.0", "--esteps", "3"])
    assert code == 1 and "emin < emax" in err


def test_library_selftest_is_what_the_cli_prints(capsys):
    import ncwell

    _, out, _ = run_cli(capsys, ["selftest"])
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}" for c in ncwell.selftest()]
    assert out.splitlines()[:-1] == lines


def test_selftest_passes_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_main_reuses_one_parser_with_the_outputs_of_fresh_ones(capsys, monkeypatch):
    from ncwell import cli

    calls = [
        ["bound-states", *WELL10],  # usage error: --m is required
        ["bound-states", *WELL10, "--m", "0"],
        ["dcs", *WELL10, "--phi-steps", "x"],  # usage error: not an int
        ["phase-shifts", "--help"],
        ["cross-section", *WELL10, "--emax", "8", "--esteps", "2"],
    ]
    fresh = []
    for argv in calls:
        cli._main_parser.cache_clear()
        fresh.append(run_cli(capsys, argv))
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._main_parser.cache_clear()
    shared = [run_cli(capsys, argv) for argv in calls]
    assert len(built) == 1
    assert [code for code, _, _ in fresh] == [64, 0, 64, 0, 0]
    assert "error: " in fresh[0][2] and "error: " in fresh[2][2]
    assert "usage: ncwell phase-shifts" in fresh[3][1]
    assert shared == fresh
