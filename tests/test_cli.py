import importlib.util
import json
import math
import pathlib

import pytest

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


def test_domain_error_names_rule_and_exits_1(capsys):
    code, _, err = run_cli(capsys, ["bound-states", *WELL10, "--m=-11"])
    assert code == 1
    assert "|m| <= N" in err


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
        vi = wavefunction_eval(interior, m, math.sqrt(2 * state.energy), [(r_coh, 0.0)])[0]
        ve = wavefunction_eval(
            exterior, m, math.sqrt(2 * (6.0 - state.energy)), [(r_coh, 0.0)]
        )[0]
        assert vi.real / ve.real == pytest.approx(1.0, abs=0.1)


def test_run_config_invariants(capsys):
    base = ["phase-shifts", *WELL10, "--m", "0", "--emax", "8.0"]
    code, _, err = run_cli(capsys, base + ["--esteps", "1"])
    assert code == 1 and "esteps" in err
    code, _, err = run_cli(capsys, base + ["--emin", "9.0", "--esteps", "3"])
    assert code == 1 and "emin < emax" in err


def test_selftest_passes_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")
