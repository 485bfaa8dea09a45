"""The CSV writer writes every table byte for byte as csv.writer with _fmt's fields did.

The reference below is that writer: one _fmt call per value and one
csv.writer row per table row.  The tables are those of real commands (with
unpaired levels, empty deviations and wavefunction regions) and a table of
edge-case floats, ints and strings.  No field of any of them may need
quoting, which is what lets the writer drop csv.writer.
"""

import csv
import io
import math

import numpy as np
import pytest

from ncwell import cli

WELL10 = ["--radius", "sqrt20", "--capital-n", "10", "--v", "6"]
DEEP10 = ["--radius", "sqrt20", "--capital-n", "10", "--v", "20000"]
NEEDS_QUOTING = set(',"\r\n')


def reference_fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.17g}"


def reference_csv(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([reference_fmt(x) for x in row])
    return buf.getvalue()


def assert_written_as_reference(columns, rows, text):
    assert text == reference_csv(columns, rows)
    # csv.writer quotes a field with a comma, quote or line break, and a row of one empty field
    assert len(columns) >= 2
    fields = [*columns, *(reference_fmt(x) for row in rows for x in row)]
    assert not any(NEEDS_QUOTING & set(f) for f in fields)


def tables_of(capsys, monkeypatch, argv):
    """(columns, rows, stdout) of the one table a command writes."""
    seen = []
    write = cli._write_rows

    def spy(columns, rows, output, fmt):
        seen.append((list(columns), [list(row) for row in rows]))
        write(columns, rows, output, fmt)

    monkeypatch.setattr(cli, "_write_rows", spy)
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert len(seen) == 1
    return (*seen[0], out)


@pytest.mark.filterwarnings("ignore:(non)?commutative bound scan")
@pytest.mark.filterwarnings("ignore:partial-wave sum hit the cap")
@pytest.mark.parametrize(
    "argv, kinds",
    [
        # the deep well's scans miss levels: a level one solver finds leaves the other empty
        (["bound-states", *DEEP10, "--m", "0", "--grid-points", "300"], {int, float, type(None)}),
        (["compare", "--quantity", "bound-states", *DEEP10, "--m", "1"], {int, float, type(None)}),
        (["bound-states", *WELL10, "--m=-2..2"], {int, float}),
        (["wavefunction", *WELL10, "--m", "1", "--energy", "0.3", "--points", "9"], {float, str}),
        (["wavefunction", *WELL10, "--m", "-2", "--energy", "8", "--points", "9"], {float, str}),
        (["phase-shifts", *WELL10, "--m", "1", "--emax", "9", "--esteps", "5"], {float}),
        (["cross-section", *WELL10, "--emax", "9", "--esteps", "3"], {float}),
        (["dcs", *WELL10, "--energy", "8", "--phi-steps", "12"], {float}),
        (["compare", *WELL10, "--m", "2", "--emax", "9", "--esteps", "3"], {float}),
        (["compare", "--quantity", "cross-section", *WELL10, "--emax", "9", "--esteps", "3"], {float}),
    ],
)
def test_command_tables_match_the_csv_writer(capsys, monkeypatch, argv, kinds):
    columns, rows, out = tables_of(capsys, monkeypatch, argv)
    assert {type(x) for row in rows for x in row} == kinds
    assert_written_as_reference(columns, rows, out)
    if str in kinds:
        assert {row[-1] for row in rows} <= {"interior", "exterior"}


EDGE_FLOATS = [
    math.inf, -math.inf, math.nan, -math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    1e308, -1e308, 1.7976931348623157e308, 1e-300, 0.1, 1.0 / 3.0, -2.5, 1e16, 1e17, 123456789012345678.0,
]


def test_edge_values_match_the_csv_writer(capsys):
    ints = [0, -3, 7, 10**20, -(10**17)]
    values = [*EDGE_FLOATS, *map(np.float64, EDGE_FLOATS), *ints, None, "interior", "exterior"]
    rows = [[a, b, c] for a, b, c in zip(values, values[1:] + values[:1], values[2:] + values[:2])]
    columns = ["x", "y", "z"]
    cli._write_rows(columns, rows, "-", "csv")
    assert_written_as_reference(columns, rows, capsys.readouterr().out)
    # no rows: the header alone
    cli._write_rows(["m", "level"], [], "-", "csv")
    assert capsys.readouterr().out == reference_csv(["m", "level"], []) == "m,level\r\n"


def test_non_finite_cross_sections_match_the_csv_writer(capsys, monkeypatch):
    # every edge float as an energy, k and sigma of one table, through the command's own path
    pts = iter(EDGE_FLOATS)

    def point(e, spec, m_max, include_negative):
        return cli.core.CrossSectionPoint(next(pts), -e, next(pts))

    monkeypatch.setattr(cli.core, "cross_section_total", point)
    argv = ["cross-section", *WELL10, "--emin", "7", "--emax", "8", "--esteps", str(len(EDGE_FLOATS) // 2)]
    columns, rows, out = tables_of(capsys, monkeypatch, argv)
    assert_written_as_reference(columns, rows, out)
