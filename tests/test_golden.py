"""Kernel values pinned bit for bit (tests/data/kernel_golden.json).

The recurrence rows, both signs of the integer-b log series, the mpmath
escalations and the partial-wave sums must reproduce the stored float.hex
values exactly; tests/data/make_golden.py regenerates the file.  Its
--check also reports how a golden that differs moved.
"""

import importlib.util
import json
import pathlib

_spec = importlib.util.spec_from_file_location(
    "make_golden", pathlib.Path(__file__).parent / "data" / "make_golden.py"
)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def test_kernel_values_match_golden():
    stored = json.loads((make_golden.DATA / make_golden.KERNEL_GOLDEN).read_text())
    got = make_golden.kernel_values()
    assert sorted(got) == sorted(stored)
    changed = [case for case in stored if got[case] != stored[case]]
    assert changed == []


def test_csv_changes_counts_rows_and_the_largest_change_per_column():
    old = b"m,energy,region\r\n0,2.0,interior\r\n1,4.0,interior\r\n2,1.0,exterior\r\n"
    new = b"m,energy,region\r\n0,2.0,interior\r\n1,4.0000000002,interior\r\n2,1.0000000001,interior\r\n"
    assert make_golden.csv_changes(old, new) == (
        "2 of 3 rows changed; largest relative change: m 0.00e+00, energy 1.00e-10, region text"
    )
    assert make_golden.csv_changes(old, old[:-len("2,1.0,exterior\r\n")]).startswith("layout changed: 3 -> 2 rows")


def test_kernel_changes_counts_cases_and_the_largest_change_per_family():
    def golden(cases):
        return json.dumps({k: v for k, v in cases}).encode()

    h = float.hex
    old = golden([
        ("re_u_neg(0, 0, 0.3)", [1, h(-2.0)]),
        ("re_u_neg(1, 0, 0.3)", [1, h(-3.0)]),
        ("cross_section_total(N=10, 6.5)", {"sigma": h(4.0), "contributions": [[0, h(1.0)], [1, h(3.0)]]}),
    ])
    new = golden([
        ("re_u_neg(0, 0, 0.3)", [-1, h(-2.0 + 2.0**-40)]),
        ("re_u_neg(1, 0, 0.3)", [1, h(-3.0)]),
        ("cross_section_total(N=10, 6.5)", {"sigma": h(4.0), "contributions": [[0, h(1.5)], [1, h(-3.0)]]}),
    ])
    assert make_golden.kernel_changes(old, new) == (
        "2 of 3 cases changed; largest change: re_u_neg 1 of 2 (log magnitude 9.09e-13, 1 sign flips), "
        "cross_section_total 1 of 1 (relative 2.00e+00, 1 sign flips)"
    )
    assert make_golden.kernel_changes(old, golden([("re_u_neg(0, 0, 0.3)", [1, h(-2.0)])])) == (
        "cases changed: 3 -> 1"
    )
