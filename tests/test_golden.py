"""Kernel values pinned bit for bit (tests/data/kernel_golden.json).

The recurrence rows, both signs of the integer-b log series, the mpmath
escalations and the partial-wave sums must reproduce the stored float.hex
values exactly; tests/data/make_golden.py regenerates the file.
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
