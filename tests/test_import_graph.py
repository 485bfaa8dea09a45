"""The CLI's commands import no scipy subpackage and no mpmath they do not use.

scipy.optimize (with scipy.linalg and scipy.sparse behind it) and
scipy.integrate were most of the CLI's start-up time.  Only the selftest
and the quadrature oracle integrate, and nothing calls an optimizer, so
every other command must run in a fresh interpreter without them: a
deferred import that moved into a root scan or a partial-wave sum would
fail here.

scipy.special (about 0.3 s of a 0.57 s start, most of it scipy's array-API
layer) and mpmath are deferred in the same way.  Importing ncwell and its
CLI loads neither; scipy.special comes in with a commutative column,
`wavefunction` or `selftest`, and mpmath with the first Re U escalation or
`selftest`.  `dcs` and `cross-section` never call a cylinder function, so
each must run in its own fresh interpreter without scipy.special.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.sparse")
WELL10 = ["--radius", "sqrt20", "--capital-n", "10", "--v", "6"]
COMMANDS = [
    ["bound-states", *WELL10, "--m=-1..1"],
    ["phase-shifts", *WELL10, "--m", "1", "--emax", "9", "--esteps", "4"],
    ["cross-section", *WELL10, "--emax", "9", "--esteps", "3"],
    ["dcs", *WELL10, "--energy", "8", "--phi-steps", "8"],
    ["wavefunction", *WELL10, "--m", "1", "--energy", "0.3", "--points", "5"],
    ["compare", "--quantity", "bound-states", *WELL10, "--m", "0"],
    ["compare", *WELL10, "--m", "2", "--emax", "9", "--esteps", "3"],
]

# the watched names are packages: the probe reports each one and its submodules that the run loaded
SCRIPT = """
import contextlib, io, json, sys
import ncwell
from ncwell.cli import build_parser, main
build_parser()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
watched = json.loads(sys.argv[2])
print(json.dumps([codes, sorted(m for m in sys.modules if any(m == w or m.startswith(w + ".") for w in watched))]))
"""


def fresh_env():
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_fresh(commands, watched=HEAVY):
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands), json.dumps(watched)],
        env=fresh_env(), capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(res.stdout)


def test_cli_commands_leave_optimize_integrate_linalg_and_sparse_unimported():
    codes, loaded = run_fresh(COMMANDS)
    assert codes == [0] * len(COMMANDS)
    assert loaded == []


def test_the_guard_sees_a_deferred_import():
    # the selftest integrates, so the same probe must report scipy.integrate
    codes, loaded = run_fresh([["selftest"]])
    assert codes == [0]
    assert "scipy.integrate" in loaded


def test_import_and_parser_leave_scipy_and_mpmath_unimported():
    assert run_fresh([], ("scipy", "mpmath")) == [[], []]


@pytest.mark.parametrize("command", [COMMANDS[2], COMMANDS[3]], ids=["cross-section", "dcs"])
def test_dcs_and_cross_section_leave_scipy_special_unimported(command):
    # one fresh interpreter each: a command that needs the oracle would load it for both
    assert run_fresh([command], ("scipy.special",)) == [[0], []]


def test_the_guard_sees_the_deferred_special_and_mpmath():
    codes, loaded = run_fresh([COMMANDS[0]], ("scipy.special",))
    assert codes == [0]
    assert "scipy.special" in loaded  # the commutative column
    codes, loaded = run_fresh([["selftest"]], ("mpmath",))
    assert codes == [0]
    assert "mpmath" in loaded


def test_python_m_ncwell_prints_the_usage_without_scipy_special():
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ncwell", "--help"],
        env=fresh_env(), capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0
    assert res.stdout.startswith("usage: ncwell")
    # -X importtime writes one "import time: ... | module" line per module at its first import
    # (scipy.special's own line can be missing, so its submodules are looked for as well)
    imported = [line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines() if line.startswith("import time:")]
    assert "ncwell.cli" in imported
    assert not [m for m in imported if m == "scipy.special" or m.startswith("scipy.special.")]
