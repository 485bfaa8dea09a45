"""The CLI's commands import no scipy subpackage they do not use.

scipy.optimize (with scipy.linalg and scipy.sparse behind it) and
scipy.integrate were most of the CLI's start-up time.  Only the selftest
and the quadrature oracle integrate, and nothing calls an optimizer, so
every other command must run in a fresh interpreter without them: a
deferred import that moved into a root scan or a partial-wave sum would
fail here.
"""

import json
import os
import pathlib
import subprocess
import sys

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

SCRIPT = """
import contextlib, io, json, sys
from ncwell.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted(m for m in json.loads(sys.argv[2]) if m in sys.modules)]))
"""


def run_fresh(commands):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands), json.dumps(HEAVY)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
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
