"""Benchmark of the ncwell CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload bound-spectrum --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; ncwell is imported from ./src.  An
op is one in-process `ncwell.cli.main(argv)` call with stdout captured.  Load
is a closed loop with one client: one process, no threads, the next op sent
only when the previous one has returned.  NCWELL_THREADS is cleared.

--trace 0 measures set-up time in fresh interpreters, then runs passes over
the workload's ops until --seconds are used up (at least one pass), and
reports the end-to-end metrics in reference seconds (see CAL_REF_S).
--trace 1 runs a warm-up pass, a traced and an untraced pass and reports
the per-layer metrics of the traced one; the spans go to bench/out/.  Every
op's output is checked in both modes.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import check
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import ncwell, ncwell.cli; ncwell.cli.build_parser()"
SETUP_REPEATS = 5
# op_tail_s is the latency with this many ops slower than it
TAIL_BEYOND = 10
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}
# End-to-end times are reported in reference seconds: seconds on a CPU that
# runs the calibration kernel in CAL_REF_S.  On a shared host the other
# tenants slow the CPU by up to 1.6x, in phases of seconds to minutes;
# a time scaled by the speed measured just before and just after it no
# longer follows them.  The kernel does not touch ncwell, so a change to the
# program moves the scaled times as much as the raw ones.
CAL_REF_S = 0.010
CAL_FLOAT_STEPS = 15000
CAL_MP_STEPS = 1200
# setup_s is in reference seconds too: seconds on a host where a fresh
# interpreter runs SETUP_PROBE_CODE in SETUP_PROBE_REF_S
SETUP_PROBE_CODE = "import numpy"
SETUP_PROBE_REF_S = 0.2


def calibration_s() -> float:
    """Wall time of a fixed kernel of float and mpmath arithmetic, the two kinds of work ops do."""
    import mpmath

    t0 = time.perf_counter()
    s = 0.0
    for i in range(CAL_FLOAT_STEPS):
        s += math.sqrt(i) * 1.0001
    with mpmath.workdps(40):
        x, step = mpmath.mpf(1), mpmath.mpf(1.0001)
        for i in range(CAL_MP_STEPS):
            x = x * step + 1 / (x + i)
    return time.perf_counter() - t0


def measure_setup() -> tuple:
    """Median (scaled, raw) wall time of a fresh interpreter importing ncwell.cli and building its parser.

    Each start is scaled by the time of a fresh interpreter importing numpy
    just before and just after it: import work follows the host's speed
    less than the calibration kernel does.
    """
    env = {k: v for k, v in os.environ.items() if k != "NCWELL_THREADS"}

    def start(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        return time.perf_counter() - t0

    scaled, raw = [], []
    probe = start(SETUP_PROBE_CODE)
    for i in range(SETUP_REPEATS + 1):
        elapsed = start(SETUP_CODE)
        probe_next = start(SETUP_PROBE_CODE)
        if i:  # the first start writes the bytecode caches of a fresh checkout
            raw.append(elapsed)
            scaled.append(elapsed * 2.0 * SETUP_PROBE_REF_S / (probe + probe_next))
        probe = probe_next
    return statistics.median(scaled), statistics.median(raw)


def run_op(cli_main, op):
    """(latency_s, exit code or None, stdout, error text, cap-hit warnings) of one op."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = cli_main(list(op.argv))
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc, err_text = None, f"{type(exc).__name__}: {exc}"
        else:
            err_text = err.getvalue()
        latency = time.perf_counter() - t0
    cap_hits = sum("hit the cap" in str(w.message) for w in caught)
    return latency, rc, out.getvalue(), err_text, cap_hits


def run_pass(ops, tracer=None):
    """(wall_s, per-op results) of one pass over ops.

    The calibration kernel runs before the first op and after every op; each
    latency is in reference seconds, its raw value is appended to its
    result, and wall_s is the sum of the scaled latencies.
    """
    from ncwell import cli

    results = []
    cal = calibration_s()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        # looked up per op so that the traced pass goes through the wrapper
        res = run_op(cli.main, op)
        cal_next = calibration_s()
        results.append((res[0] * 2.0 * CAL_REF_S / (cal + cal_next), *res[1:], res[0]))
        cal = cal_next
    return math.fsum(r[0] for r in results), results


def check_pass(ops, results, ref):
    """Indices of failed ops, with the reason, for one pass."""
    failed = {}
    for i, (op, (_, rc, out, err, *_)) in enumerate(zip(ops, results)):
        if rc != 0:
            failed[i] = f"exit {rc}: {err.strip()[:200]}"
            continue
        try:
            check.check_output(op, out, ref["outputs"][i] if ref else None)
        except (check.CheckFailed, ValueError) as exc:
            failed[i] = str(exc)
    return failed


def direct_checks(ops, results):
    """Partial-wave checks that call the library, once per run and untimed."""
    failed = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        if res[1] == 0 and check.wants_partial_wave_check(op):
            try:
                check.partial_wave_checks(op, res[2])
            except check.CheckFailed as exc:
                failed[i] = str(exc)
    return failed


class Tally:
    """Failed ops over the passes of a run.

    Each pass is checked as soon as it ends and its outputs are dropped, so
    that memory, and peak_rss_mb, do not grow with the number of passes.
    """

    def __init__(self, ops, ref):
        self.ops, self.ref = ops, ref
        self.attempted = self.failed = self.cap_hits = 0
        self.reasons = {}
        self.direct = None

    def add(self, wall, results):
        if self.direct is None:  # once per run, on the first pass
            self.direct = direct_checks(self.ops, results)
            self.cap_hits = sum(r[4] for r in results)
        pass_failed = check_pass(self.ops, results, self.ref)
        pass_failed.update(self.direct)
        self.attempted += len(results)
        self.failed += len(pass_failed)
        self.reasons.update(pass_failed)
        return wall, [(r[0], r[1], None, *r[3:]) for r in results]


def provenance(args, n_ops: int) -> dict:
    import mpmath
    import numpy
    import scipy

    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "ops": n_ops,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "cores": os.cpu_count(),
        "src_lines": src_lines,
        "NCWELL_THREADS": os.environ.get("NCWELL_THREADS"),
    }


def end_to_end(ops, passes, setup_s):
    k = len(ops)
    per_op = [statistics.median(res[j][0] for _, res in passes) for j in range(k)]
    ranked = sorted(per_op)
    tail_index = max(0, k - 1 - TAIL_BEYOND)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _ in passes),
        "op_p50_s": statistics.median(per_op),
        "op_tail_s": ranked[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    note = f"op_tail_s = p{100.0 * (tail_index + 1) / k:.1f} of {k} ops ({k - 1 - tail_index} slower)"
    return metrics, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ncwell" / "__init__.py").is_file():
        print(f"bench: no ncwell sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.pop("NCWELL_THREADS", None)
    sys.path.insert(0, str(SRC))
    ops = workloads.generate(args.workload, args.seed)
    ref = check.load_reference(args.workload, args.seed)
    if ref is not None and ref["argv"] != [list(op.argv) for op in ops]:
        print("bench: stored reference does not match the generated ops", file=sys.stderr)
        return 2
    info = provenance(args, len(ops))
    info["reference"] = ref is not None

    tally = Tally(ops, ref)
    if args.trace:
        # a warm-up pass, then a traced and an untraced one, both scaled, so
        # that their difference is the tracing overhead and not host noise
        tally.add(*run_pass(ops))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, traced = tally.add(*run_pass(ops, tracer))
        finally:
            tracer.restore()
        untraced_wall, _ = tally.add(*run_pass(ops))
        tracer.cap_hits = sum(r[4] for r in traced)
        metrics = tracer.metrics(traced_wall - untraced_wall)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        info["absent_hooks"] = tracer.absent
        info["untraced_wall_s"] = untraced_wall
        info["traced_wall_s"] = traced_wall
        note = "per-layer metrics from the traced pass; time waited: not applicable (no queues, no pool)"
    else:
        setup_s, raw_setup_s = measure_setup()
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(tally.add(*run_pass(ops)))
            used = time.perf_counter() - start
            # start another pass only if it should end within --seconds
            if used + used / len(passes) > args.seconds:
                break
        metrics, note = end_to_end(ops, passes, setup_s)
        info["passes"] = len(passes)
        raw_per_op = [statistics.median(res[j][5] for _, res in passes) for j in range(len(ops))]
        info["raw_s"] = {
            "setup_s": raw_setup_s,
            "wall_s": statistics.median(math.fsum(r[5] for r in res) for _, res in passes),
            "op_p50_s": statistics.median(raw_per_op),
        }
    info["cap_hits"] = tally.cap_hits
    attempted, failed = tally.attempted, tally.failed

    print(f"# provenance {json.dumps(info)}")
    for i, reason in sorted(tally.reasons.items()):
        print(f"# FAILED op {i}: {' '.join(ops[i].argv)}: {reason}")
    print(f"# {note}")
    print(f"# fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
