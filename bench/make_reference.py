"""Store the outputs of every op of a workload and seed as its reference.

    python3 bench/make_reference.py --workload phase-sweep --seed 0

Run from the root of a source checkout at the commit whose outputs are to
become the reference; check.py compares later runs of that seed to them.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys

import check
import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    os.environ.pop("NCWELL_THREADS", None)
    sys.path.insert(0, str(run.SRC))
    ops = workloads.generate(args.workload, args.seed)
    _, results = run.run_pass(ops)
    failed = run.check_pass(ops, results, None)
    failed.update(run.direct_checks(ops, results))
    if failed:
        for i, reason in sorted(failed.items()):
            print(f"op {i} ({' '.join(ops[i].argv)}): {reason}", file=sys.stderr)
        return 1
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    data = {"argv": [list(op.argv) for op in ops], "outputs": [r[2] for r in results]}
    with gzip.open(check.reference_path(args.workload, args.seed), "wt") as fh:
        json.dump(data, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
