"""The benchmark's own checks.

    python3 bench/selfcheck.py        # from the root of a source checkout; a few minutes

1. The generator yields identical argv lists for the same seed, and other
   lists for another seed.
2. The output checker flags a bound energy shifted by 1e-6 as a failed op.
3. Every count metric, and every ratio of counts, repeats exactly across two traced passes of one seed.
4. After a traced pass every wrapped attribute is the original object again.
5. The metric names the run prints are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracing
import workloads

SEED = 0


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {message}")


def check_generator():
    for name in workloads.WORKLOADS:
        a, b = workloads.generate(name, SEED), workloads.generate(name, SEED)
        expect([op.argv for op in a] == [op.argv for op in b], f"{name}: seed {SEED} not reproducible")
        other = workloads.generate(name, SEED + 1)
        expect([op.argv for op in a] != [op.argv for op in other], f"{name}: seed ignored")
    print("ok  generator is a function of the seed")


def check_perturbation():
    op = next(op for op in workloads.generate("bound-spectrum", SEED)
              if op.kind == "bound-states" and op.cap_n <= 12)
    _, results = run.run_pass([op])
    text = results[0][2]
    header, first, *rest = text.split("\r\n")
    cells = first.split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)  # energy_nc of level 0
    bad = "\r\n".join([header, ",".join(cells), *rest])
    ref = {"outputs": [text]}
    expect(run.check_pass([op], results, ref) == {}, "unperturbed output flagged")
    perturbed = [results[0][:2] + (bad,) + results[0][3:]]
    expect(0 in run.check_pass([op], perturbed, ref), "shifted energy not flagged")
    print("ok  a bound energy shifted by 1e-6 fails the op")


def traced_counts(ops):
    tracer = tracing.Tracer()
    tracer.install()
    saved = tracer.originals()
    try:
        _, results = run.run_pass(ops, tracer)
    finally:
        tracer.restore()
    for owner, attr, fn in saved:
        expect(getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored")
    expect(not tracer.absent, f"hooks not found: {tracer.absent}")
    tracer.cap_hits = sum(r[4] for r in results)
    metrics = tracer.metrics(0.0)
    # everything but the times is made of counts
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}


def check_counts():
    for name in workloads.WORKLOADS:
        ops = workloads.generate(name, SEED)
        first, second = traced_counts(ops), traced_counts(ops)
        expect(first == second, f"{name}: counts differ: " + ", ".join(
            k for k in first if first[k] != second[k]))
        print(f"ok  {name}: {len(first)} count and ratio metrics repeat exactly; wrapped attributes restored")


def check_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = [m["name"] for m in spec["per_layer"]]
    expect(declared == list(tracing.PER_LAYER), "per_layer names differ from tracing.PER_LAYER")
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    expect(all(units[k] == u for k, u in tracing.PER_LAYER.items()), "per_layer units differ")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names differ")
    expect([m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END), "end_to_end names differ")
    expect(all(units[k] == u for k, u in run.END_TO_END.items()), "end_to_end units differ")
    print("ok  metric names and units match BENCHMARK.json")


def main() -> int:
    os.environ.pop("NCWELL_THREADS", None)
    sys.path.insert(0, str(run.SRC))
    check_names()
    check_generator()
    check_perturbation()
    check_counts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
