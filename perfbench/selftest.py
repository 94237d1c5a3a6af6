#!/usr/bin/env python3
"""Self-tests of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: one instance per workload, untraced and traced, prints every metric
   declared in BENCHMARK.json with its declared unit, and exits 0.
2. Tampering: a corrupted audit and a corrupted deployment are each counted
   as failures, and the run exits non-zero.
3. Determinism: on the serial workloads the count metrics milp.nodes,
   lp.root.pivots and model.rows are identical across two runs.

Exits 0 when every test passes; prints one line per test.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SERIAL = ["prove-2x2", "budget-3x3", "paper-4x4"]
COUNTS = ["milp.nodes", "lp.root.pivots", "model.rows"]


def bench(workload, trace, seed=1, tamper="none"):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--instances", "1", "--tamper", tamper]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    def report(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    first = {}
    for w in workloads:
        for trace in (0, 1):
            code, res = bench(w, trace)
            ok = code == 0 and res is not None and res["correct"] and res["failed"] == 0
            missing = []
            if res is not None:
                for m in declared[trace]:
                    got = res["metrics"].get(m["name"])
                    if got is None or got.get("unit") != m["unit"]:
                        missing.append(m["name"])
            report(ok and not missing,
                   "smoke %s trace=%d prints every declared metric%s"
                   % (w, trace, (" (missing: %s)" % ", ".join(missing)) if missing else ""))
            if trace == 1 and res is not None:
                first[w] = res["metrics"]

    for w, tamper in (("prove-2x2", "audit"), ("prove-2x2", "deployment"),
                      ("paper-4x4", "deployment")):
        code, res = bench(w, 0, tamper=tamper)
        report(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
               "tampered %s on %s is counted and exits non-zero" % (tamper, w))

    for w in SERIAL:
        code, res = bench(w, 1)
        if res is None or w not in first:
            report(False, "determinism %s: no result" % w)
            continue
        diff = [c for c in COUNTS if res["metrics"][c]["value"] != first[w][c]["value"]]
        report(not diff, "determinism %s: %s identical across runs%s"
               % (w, ", ".join(COUNTS), (" (differ: %s)" % ", ".join(diff)) if diff else ""))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
