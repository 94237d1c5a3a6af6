#!/usr/bin/env python3
"""Build and run the perfbench binary for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload prove-2x2 --seed 1 --seconds 28 --trace 0

The binary (perfbench/cpp) is compiled together with the library sources in
src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on the
first run; later runs rebuild incrementally. Build output goes to a log file
in that directory. The binary's standard output is passed through: its last
line is the JSON result. The exit status is the binary's (0 = every check
passed); a failed build or a missing library tree exits 1 without a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configure (once) and build the binary; return its path or exit 1."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next to perfbench/\n")
        sys.exit(1)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                sys.exit(1)
    return os.path.join(out, "perfbench")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--instances", type=int, default=0,
                    help="run only the first K corpus instances (smoke runs)")
    ap.add_argument("--tamper", default="none", choices=["none", "audit", "deployment"],
                    help="corrupt one output before it is checked (self-test)")
    return ap.parse_args(argv)


def run(argv):
    args = parse_args(argv)
    exe = build()
    trace_out = os.path.join(build_dir(), "trace-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--instances", str(args.instances), "--tamper", args.tamper,
           "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the binary; print no partial result.
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        # No well-formed result: never let a partial line pass for one.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("perfbench: binary exited %d without a result line\n" % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
