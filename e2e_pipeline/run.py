#!/usr/bin/env python3
"""End-to-end pipeline benchmark: build e2e_pipeline, run one workload.

Run from the root of a checkout:

    python3 e2e_pipeline/run.py --workload network --seed 1 --seconds 25 \
        --trace 0

The first run configures and builds e2e_pipeline (and the sas library it
links, from the sources one directory up) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs only re-check the build.
Build output goes to standard error. The program's standard output is passed
through; its last line is the JSON result. The exit code is non-zero, with
no result printed, when the build fails, when the program fails, or when its
last line is not a well-formed result.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, out)


def build(out_dir):
    """Configures (first time only) and builds e2e_pipeline; returns it."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out_dir, "-j", jobs,
                      "--target", "e2e_pipeline"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "e2e_pipeline")


def well_formed(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    return (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict))


def main():
    binary = build(build_dir())
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: e2e_pipeline exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not well_formed(lines[-1]):
        sys.stderr.write(done.stdout)
        sys.exit("run.py: e2e_pipeline failed (exit code %d)" % done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
