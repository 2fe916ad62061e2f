#!/usr/bin/env python3
"""Smoke self-test of the end-to-end pipeline benchmark.

Run from the root of a checkout:

    python3 e2e_pipeline/smoke_test.py

Runs every workload of BENCHMARK.json at the tiny "smoke" scale, once
untraced and once traced, and asserts that

  * the result line has exactly the keys correct/attempted/failed/metrics,
    with correct == true, failed == 0 and attempted >= 1;
  * every end-to-end metric (untraced) or per-layer metric (traced) is
    printed, under its unit, as a finite number, and nothing else is;
  * every end-to-end metric is non-zero;
  * the traced run replayed every aware and product build bit for bit, and
    its phases plus residual add up to the build time;
  * rationale.json describes exactly the workloads and end-to-end metrics
    of BENCHMARK.json, and maps every per-layer metric to the end-to-end
    metric it should move.

Last, it copies BENCHMARK.json and the benchmark directory alone into a
scratch directory and checks that the benchmark exits non-zero there
without printing a result (there is no library source to build).

This catches a benchmark that silently stops measuring. Exit code 0 means
every check passed.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECONCILE = re.compile(
    r"^# reconcile (\w+) builds=(\d+) identical=(\d+) sum_gap=(\S+)$")


def fail(msg):
    sys.exit("smoke_test: FAIL: " + msg)


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "e2e_pipeline", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(stdout, metrics, what):
    result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%s failed=%s" % (what, result["correct"],
                                           result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%r" % (what, result["attempted"]))
    printed = result["metrics"]
    want = {m["name"]: m["unit"] for m in metrics}
    if set(printed) != set(want):
        fail("%s: missing %s, unexpected %s" % (
            what, sorted(set(want) - set(printed)),
            sorted(set(printed) - set(want))))
    for name, unit in want.items():
        value = printed[name]["value"]
        if printed[name]["unit"] != unit:
            fail("%s: %s unit %r, want %r" % (what, name, printed[name]["unit"],
                                              unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s value %r" % (what, name, value))
    return printed


def check_reconcile(stdout, what):
    seen = {}
    for line in stdout.split("\n"):
        m = RECONCILE.match(line)
        if m:
            seen[m.group(1)] = (int(m.group(2)), int(m.group(3)),
                                float(m.group(4)))
    for key in ("aware", "product"):
        if key not in seen:
            fail("%s: no reconcile line for %s" % (what, key))
        builds, identical, gap = seen[key]
        if builds < 1 or identical != builds:
            fail("%s: %s replays %d of %d bit-identical" % (what, key,
                                                           identical, builds))
        if gap > 1e-9:
            fail("%s: %s phases + residual miss the build time by %g" % (
                what, key, gap))


def check_rationale(bench):
    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    for section, names in (
            ("workloads", {w["name"] for w in bench["workloads"]}),
            ("end_to_end", e2e),
            ("per_layer", {m["name"] for m in bench["per_layer"]})):
        if set(rationale[section]) != names:
            fail("rationale.json %s: missing %s, unexpected %s" % (
                section, sorted(names - set(rationale[section])),
                sorted(set(rationale[section]) - names)))
    for name, entry in rationale["per_layer"].items():
        if entry["moves"] is not None and entry["moves"] not in e2e:
            fail("rationale.json: %s moves unknown metric %r" % (
                name, entry["moves"]))


def check_bare_directory():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2e_pipeline"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "network", 0)
        if done.returncode == 0 or done.stdout.strip():
            fail("bare directory: exit %d, stdout %r" % (done.returncode,
                                                         done.stdout[-200:]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_rationale(bench)
    print("smoke_test: ok rationale.json")
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, metrics in ((0, bench["end_to_end"]),
                               (1, bench["per_layer"])):
            what = "%s --trace %d" % (workload, trace)
            done = run(ROOT, workload, trace)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-2000:])
                fail("%s: exit code %d" % (what, done.returncode))
            printed = check_result(done.stdout, metrics, what)
            if trace:
                check_reconcile(done.stdout, what)
            else:
                zero = [n for n, v in printed.items() if v["value"] == 0]
                if zero:
                    fail("%s: zero-valued metrics %s" % (what, zero))
            print("smoke_test: ok %s" % what)
    check_bare_directory()
    print("smoke_test: ok bare directory refuses to run")


if __name__ == "__main__":
    main()
