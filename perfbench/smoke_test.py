#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json in smoke mode (tiny sizes, a few
seconds each), untraced and traced, and checks that

  - the last stdout line is the JSON result, with correct == true;
  - every end_to_end metric (untraced) or per_layer metric (traced)
    that BENCHMARK.json names is emitted, with the unit it names;
  - malformed arguments exit nonzero with a message, never an abort,
    and print no result.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, timeout=300):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def check_result(spec, workload, trace, errors):
    p = run(["--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--mode", "smoke"])
    what = "%s --trace %d" % (workload, trace)
    if p.returncode != 0:
        errors.append("%s: exit %d: %s" % (what, p.returncode,
                                           p.stderr[-500:]))
        return
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (what, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correctness checks failed" % what)
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in want):
        errors.append("%s: metric names differ: extra %s, missing %s" % (
            what, sorted(set(got) - {m["name"] for m in want}),
            sorted({m["name"] for m in want} - set(got))))
    for m in want:
        entry = got.get(m["name"])
        if entry and entry.get("unit") != m["unit"]:
            errors.append("%s: %s has unit %r, expected %r" % (
                what, m["name"], entry.get("unit"), m["unit"]))


def check_rejected(args, errors):
    p = run(args)
    what = " ".join(args)
    if p.returncode <= 0 or p.returncode >= 128:
        errors.append("%s: exit %d, expected a clean nonzero exit" % (
            what, p.returncode))
    if "e2e:" not in p.stderr:
        errors.append("%s: no error message on stderr" % what)
    if '"correct"' in p.stdout:
        errors.append("%s: printed a result" % what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, errors)
    ok = ["--workload", spec["workloads"][0]["name"]]
    for bad in (["--workload", "no-such-workload"],
                ok + ["--seed", "abc"],
                ok + ["--seconds", "10s"],
                ok + ["--trace", "2"],
                ok + ["--mode", "fast"],
                ok + ["--bogus"]):
        check_rejected(bad, errors)
    for e in errors:
        print("FAIL:", e)
    print("smoke test: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
