#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --quick size twice untraced and
twice traced, and checks that:
  - each run exits 0 and reports correct, with every end_to_end (untraced)
    or per_layer (traced) metric of BENCHMARK.json and nothing else;
  - attempted/failed counts, failure list, output digests and portable
    figures repeat exactly across the two invocations;
  - the traced run reproduces the untraced digests, and its per-layer
    counts, simulated counters and minor words per unit repeat exactly.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_UNITS = {"count", "cycles", "words"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_path = [l.split(": ", 1)[1] for l in lines if l.strip().startswith("record: ")][0]
    with open(record_path) as fh:
        return result, json.load(fh)


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def same(what, a, b):
    if a != b:
        fail("%s differs between invocations: %r vs %r" % (what, a, b))


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for w in [w["name"] for w in spec["workloads"]]:
        runs = {t: [run(w, t), run(w, t)] for t in (0, 1)}
        for t, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for result, _ in runs[t]:
                if not result["correct"]:
                    fail("%s trace=%d reported correct=false" % (w, t))
                same("%s trace=%d metric names" % (w, t),
                     sorted(result["metrics"]), sorted(m["name"] for m in wanted))
            (r1, rec1), (r2, rec2) = runs[t]
            for key in ["attempted", "failed"]:
                same("%s trace=%d %s" % (w, t, key), r1[key], r2[key])
            for key in ["failures", "digests", "extras", "peak_heap_mb"]:
                same("%s trace=%d %s" % (w, t, key), rec1[key], rec2[key])
        untraced = runs[0][0][1]
        for _, rec in runs[1]:
            for k, v in untraced["digests"].items():
                same("%s traced digest %s" % (w, k), v, rec["digests"].get(k))
            if not rec["reproduced"]:
                fail("%s traced run did not reproduce the untraced outputs" % w)
        (t1, _), (t2, _) = runs[1]
        for m in spec["per_layer"]:
            if m["unit"] in EXACT_UNITS:
                same("%s %s" % (w, m["name"]), t1["metrics"][m["name"]]["value"],
                     t2["metrics"][m["name"]]["value"])
        print("selftest: %s ok (%d ops, digests %s)" % (
            w, untraced["attempted"], ", ".join(sorted(untraced["digests"]))))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
