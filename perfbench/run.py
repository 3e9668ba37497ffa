#!/usr/bin/env python3
"""Turnpike benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep|verify \
        --seed N --seconds S --trace 0|1 [--quick]

Builds perfbench/bench.exe with dune and runs one workload at --jobs 1:
timed rounds, each in a fresh process, until --seconds of timed work (at
least one), or with --trace 1 one untraced and one traced round. It checks
the outputs, prints a human-readable report and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json; with --trace 1 they are its per_layer metrics. The full
record (provenance, digests, every figure) is written to perfbench/out/,
and a traced run also writes a Chrome trace there. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = os.path.join("perfbench", "out")
REFERENCE = os.path.join("perfbench", "reference.json")
LAUNCHES = 9  # extra process launches; setup_s takes the median launch

# Each workload runs two parts per round; the throughput name of each part's
# work unit, reported in the record and the printed report.
RATE_NAMES = {
    "explore": "points_per_s",
    "grid": "cells_per_s",
    "campaign": "faults_per_s",
    "compile": "kernels_per_s",
}

def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes, for the self-test")
    return ap.parse_args()


def check_checkout():
    for path in ["dune-project", "lib", "examples", "BENCHMARK.json",
                 os.path.join("perfbench", "dune")]:
        if not os.path.exists(path):
            die("%s not found: run from the root of a full source checkout" % path)


def build():
    # No shared dune cache: the build writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850,
            env=env)
    except FileNotFoundError:
        die("dune not found on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build failed", 1)


def source_digest():
    """Content hash of the sources the benchmark builds; stands in for the
    commit id when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["lib", "perfbench", "dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top)
            if not d.startswith(OUT) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        return proc.stdout.strip() or None if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def launch_samples(n):
    """Seconds from spawning bench.exe to its first line of OCaml, n times."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([EXE, "--workload", "launch", "--t0", repr(time.time())],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            die("bench.exe failed to launch", 1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["launch_s"])
    return samples


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def identical_flags(digests, args):
    """Compare each output digest with the one recorded from the seed commit.
    None when no reference exists for this workload, seed and size."""
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    except (OSError, ValueError):
        ref = {}
    size = "quick" if args.quick else "full"
    by_seed = ref.get(size, {}).get(args.workload, {})
    want = dict(by_seed.get("*", {}), **by_seed.get(str(args.seed), {}))
    return {k + "_identical": (want[k] == v if k in want else None)
            for k, v in sorted(digests.items())}


def bench(args, trace=False, check=True, chrome=None):
    """One bench.exe process: set-up, one timed round, optional output check."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed)]
    if trace:
        cmd += ["--trace"] + (["--chrome", chrome] if chrome else [])
    if not check:
        cmd += ["--no-check"]
    if args.quick:
        cmd += ["--quick"]
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        die("workload %s timed out" % args.workload, 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die("bench.exe exited with code %d" % proc.returncode, 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    os.chdir(ROOT)
    check_checkout()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r; known: %s" % (args.workload, ", ".join(names)))
    build()
    launches = launch_samples(LAUNCHES)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d%s" % (
        args.workload, args.seed, args.trace, "-quick" if args.quick else ""))

    # Untraced rounds, one fresh process each, until --seconds of timed work;
    # only the first checks its outputs, the others must repeat its digests.
    rounds = [bench(args)]
    while not args.trace and sum(r["wall_s"] for r in rounds) < args.seconds:
        rounds.append(bench(args, check=False))
    first = rounds[0]
    deterministic = all(r["digests"] == first["digests"] for r in rounds)
    traced = None
    if args.trace:
        traced = bench(args, trace=True, chrome=stem + ".chrome.json")
    launches += [r["launch_s"] for r in rounds]
    walls = [r["wall_s"] for r in rounds]
    setups = [statistics.median(r["setup_reps_s"]) for r in rounds]
    wall = statistics.median(walls)
    q1, q3 = quartiles(walls)
    launch = statistics.median(launches)
    ops, failed = first["ops"], len(first["failures"])
    e2e = {
        "wall_s": wall,
        "setup_s": launch + statistics.median(setups),
        "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in rounds),
    }
    # Per part: median seconds over the rounds, and work units per second.
    part_s = {k: statistics.median(r["parts"][k] for r in rounds) for k in first["parts"]}
    rates = {RATE_NAMES[k]: first["part_items"][k] / v for k, v in part_s.items()}
    digests = dict(first["digests"])
    reproduced = None
    if traced:
        # The traced round must reproduce every untraced output exactly.
        reproduced = (all(traced["digests"].get(k) == v for k, v in digests.items())
                      and traced["failures"] == first["failures"])
        digests.update(traced["digests"])
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - first["wall_s"]
    correct = (deterministic and ops >= 1 and first["items"] >= 1
               and reproduced is not False
               and all(math.isfinite(v) and v > 0 for v in e2e.values()))
    values, wanted = (layers, spec["per_layer"]) if traced else (e2e, spec["end_to_end"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("metrics not produced: " + ", ".join(missing), 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    flags = identical_flags(digests, args)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick,
        "host": {"nproc": os.cpu_count(), "ocaml": first["ocaml"], "jobs": first["jobs"],
                 "commit": commit(), "source_digest": source_digest()},
        "wall_s": {"median": wall, "q1": q1, "q3": q3, "n": len(walls), "rounds": walls,
                   "cpu_s": [r["cpu_s"] for r in rounds]},
        "setup_s": {"value": e2e["setup_s"], "launch_median_s": launch,
                    "launches_s": launches, "work_s": setups},
        "peak_heap_mb": e2e["peak_heap_mb"],
        "parts_s": part_s, "parts_rounds_s": [r["parts"] for r in rounds],
        "part_items": first["part_items"], "rates": rates,
        "attempted": ops, "failed": failed, "fail_frac": failed / ops,
        "failures": first["failures"], "extras": first["extras"],
        "digests": digests, "flags": flags, "deterministic": deterministic,
        "host_dependent": ["wall_s", "setup_s", "parts_s"] + sorted(rates)
                          + ["layer seconds, rates and percentiles"],
        "portable": ["attempted", "failed", "digests", "peak_heap_mb"]
                    + sorted(first["extras"])
                    + ["layer counts, minor words per unit, simulated counters"],
        "metrics": metrics,
    }
    if traced:
        record.update(reproduced=reproduced, layers=layers, spans=traced["spans"],
                      spans_dropped=traced["spans_dropped"])
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    h = record["host"]
    print("perfbench %s seed=%d trace=%d%s | nproc=%s ocaml=%s jobs=%s commit=%s source=%s"
          % (args.workload, args.seed, args.trace, " quick" if args.quick else "",
             h["nproc"], h["ocaml"], h["jobs"], h["commit"], h["source_digest"]))
    print("  wall_s        %.4f s  (median of %d rounds, q1 %.4f, q3 %.4f)  [host-dependent]"
          % (wall, len(walls), q1, q3))
    print("  setup_s       %.4f s  (median of %d launches %.4f + median set-up %.4f)"
          "  [host-dependent]" % (e2e["setup_s"], len(launches), launch,
                                  statistics.median(setups)))
    print("  peak_heap_mb  %.1f MB" % e2e["peak_heap_mb"])
    for k, v in part_s.items():
        name = RATE_NAMES[k]
        print("  %-13s %.3f 1/s  (%s part: %d units, median %.4f s)  [host-dependent]"
              % (name, rates[name], k, first["part_items"][k], v))
    print("  fail_frac     %.6f  (%d of %d ops failed)" % (failed / ops, failed, ops))
    for f in first["failures"][:10]:
        print("    failed: " + f)
    for k, v in sorted(first["extras"].items()):
        print("  %-13s %.6g  [portable]" % (k, v))
    for k, v in flags.items():
        print("  %s: %s" % (k, "no reference" if v is None else str(v).lower()))
    if traced:
        print("  traced wall %.4f s, overhead %+.4f s, spans %d, self-time share %.4f, "
              "reproduced %s" % (traced["wall_s"], layers["trace.overhead_s"],
                                 traced["spans"], layers["trace.self_share"],
                                 str(reproduced).lower()))
    print("  record: %s.json" % stem)
    print(json.dumps({"correct": bool(correct), "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
