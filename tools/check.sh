#!/usr/bin/env bash
# Tier-1 gate plus the parallel-determinism smoke tests.
#
#   tools/check.sh            build, run the test suite, then verify that
#                             --jobs 1 and --jobs 4 produce byte-identical
#                             output for the experiment grid (fig19 CSV),
#                             the fault-injection campaign (resilience
#                             table), and the telemetry timeline export
#                             (turnpike-cli trace), which must also be
#                             well-formed JSON. Also asserts that
#                             snapshot-forked campaigns are byte-identical
#                             to from-scratch replays, that --ci stopping
#                             is deterministic at any job count, that the
#                             incremental per-pass lint report is
#                             byte-identical to the forced full re-check,
#                             that forensic lifecycle exports are
#                             byte-identical at any job count and across
#                             fork vs scratch replay (and that the report
#                             subcommand convicts a planted compiler bug),
#                             that .tk kernel compiles and campaigns are
#                             byte-identical at any job count, that a bad
#                             --pipeline spec exits 1 with a diagnostic,
#                             that every command block in docs/TUTORIAL.md
#                             runs verbatim, that each bench/main.exe cost
#                             section passes its divergence checks at tiny
#                             size, that --profile honours later flags,
#                             that a bad --csv directory exits 2 in the
#                             bench harness and in every turnpike-cli
#                             subcommand that takes one, that the
#                             benchmark's quick sweep and verify runs
#                             reproduce every recorded output digest, and
#                             (advisorily) that the odoc docs build.
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== determinism smoke: fig19 CSV at --jobs 1 vs --jobs 4 =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/csv1" "$tmp/csv4"
dune exec --no-build bench/main.exe -- fig19 --scale 1 --fuel 20000 \
  --jobs 1 --csv "$tmp/csv1" > "$tmp/fig19_j1.txt"
dune exec --no-build bench/main.exe -- fig19 --scale 1 --fuel 20000 \
  --jobs 4 --csv "$tmp/csv4" > "$tmp/fig19_j4.txt"
diff -r "$tmp/csv1" "$tmp/csv4"
# The "[csv written to ...]" line names the (different) temp dirs; every
# other stdout byte must match.
diff <(grep -v '^\[csv written' "$tmp/fig19_j1.txt") \
     <(grep -v '^\[csv written' "$tmp/fig19_j4.txt")

echo "== determinism smoke: injection campaign at --jobs 1 vs --jobs 4 =="
dune exec --no-build bench/main.exe -- resilience --scale 2 --fuel 20000 \
  --faults 8 --seed 3 --jobs 1 > "$tmp/camp_j1.txt"
dune exec --no-build bench/main.exe -- resilience --scale 2 --fuel 20000 \
  --faults 8 --seed 3 --jobs 4 > "$tmp/camp_j4.txt"
diff "$tmp/camp_j1.txt" "$tmp/camp_j4.txt"

echo "== campaign smoke: snapshot-forked vs from-scratch parity =="
# The snapshot/fork replay path (default) must produce a report
# byte-identical to replaying every fault from step 0.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 2 > "$tmp/inject_snap.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 2 --scratch > "$tmp/inject_scratch.txt"
diff "$tmp/inject_snap.txt" "$tmp/inject_scratch.txt"
# A 64-step cadence makes far more convergence checks against copied
# executor state, on a suite benchmark and on a .tk kernel.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --snapshot-every 64 > "$tmp/inject_snap64.txt"
diff "$tmp/inject_snap64.txt" "$tmp/inject_scratch.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b examples/triad.tk \
  --scale 2 -n 16 --seed 3 --snapshot-every 64 > "$tmp/tk_inject_snap64.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b examples/triad.tk \
  --scale 2 -n 16 --seed 3 --scratch > "$tmp/tk_inject_scratch.txt"
diff "$tmp/tk_inject_snap64.txt" "$tmp/tk_inject_scratch.txt"
# mcf@2017 has the suite's largest data footprint: the most pages for
# copy-on-write forks to share and for convergence checks to compare.
dune exec --no-build bin/turnpike_cli.exe -- inject -b mcf@2017 --scale 2 \
  -n 16 --seed 3 --snapshot-every 64 > "$tmp/mcf_inject_snap64.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b mcf@2017 --scale 2 \
  -n 16 --seed 3 --scratch > "$tmp/mcf_inject_scratch.txt"
diff "$tmp/mcf_inject_snap64.txt" "$tmp/mcf_inject_scratch.txt"

echo "== campaign smoke: --ci stopping deterministic at --jobs 1 vs --jobs 4 =="
# Same seed and CI target => identical stopping point and report at any
# job count.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 200 --seed 3 --ci 0.05 --batch 16 --jobs 1 > "$tmp/inject_ci_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 200 --seed 3 --ci 0.05 --batch 16 --jobs 4 > "$tmp/inject_ci_j4.txt"
diff "$tmp/inject_ci_j1.txt" "$tmp/inject_ci_j4.txt"
grep -q 'confidence' "$tmp/inject_ci_j1.txt"

echo "== forensics smoke: lifecycle export at --jobs 1 vs --jobs 4 =="
# Per-fault lifecycle traces (strike, detect, rollback, reexec,
# reconverge, outcome) must export byte-identically at any job count.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 1 --forensics --jsonl "$tmp/forensics_j1.jsonl" \
  > "$tmp/forensics_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 4 --forensics --jsonl "$tmp/forensics_j4.jsonl" \
  > "$tmp/forensics_j4.txt"
diff "$tmp/forensics_j1.jsonl" "$tmp/forensics_j4.jsonl"
diff "$tmp/forensics_j1.txt" "$tmp/forensics_j4.txt"
grep -q '"name":"strike"' "$tmp/forensics_j1.jsonl"

echo "== forensics smoke: fork vs scratch lifecycle parity =="
# Snapshot-forked and from-scratch replays must trace identical
# lifecycles, byte for byte.
dune exec --no-build bin/turnpike_cli.exe -- inject -b libquan --scale 2 \
  -n 16 --seed 3 --jobs 2 --scratch --jsonl "$tmp/forensics_scratch.jsonl" \
  > /dev/null
diff "$tmp/forensics_j1.jsonl" "$tmp/forensics_scratch.jsonl"

echo "== forensics smoke: report convicts the drop-ckpt mutant =="
# The vulnerability ranking must localize a planted compiler bug: the
# top-ranked region is one that lost its live-in checkpoint (the command
# exits non-zero otherwise).
dune exec --no-build bin/turnpike_cli.exe -- report -b mcf --scale 2 -n 40 \
  --seed 11 --jobs 2 --mutant drop-ckpt > "$tmp/report_mutant.txt"
grep -q 'CONVICTED' "$tmp/report_mutant.txt"

echo "== telemetry smoke: timeline export at --jobs 1 vs --jobs 4 =="
dune exec --no-build bin/turnpike_cli.exe -- trace -b libquan --scale 1 \
  --jobs 1 --timeline "$tmp/trace_j1.json" --jsonl "$tmp/trace_j1.jsonl" \
  > "$tmp/trace_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- trace -b libquan --scale 1 \
  --jobs 4 --timeline "$tmp/trace_j4.json" --jsonl "$tmp/trace_j4.jsonl" \
  > "$tmp/trace_j4.txt"
test -s "$tmp/trace_j1.json"
grep -q '"traceEvents"' "$tmp/trace_j1.json"
grep -q '"verify_window"' "$tmp/trace_j1.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$tmp/trace_j1.json" > /dev/null
else
  echo "(python3 not found; skipping JSON syntax validation)"
fi
diff "$tmp/trace_j1.json" "$tmp/trace_j4.json"
diff "$tmp/trace_j1.jsonl" "$tmp/trace_j4.jsonl"
diff "$tmp/trace_j1.txt" "$tmp/trace_j4.txt"

echo "== lint smoke: static soundness checks over every workload =="
# Clean exit (0) is asserted by set -e; every ladder rung of every
# benchmark must produce zero Error diagnostics in per-pass mode.
dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass --scale 2 \
  --jobs 1 --json > "$tmp/lint_j1.json"
grep -q '"errors":0' "$tmp/lint_j1.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$tmp/lint_j1.json" > /dev/null
fi
# Byte-identical report at any job count.
dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass --scale 2 \
  --jobs 4 --json > "$tmp/lint_j4.json"
diff "$tmp/lint_j1.json" "$tmp/lint_j4.json"
# The failure path exits non-zero (unknown scheme).
if dune exec --no-build bin/turnpike_cli.exe -- lint -s no-such-scheme \
     > /dev/null 2>&1; then
  echo "lint should have failed on an unknown scheme" >&2
  exit 1
fi

echo "== lint smoke: incremental vs full re-check byte parity =="
# The incremental per-pass engine (facet invalidation) must produce a
# report byte-identical to the forced non-incremental oracle.
for b in mcf radix; do
  dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass -b "$b" \
    --scale 2 --jobs 1 --json > "$tmp/lint_${b}_inc.json"
  dune exec --no-build bin/turnpike_cli.exe -- lint --per-pass --full-recheck \
    -b "$b" --scale 2 --jobs 1 --json > "$tmp/lint_${b}_full.json"
  diff "$tmp/lint_${b}_inc.json" "$tmp/lint_${b}_full.json"
done

echo "== explore smoke: tiny design grid at --jobs 1 vs --jobs 4 =="
# The design-space explorer (successive halving + Pareto frontier) must
# emit byte-identical CSV artifacts and stdout at any job count, and its
# frontier must re-validate at full scale (non-zero exit otherwise).
dune exec --no-build bin/turnpike_cli.exe -- explore --grid tiny --scale 1 \
  --jobs 1 --csv "$tmp/explore1" > "$tmp/explore_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- explore --grid tiny --scale 1 \
  --jobs 4 --csv "$tmp/explore4" > "$tmp/explore_j4.txt"
diff -r "$tmp/explore1" "$tmp/explore4"
diff <(grep -v '^\[csv written' "$tmp/explore_j1.txt") \
     <(grep -v '^\[csv written' "$tmp/explore_j4.txt")
grep -q 're-validation at full scale: ok' "$tmp/explore_j1.txt"
test -s "$tmp/explore1/explore_grid.csv"
test -s "$tmp/explore1/explore_pareto.csv"

echo "== bench sections: cost sections at tiny size =="
# Each section times its modes against each other and exits 1 when they
# disagree: per-pass vs full re-check diagnostics and vuln tables across
# check modes (analysis), scratch vs fork vs fork+forensics campaign
# reports (replay), frontier re-validation and <= 50% promotion
# (halving).
dune exec --no-build bench/main.exe -- analysis --scale 1 > "$tmp/sec_analysis.txt"
grep -q 'per-pass = full-recheck' "$tmp/sec_analysis.txt"
dune exec --no-build bench/main.exe -- replay --scale 1 --faults 4 \
  > "$tmp/sec_replay.txt"
grep -q 'reports identical in every mode' "$tmp/sec_replay.txt"
dune exec --no-build bench/main.exe -- halving --grid tiny --scale 1 \
  --fuel 20000 > "$tmp/sec_halving.txt"
grep -q 'frontier re-validated at full scale' "$tmp/sec_halving.txt"

echo "== bench smoke: --profile honours flags given after it =="
dune exec --no-build bench/main.exe -- --profile --scale 1 > "$tmp/profile.txt"
grep -q 'turnpike opts, scale 1)' "$tmp/profile.txt"

echo "== bench smoke: a bad --csv directory exits 2 before any experiment =="
status=0
dune exec --no-build bench/main.exe -- --csv "$tmp/missing/dir" fig18 \
  > "$tmp/badcsv.txt" 2> "$tmp/badcsv.err" || status=$?
test "$status" -eq 2
test ! -s "$tmp/badcsv.txt"
grep -q -- '--csv' "$tmp/badcsv.err"

echo "== cli smoke: a bad --csv directory exits 2 before any work =="
for cmd in "explore --grid tiny --scale 1" "inject -b libquan -n 2 --scale 1" \
    "report -b libquan --scale 1" "lint --vuln -b libquan --scale 1"; do
  status=0
  dune exec --no-build bin/turnpike_cli.exe -- $cmd --csv "$tmp/missing/dir" \
    > "$tmp/badcsv_cli.txt" 2> "$tmp/badcsv_cli.err" || status=$?
  test "$status" -eq 2
  test ! -s "$tmp/badcsv_cli.txt"
  grep -q -- '--csv' "$tmp/badcsv_cli.err"
done

echo "== vuln smoke: static ACE/AVF tables at --jobs 1 vs --jobs 4 =="
# The static vulnerability report must be byte-identical at any job
# count, rank at least one region, and never inject a fault.
dune exec --no-build bin/turnpike_cli.exe -- lint --vuln -b mcf --scale 2 \
  --jobs 1 --json > "$tmp/vuln_j1.json"
dune exec --no-build bin/turnpike_cli.exe -- lint --vuln -b mcf --scale 2 \
  --jobs 4 --json > "$tmp/vuln_j4.json"
diff "$tmp/vuln_j1.json" "$tmp/vuln_j4.json"
grep -q '"predicted_avf"' "$tmp/vuln_j1.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$tmp/vuln_j1.json" > /dev/null
fi
dune exec --no-build bin/turnpike_cli.exe -- lint --vuln -b mcf --scale 2 \
  --jobs 1 --csv "$tmp/vulncsv" > /dev/null
test -s "$tmp/vulncsv/vuln_by_region.csv"
test -s "$tmp/vulncsv/vuln_by_register.csv"
test -s "$tmp/vulncsv/vuln_by_site.csv"
# The static ranking must be comparable against a real campaign's
# forensics tables from the report CLI.
dune exec --no-build bin/turnpike_cli.exe -- report -b mcf --scale 2 -n 40 \
  --seed 11 --compare-static > "$tmp/vuln_compare.txt"
grep -q 'static-vs-dynamic rank agreement' "$tmp/vuln_compare.txt"

echo "== .tk smoke: compile + campaign byte-identical at --jobs 1 vs --jobs 4 =="
# The .tk frontend feeds the same deterministic machinery: the compile
# listing and a fault campaign on a user kernel must not depend on the
# worker count.
dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
  --scale 2 --jobs 1 --pipeline=default > "$tmp/tk_compile_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
  --scale 2 --jobs 4 --pipeline=default > "$tmp/tk_compile_j4.txt"
diff "$tmp/tk_compile_j1.txt" "$tmp/tk_compile_j4.txt"
grep -q 'passes:' "$tmp/tk_compile_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b examples/triad.tk \
  --scale 2 -n 16 --seed 3 --jobs 1 > "$tmp/tk_inject_j1.txt"
dune exec --no-build bin/turnpike_cli.exe -- inject -b examples/triad.tk \
  --scale 2 -n 16 --seed 3 --jobs 4 > "$tmp/tk_inject_j4.txt"
diff "$tmp/tk_inject_j1.txt" "$tmp/tk_inject_j4.txt"
grep -q 'triad@tk' "$tmp/tk_inject_j1.txt"

echo "== .tk smoke: bad --pipeline specs exit 1 with a diagnostic =="
if dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
     --pipeline=nope > /dev/null 2> "$tmp/pipe_unknown.err"; then
  echo "compile should have rejected an unknown pass" >&2
  exit 1
fi
grep -q "unknown pass \`nope'" "$tmp/pipe_unknown.err"
if dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
     --pipeline=-regalloc > /dev/null 2> "$tmp/pipe_mandatory.err"; then
  echo "compile should have rejected dropping a mandatory pass" >&2
  exit 1
fi
grep -q 'mandatory' "$tmp/pipe_mandatory.err"
if dune exec --no-build bin/turnpike_cli.exe -- compile examples/triad.tk \
     --pipeline=regalloc,livm,partition_and_checkpoint,region_metadata \
     > /dev/null 2> "$tmp/pipe_order.err"; then
  echo "compile should have rejected an unsound pass order" >&2
  exit 1
fi
grep -q 'must run before' "$tmp/pipe_order.err"

echo "== tutorial smoke: docs/TUTORIAL.md command blocks run verbatim =="
# Every ```sh block in the tutorial executes in a scratch directory with
# turnpike-cli shimmed to the freshly built binary.
repo="$PWD"
mkdir -p "$tmp/shim" "$tmp/tutorial"
printf '#!/usr/bin/env bash\nexec "%s/_build/default/bin/turnpike_cli.exe" "$@"\n' \
  "$repo" > "$tmp/shim/turnpike-cli"
chmod +x "$tmp/shim/turnpike-cli"
awk '/^```sh$/ { run = 1; next } /^```$/ { run = 0 } run' docs/TUTORIAL.md \
  > "$tmp/tutorial/script.sh"
grep -q 'turnpike-cli report' "$tmp/tutorial/script.sh"
(cd "$tmp/tutorial" && PATH="$tmp/shim:$PATH" bash -euo pipefail script.sh \
  > tutorial.log)
test -s "$tmp/tutorial/vuln.json"
grep -q 'confidence' "$tmp/tutorial/tutorial.log"

echo "== perfbench smoke: quick runs reproduce the recorded digests =="
# Sweep rows and Sim_stats, the explore frontier, campaign reports and the
# lint/static/vuln digests must match perfbench/reference.json: every
# printed *_identical flag must read true.
if command -v python3 > /dev/null 2>&1; then
  for w in sweep verify; do
    python3 perfbench/run.py --workload "$w" --quick --seed 2 --seconds 1 \
      --trace 1 > "$tmp/perfbench_$w.txt"
    grep -q '_identical: ' "$tmp/perfbench_$w.txt"
    if grep '_identical: ' "$tmp/perfbench_$w.txt" | grep -qv '_identical: true$'; then
      echo "perfbench $w: an output digest differs from the reference" >&2
      grep '_identical: ' "$tmp/perfbench_$w.txt" >&2
      exit 1
    fi
  done
else
  echo "(python3 not found; skipping the perfbench digest smoke)"
fi

echo "== docs smoke: odoc build (advisory) =="
if command -v odoc > /dev/null 2>&1; then
  if ! dune build @doc > "$tmp/odoc.log" 2>&1; then
    echo "(advisory) dune build @doc failed:" >&2
    cat "$tmp/odoc.log" >&2
  fi
else
  echo "(odoc not found; skipping doc build)"
fi

echo "check.sh: OK"
