#!/usr/bin/env bash
# tools/json_sweep.sh — the tools' report contract, swept over the corpus.
#
#   tools/json_sweep.sh BUILD_DIR OUT_DIR
#
# Runs the four command-line tools from BUILD_DIR/tools over
# tools/programs/, one process at a time and at --threads 1, under a fixed
# matrix of flag sets:
#
#   rc11-run, rc11-race  every program, with no flags, --por, --symmetry,
#                        --rf-quotient, --por --symmetry, a seeded sample,
#                        --witness alone and with each reduction, a
#                        50-state cap alone and with --por --symmetry, and
#                        --stats with --por --symmetry and with
#                        --rf-quotient;
#   rc11-verify          the outline programs, with and without --trace,
#                        with no reduction, --por, --symmetry, --rf-quotient,
#                        a seeded sample, and --stats;
#   rc11-refine          a refining pair with no flags, --por, --symmetry,
#                        a seeded sample, --stats and --stats --por, a
#                        refuted pair with a witness with no reduction (the
#                        simulation's counterexample), with --trace-only
#                        (trace inclusion's), under --por and under
#                        --symmetry, and a capped (inconclusive) check;
#   checkpoint/resume    with no reduction, --por, --symmetry and
#                        --rf-quotient: rc11-run and rc11-race on
#                        ticket_worker capped at 50 states and dcl_broken
#                        at 20, rc11-verify on mp_verified capped at 5, each
#                        with --checkpoint, then resumed to completion.
#
# That is 1,079 runs.  For every run it writes into OUT_DIR:
#
#   NAME.json      the run's --json summary
#   NAME.out       its stdout, with OUT_DIR replaced by "OUT"
#   NAME.exit      its exit code
#   NAME.witness   its --witness file, when it wrote one
#   NAME.ckpt      its --checkpoint file, when it wrote one
#
# Single-thread reports carry no timing data, so two builds that keep the
# report contract produce identical directories: compare a sweep of each
# with `diff -r`.  That holds for --stats blocks too, as long as no run
# combines --stats with --strategy sample (its episodes/s line is a rate).  Exits 1 when a run exits outside 0-3 or writes no --json
# summary, after the whole sweep has run.

set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 1
fi
BUILD=$(cd "$1" && pwd)
mkdir -p "$2"
OUT=$(cd "$2" && pwd)
# Programs are named relative to the source root, so the reports name them
# the same way whichever checkout the sweep runs from.
cd "$(dirname "$0")/.."

runs=0
bad=0

# run NAME TOOL ARGS...  ("@W" in ARGS becomes the run's witness path, "@C"
# its checkpoint path; a run named X.resume-Y reads X.checkpoint-Y's file)
run() {
  local name=$1 tool=$2
  shift 2
  local ckpt=$OUT/${name/.resume-/.checkpoint-}.ckpt
  local args=() a
  for a in "$@"; do
    a=${a/@W/$OUT/$name.witness}
    args+=("${a/@C/$ckpt}")
  done
  local rc=0
  "$BUILD/tools/$tool" --threads 1 --json "$OUT/$name.json" "${args[@]}" \
    > "$OUT/$name.raw" 2> "$OUT/$name.err" || rc=$?
  sed "s#$OUT#OUT#g" "$OUT/$name.raw" > "$OUT/$name.out"
  echo "$rc" > "$OUT/$name.exit"
  runs=$((runs + 1))
  if [ "$rc" -gt 3 ] || [ ! -s "$OUT/$name.json" ]; then
    echo "json_sweep: $name: exit $rc$([ -s "$OUT/$name.json" ] ||
      echo ', no --json summary')" >&2
    cat "$OUT/$name.err" >&2
    bad=$((bad + 1))
  fi
  rm -f "$OUT/$name.raw" "$OUT/$name.err"
}

# name|flags; @W is the witness path.
flag_sets=(
  "default|"
  "por|--por"
  "symmetry|--symmetry"
  "rf-quotient|--rf-quotient"
  "por-symmetry|--por --symmetry"
  "sample|--strategy sample:200 --seed 7"
  "witness|--witness @W"
  "witness-por|--witness @W --por"
  "witness-symmetry|--witness @W --symmetry"
  "witness-rf-quotient|--witness @W --rf-quotient"
  "cap50|--max-states 50"
  "cap50-por-symmetry|--max-states 50 --por --symmetry"
  "stats-por-symmetry|--stats --por --symmetry"
  "stats-rf-quotient|--stats --rf-quotient"
)

for path in tools/programs/*.rc11; do
  prog=$(basename "$path" .rc11)
  for tool in rc11-run rc11-race; do
    for entry in "${flag_sets[@]}"; do
      # Word splitting of the flags is intended.
      # shellcheck disable=SC2086
      run "$tool.$prog.${entry%%|*}" "$tool" ${entry#*|} "$path"
    done
  done
done

for prog in mp_verified mp_broken_outline; do
  for reduction in "" --por --symmetry --rf-quotient; do
    for trace in "" --trace; do
      label=${reduction#--}
      # shellcheck disable=SC2086
      run "rc11-verify.$prog.${label:-default}${trace:+-trace}" rc11-verify \
        $reduction $trace "tools/programs/$prog.rc11"
    done
  done
  run "rc11-verify.$prog.sample" rc11-verify --strategy sample:200 --seed 7 \
    "tools/programs/$prog.rc11"
  run "rc11-verify.$prog.stats" rc11-verify --stats "tools/programs/$prog.rc11"
done

abstract=tools/programs/lock_client_abstract.rc11
seqlock=tools/programs/lock_client_seqlock.rc11
broken=tools/programs/lock_client_broken.rc11
run rc11-refine.seqlock rc11-refine "$abstract" "$seqlock"
run rc11-refine.seqlock-por rc11-refine --por "$abstract" "$seqlock"
run rc11-refine.seqlock-symmetry rc11-refine --symmetry "$abstract" "$seqlock"
run rc11-refine.seqlock-sample rc11-refine --strategy sample:200 --seed 7 \
  "$abstract" "$seqlock"
run rc11-refine.seqlock-stats rc11-refine --stats "$abstract" "$seqlock"
run rc11-refine.seqlock-stats-por rc11-refine --stats --por "$abstract" \
  "$seqlock"
run rc11-refine.broken-witness rc11-refine --witness @W "$abstract" "$broken"
run rc11-refine.broken-trace-only-witness rc11-refine --trace-only \
  --witness @W "$abstract" "$broken"
run rc11-refine.broken-witness-por rc11-refine --por --witness @W \
  "$abstract" "$broken"
run rc11-refine.broken-witness-symmetry rc11-refine --symmetry --witness @W \
  "$abstract" "$broken"
run rc11-refine.seqlock-cap1 rc11-refine --max-states 1 "$abstract" \
  "$seqlock"

# A capped run that saves a checkpoint, then an uncapped run resuming it.
# Each cap stops the program part way under all four reductions (dcl_broken
# has 41 states under --symmetry).
for reduction in "" --por --symmetry --rf-quotient; do
  label=${reduction#--}
  label=${label:-default}
  for tool in rc11-run rc11-race; do
    for prog_cap in ticket_worker:50 dcl_broken:20; do
      prog=${prog_cap%%:*}
      # shellcheck disable=SC2086
      run "$tool.$prog.checkpoint-$label" "$tool" --max-states ${prog_cap#*:} \
        $reduction --checkpoint @C "tools/programs/$prog.rc11"
      # shellcheck disable=SC2086
      run "$tool.$prog.resume-$label" "$tool" $reduction --resume @C \
        "tools/programs/$prog.rc11"
    done
  done
  # shellcheck disable=SC2086
  run "rc11-verify.mp_verified.checkpoint-$label" rc11-verify \
    --max-states 5 $reduction --checkpoint @C tools/programs/mp_verified.rc11
  # shellcheck disable=SC2086
  run "rc11-verify.mp_verified.resume-$label" rc11-verify $reduction \
    --resume @C tools/programs/mp_verified.rc11
done

echo "json_sweep: $runs runs into $OUT, $bad failed"
[ "$bad" -eq 0 ]
