#!/usr/bin/env sh
# Regenerates every checked-in bench baseline (bench/baseline_*.json) from a
# real bench run — the one reviewed command to run when a deliberate change
# moves the numbers.  Commit the refreshed baselines alongside that change;
# CI (check_bench_regression.py) diffs each bench's --json report against
# these files with exact state counts and a 30% throughput tolerance.
#
# Usage: tools/refresh_baselines.sh [BUILD_DIR]   (default: build)
#
# Notes:
#   * Run from the repository root on a quiet machine — wall-clock feeds the
#     states_per_s guard.
#   * Every bench runs to completion even when an earlier one fails: the
#     summary table at the end shows one OK / MISMATCH / BUILD-FAILED /
#     RUN-FAILED line per baseline, and the script exits nonzero if any row
#     is not OK.  A MISMATCH baseline is NOT written over — a refresh must
#     never launder a broken headline into CI.

set -u

build_dir=${1:-build}
repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

if [ ! -d "$build_dir" ]; then
  echo "error: build directory '$build_dir' not found (configure first:" \
       "cmake -B $build_dir -S .)" >&2
  exit 1
fi

summary=""
failed=0

# baseline file <- bench binary, as wired in .github/workflows/ci.yml.
refresh() {
  baseline=$1
  bench=$2
  echo "=== $bench -> bench/$baseline ==="
  if ! cmake --build "$build_dir" -j --target "$bench"; then
    summary="$summary$baseline $bench BUILD-FAILED\n"
    failed=1
    return
  fi
  # Write to a scratch path first so a MISMATCH never clobbers the
  # checked-in baseline.
  scratch="$build_dir/refresh_$baseline"
  if ! out=$("$build_dir/bench/$bench" --json "$scratch" \
             --benchmark_filter=NONE); then
    summary="$summary$baseline $bench RUN-FAILED\n"
    failed=1
    return
  fi
  printf '%s\n' "$out"
  if printf '%s' "$out" | grep -q MISMATCH; then
    summary="$summary$baseline $bench MISMATCH\n"
    failed=1
    return
  fi
  mv "$scratch" "bench/$baseline"
  summary="$summary$baseline $bench OK\n"
}

refresh baseline_explore.json bench_semantics_throughput
refresh baseline_sample.json  bench_sample
refresh baseline_por.json     bench_por
refresh baseline_budget.json  bench_budget
refresh baseline_sym.json     bench_sym
refresh baseline_race.json    bench_race
refresh baseline_rf.json      bench_rf

echo
echo "=== refresh summary ==="
# shellcheck disable=SC2059 — $summary embeds its own \n separators.
printf "$summary" | while read -r baseline bench status; do
  printf '  %-24s %-28s %s\n' "$baseline" "$bench" "$status"
done

if [ "$failed" -ne 0 ]; then
  echo
  echo "error: at least one bench did not refresh cleanly — fix the" \
       "regression instead of refreshing its baseline" >&2
  exit 1
fi

echo
echo "Refreshed baselines:"
git diff --stat -- bench/baseline_explore.json bench/baseline_sample.json \
    bench/baseline_por.json bench/baseline_budget.json \
    bench/baseline_sym.json bench/baseline_race.json \
    bench/baseline_rf.json
echo "Review the diff above, then commit the baselines with the change that" \
     "moved them."
