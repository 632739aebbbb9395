#!/usr/bin/env bash
# Wall-clock profile of the bench suite: runs every converted bench
# $RUNS times at --jobs=1 and $RUNS times at --jobs=$JOBS, collects each
# bench's --bench-json profile (per-configuration wall ms next to modeled
# ms, from its last --jobs=$JOBS run), and assembles BENCH_suite.json —
# the repo's perf-trajectory record. Host timings move by ~20% between
# runs, so every wall time is reported as the median of the runs with
# their min-max spread; totals sum the per-bench medians, mins and maxes.
#
# Usage: scripts/bench_wall.sh [--full]
#   default is --quick scale; JOBS=<n> overrides the parallel worker
#   count (default: number of cores, floor 4 so the speedup comparison is
#   meaningful even on small CI machines). LOB_BENCH_HOST_NOTE=<text>
#   annotates every BENCH_*.json and the suite file with a host
#   description, so committed artifacts are self-explaining.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="--quick"
if [ "${1:-}" = "--full" ]; then SCALE=""; fi
JOBS="${JOBS:-$(nproc)}"
if [ "$JOBS" -lt 4 ]; then JOBS=4; fi
HOST_NOTE="${LOB_BENCH_HOST_NOTE:-}"

# Single-core hosts cannot measure parallel speedup: --jobs=N still runs
# every cell on the one hardware thread, so wall_ms_jobsN ~= wall_ms_jobs1
# and the "speedup" column reads ~1.0x without any real regression. Say
# so loudly in the artifact itself (host_note) instead of letting the
# suite profile masquerade as a scaling problem; check_perf.py reads
# hardware_threads and explicitly SKIPs its jobs-scaling gate here.
if [ "$(nproc)" -eq 1 ]; then
  WARN="single-core host: jobs-scaling numbers are not meaningful"
  echo "warning: $WARN" >&2
  if [ -n "$HOST_NOTE" ]; then
    HOST_NOTE="$HOST_NOTE; $WARN"
  else
    HOST_NOTE="$WARN"
  fi
fi
export LOB_BENCH_HOST_NOTE="$HOST_NOTE"

if [ ! -f build/CMakeCache.txt ]; then
  cmake -B build -G Ninja > /dev/null
fi
cmake --build build -j "$(nproc)" > /dev/null
mkdir -p results

# Every bench converted to the parallel experiment engine.
BENCHES=(
  fig5_build_time
  fig6_seq_scan
  fig7_esm_utilization
  fig8_eos_utilization
  fig9_esm_read_cost
  fig10_eos_read_cost
  fig11_esm_insert_cost
  fig12_eos_insert_cost
  ext_delete_cost
  ext_build_scaling
  ext_update_scaling
  ext_seek_sensitivity
  ext_pool_ablation
  ext_shadowing_ablation
  ext_esm_insert_ablation
  ext_summary_comparison
  ext_multi_object
  ext_concurrency
)

RUNS=3

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

# Runs the command $RUNS times; prints "median min max" of the wall ms.
timed_runs() {
  local walls=() t0 t1
  for _ in $(seq "$RUNS"); do
    t0=$(now_ms)
    "$@" > /dev/null || return 1
    t1=$(now_ms)
    walls+=($(( t1 - t0 )))
  done
  printf '%s\n' "${walls[@]}" | sort -n |
    awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)], v[1], v[NR] }'
}

total_j1=0 total_j1_min=0 total_j1_max=0
total_jn=0 total_jn_min=0 total_jn_max=0
bench_entries=""

for b in "${BENCHES[@]}"; do
  bin="build/bench/$b"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }

  stats_j1=$(timed_runs "$bin" $SCALE --jobs=1)
  stats_jn=$(timed_runs "$bin" $SCALE --jobs="$JOBS" \
    --bench-json="results/BENCH_${b}.json")
  read -r wall_j1 min_j1 max_j1 <<< "$stats_j1"
  read -r wall_jn min_jn max_jn <<< "$stats_jn"

  total_j1=$(( total_j1 + wall_j1 ))
  total_j1_min=$(( total_j1_min + min_j1 ))
  total_j1_max=$(( total_j1_max + max_j1 ))
  total_jn=$(( total_jn + wall_jn ))
  total_jn_min=$(( total_jn_min + min_jn ))
  total_jn_max=$(( total_jn_max + max_jn ))
  speedup=$(awk -v a="$wall_j1" -v b="$wall_jn" \
    'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')
  echo "== $b: jobs=1 ${wall_j1} ms (${min_j1}-${max_j1})," \
       "jobs=$JOBS ${wall_jn} ms (${min_jn}-${max_jn}) (${speedup}x)"

  profile=$(cat "results/BENCH_${b}.json")
  entry=$(printf '{"wall_ms_jobs1": %s, "wall_ms_jobs1_min": %s, ' \
    "$wall_j1" "$min_j1")
  entry+=$(printf '"wall_ms_jobs1_max": %s, "wall_ms_jobsN": %s, ' \
    "$max_j1" "$wall_jn")
  entry+=$(printf '"wall_ms_jobsN_min": %s, "wall_ms_jobsN_max": %s, ' \
    "$min_jn" "$max_jn")
  entry+=$(printf '"speedup": %s, "profile": %s}' "$speedup" "$profile")
  if [ -n "$bench_entries" ]; then bench_entries+=$',\n'; fi
  bench_entries+="$entry"
done

suite_speedup=$(awk -v a="$total_j1" -v b="$total_jn" \
  'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')

# Single-thread cell throughput (cells/sec, modeled pages/sec): the
# machine-checkable number behind the perf trajectory, emitted under
# "metrics" in BENCH_micro_substrates.json and compared against
# results/BENCH_micro_baseline.json by scripts/check_perf.py (CI
# perf-smoke gate).
build/bench/micro_substrates --cells=6 \
  --bench-json=results/BENCH_micro_substrates.json
cells_per_sec=$(python3 -c "import json; \
print(json.load(open('results/BENCH_micro_substrates.json'))['metrics']['cells_per_sec'])")
micro_profile=$(cat results/BENCH_micro_substrates.json)

{
  printf '{\n'
  printf '  "suite": "lobstore reproduction benches",\n'
  printf '  "scale": "%s",\n' "${SCALE:---full}"
  printf '  "jobs": %s,\n' "$JOBS"
  printf '  "hardware_threads": %s,\n' "$(nproc)"
  printf '  "host_note": "%s",\n' "$HOST_NOTE"
  printf '  "runs": %s,\n' "$RUNS"
  printf '  "wall_ms_jobs1_total": %s,\n' "$total_j1"
  printf '  "wall_ms_jobs1_total_min": %s,\n' "$total_j1_min"
  printf '  "wall_ms_jobs1_total_max": %s,\n' "$total_j1_max"
  printf '  "wall_ms_jobsN_total": %s,\n' "$total_jn"
  printf '  "wall_ms_jobsN_total_min": %s,\n' "$total_jn_min"
  printf '  "wall_ms_jobsN_total_max": %s,\n' "$total_jn_max"
  printf '  "suite_speedup": %s,\n' "$suite_speedup"
  printf '  "cells_per_sec": %s,\n' "$cells_per_sec"
  printf '  "micro_substrates": %s,\n' "$micro_profile"
  printf '  "benches": [\n%s\n  ]\n' "$bench_entries"
  printf '}\n'
} > BENCH_suite.json

echo
echo "suite (median of $RUNS): jobs=1 ${total_j1} ms" \
     "(${total_j1_min}-${total_j1_max}), jobs=$JOBS ${total_jn} ms" \
     "(${total_jn_min}-${total_jn_max}) (${suite_speedup}x)," \
     "${cells_per_sec} cells/sec -> BENCH_suite.json"
