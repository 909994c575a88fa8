#!/usr/bin/env bash
# End-to-end benchmark over `adept serve --listen` (see README.md).
#
#   bench/e2e/run.sh                          every workload, seed ${SEED:-1}
#   bench/e2e/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#   bench/e2e/run.sh --repeat N [--workload W] [--seconds T] [--trace 0|1]
#
# Builds the standalone Release project into build-e2e/ at the repository
# root (incremental after the first run); build output goes to stderr, so
# the last line of stdout is bench_e2e's JSON result. --seconds sizes the
# window: each workload sends that many seconds' worth of requests at its
# reference rate. --repeat runs seeds 1..N of each workload, replaces the
# results in build-e2e/results/ with one <workload>.seed<S>[.trace].json
# per run and prints the per-metric spread (compare.py --spread) used to
# set the bounds in BENCHMARK.json. A traced run also writes its spans to
# build-e2e/spans/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
results="$build/results"

workload="" seed="${SEED:-1}" seconds="" trace=0 repeat=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --repeat) repeat="$2" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done

jobs=$(nproc)
[ "$jobs" -le 4 ] || jobs=4
if [ ! -f "$build/Makefile" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target bench_e2e >&2

run_one() {  # workload seed
  local args=(--workload "$1" --seed "$2" --trace "$trace")
  [ -z "$seconds" ] || args+=(--seconds "$seconds")
  if [ "$trace" = 1 ]; then
    mkdir -p "$build/spans"
    args+=(--spans "$build/spans/$1.seed$2.json")
  fi
  "$build/bench_e2e" "${args[@]}"
}

if [ -n "$workload" ]; then
  workloads=("$workload")
else
  read -r -a workloads < <(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json")
fi

if [ "$repeat" -gt 0 ]; then
  mkdir -p "$results"
  suffix=""
  [ "$trace" = 0 ] || suffix=".trace"
  rm -f "$results"/*[0-9]"$suffix".json
  for s in $(seq 1 "$repeat"); do
    for w in "${workloads[@]}"; do
      out="$results/$w.seed$s$suffix.json"
      run_one "$w" "$s" > "$out"
      cat "$out" >&2
    done
  done
  python3 "$here/compare.py" --spread "$results"
else
  for w in "${workloads[@]}"; do run_one "$w" "$seed"; done
fi
