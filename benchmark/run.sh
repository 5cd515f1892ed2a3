#!/usr/bin/env bash
# DisCFS benchmark: builds the program and the harness (Release, into
# benchmark/build), runs workloads, prints a table on stderr and one JSON
# object as the last line of stdout.
#
#   benchmark/run.sh [--workload NAME | --workloads a,b,...] [--seed N]
#                    [--seconds S] [--trace [0|1]] [--smoke]
#                    [--repeat N] [--out DIR]
#
# Workloads: bonnie, search, multiclient, churn (default: all four).
# --seconds S is how long each run measures; the default is run_seconds
#   in BENCHMARK.json (20), and a comparison runs both sides with the same.
# --trace 1 (or a bare --trace) runs the traced pass and prints per-layer
#   metrics; spans go to benchmark/build/trace/<workload>.json.
# --smoke runs every selected workload untraced and traced at about 1/20
#   of the data sizes and 0.5 s per pass, to check the benchmark quickly.
# --repeat N runs each workload N times with seeds N, N+1, ...; --out DIR
#   keeps one detailed result file per run for benchmark/compare.py.
#
# With one workload and one run, the last line is exactly the program's
# result: {"correct", "attempted", "failed", "metrics"}. Otherwise it is
# {"runs": [{"workload", "seed", "trace", "result"}, ...]}. The exit code
# is non-zero when any operation failed, any output check did not hold, or
# a run's metric names and units differ from BENCHMARK.json's lists.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
spec="$here/../BENCHMARK.json"

workloads="bonnie,search,multiclient,churn"
seed=1
seconds=()
modes=""
smoke=0
repeat=1
out=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload | --workloads)
      workloads="$2"
      shift 2
      ;;
    --seed)
      seed="$2"
      shift 2
      ;;
    --seconds)
      seconds=(--seconds "$2")
      shift 2
      ;;
    --trace)
      if [[ $# -gt 1 && ("$2" == 0 || "$2" == 1) ]]; then
        modes="$2"
        shift 2
      else
        modes=1
        shift
      fi
      ;;
    --smoke)
      smoke=1
      shift
      ;;
    --repeat)
      repeat="$2"
      shift 2
      ;;
    --out)
      out="$2"
      shift 2
      ;;
    *)
      echo "run.sh: unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

if [[ $smoke == 1 ]]; then
  seconds=(--seconds 0.5)
  modes="${modes:-0 1}"
fi
modes="${modes:-0}"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

# Fails unless the result's metrics are exactly BENCHMARK.json's end_to_end
# (untraced) or per_layer (traced) list, with the same units.
check_metrics() {
  python3 - "$spec" "$1" "$2" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
listed = spec["per_layer" if sys.argv[2] == "1" else "end_to_end"]
want = {m["name"]: m["unit"] for m in listed}
got = {k: v["unit"] for k, v in json.loads(sys.argv[3])["metrics"].items()}
if got != want:
    print("run.sh: metrics differ from BENCHMARK.json: missing %s, extra %s, "
          "unit changed %s" % (sorted(set(want) - set(got)),
                               sorted(set(got) - set(want)),
                               sorted(k for k in got if k in want
                                      and got[k] != want[k])),
          file=sys.stderr)
    sys.exit(1)
EOF
}

if [[ -n "$out" ]]; then
  mkdir -p "$out"
fi

results=()
status=0
IFS=',' read -r -a names <<<"$workloads"
for ((rep = 0; rep < repeat; rep++)); do
  run_seed=$((seed + rep))
  for name in "${names[@]}"; do
    for mode in $modes; do
      args=(--workload "$name" --seed "$run_seed" "${seconds[@]}"
        --trace "$mode")
      if [[ $smoke == 1 ]]; then
        args+=(--smoke)
      fi
      if [[ -n "$out" ]]; then
        args+=(--detail "$out/$name-trace$mode-seed$run_seed.json")
      fi
      rc=0
      line="$("$build/discfs_benchmark" "${args[@]}" | tail -n 1)" || rc=$?
      if [[ -n "$line" ]] && ! check_metrics "$mode" "$line"; then
        rc=1
      fi
      if [[ $rc != 0 ]]; then
        status=1
      fi
      if [[ -n "$line" ]]; then
        run="{\"workload\": \"$name\", \"seed\": $run_seed"
        results+=("$run, \"trace\": $mode, \"result\": $line}")
        last="$line"
      fi
    done
  done
done

if [[ ${#results[@]} == 1 ]]; then
  echo "$last"
elif [[ ${#results[@]} -gt 1 ]]; then
  joined="$(printf '%s, ' "${results[@]}")"
  echo "{\"runs\": [${joined%, }]}"
fi
exit $status
