#!/usr/bin/env bash
# Builds the Release tree and runs every bench: policy_scaling,
# ablation_cache, rpc_pipeline, coherence_propagation, admission_scaling,
# storage_scaling, lockbox_sharing, obs_overhead, overload_harness and
# micro_ops. The eight gated benches write BENCH_<name>.json at the repo
# root, each recording its gates (docs/BENCH_SCHEMAS.md), and
# tools/check_bench_schema.py re-evaluates them all. A failing bench does
# not stop the run: every bench runs, every failing gate is printed, and
# the script exits 1 at the end.
#
# Usage: tools/run_bench.sh [max_credentials]
#   max_credentials  cap the policy_scaling, admission_scaling and
#                    overload_harness corpora (default 10000)
set -uo pipefail

die() {
  echo "run_bench.sh: error: $*" >&2
  exit 1
}

command -v cmake >/dev/null 2>&1 || die "cmake not found in PATH"
command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 ||
  command -v clang++ >/dev/null 2>&1 || die "no C++ compiler found in PATH"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-release"
max_credentials="${1:-10000}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release ||
  die "cmake configure failed"
cmake --build "$build_dir" -j "$(nproc)" \
  --target policy_scaling ablation_cache rpc_pipeline \
  coherence_propagation admission_scaling storage_scaling \
  lockbox_sharing obs_overhead overload_harness micro_ops ||
  die "build failed"

failures=()
reports=()

# run NAME [ARGS...]: runs one bench binary; a non-zero exit is recorded.
run() {
  local name="$1"
  shift
  echo "--- $name ---"
  "$build_dir/$name" "$@" || failures+=("$name exited non-zero")
}

# gated NAME REPORT [ARGS...]: runs a bench that writes BENCH_<REPORT>.json.
# The old report is removed first so a crash cannot leave a stale pass.
gated() {
  local name="$1" report="$repo_root/BENCH_$2.json"
  shift 2
  rm -f "$report"
  reports+=("$report")
  run "$name" "$report" "$@"
}

gated policy_scaling policy "$max_credentials"
run ablation_cache
gated rpc_pipeline rpc
gated coherence_propagation coherence
gated admission_scaling admission "$max_credentials"
gated storage_scaling storage
gated lockbox_sharing lockbox
gated obs_overhead obs
gated overload_harness overload "$max_credentials"
run micro_ops

if command -v python3 >/dev/null 2>&1; then
  echo "--- gate check ---"
  python3 "$repo_root/tools/check_bench_schema.py" "${reports[@]}" ||
    failures+=("gate check failed (failing gates listed above)")
else
  echo "warning: python3 not found; skipping the gate check" >&2
fi

if ((${#failures[@]} > 0)); then
  echo "run_bench.sh: ${#failures[@]} failure(s):"
  printf '  %s\n' "${failures[@]}"
  exit 1
fi
echo "done: ${reports[*]}"
