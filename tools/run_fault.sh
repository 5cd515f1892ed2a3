#!/usr/bin/env bash
# Builds the Release tree and runs the full fault-injection harness: an
# 8-node DisCFS mesh driven through rolling clean restarts and a half/half
# partition under continuous credential churn. It leaves BENCH_fault.json
# at the repo root, recording the harness's gates (docs/BENCH_SCHEMAS.md),
# which tools/check_bench_schema.py then re-evaluates. Exits 1 if either
# the harness or the check fails.
#
# Usage: tools/run_fault.sh [cluster_size] [churn_rounds]
#   cluster_size  mesh size (default 8)
#   churn_rounds  churn events per node per phase (default 4)
set -uo pipefail

die() {
  echo "run_fault.sh: error: $*" >&2
  exit 1
}

command -v cmake >/dev/null 2>&1 || die "cmake not found in PATH"
command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 ||
  command -v clang++ >/dev/null 2>&1 || die "no C++ compiler found in PATH"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-release"
cluster_size="${1:-8}"
churn_rounds="${2:-4}"
report="$repo_root/BENCH_fault.json"
status=0

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release ||
  die "cmake configure failed"
cmake --build "$build_dir" -j "$(nproc)" --target fault_harness ||
  die "build failed"

echo "--- fault_harness ---"
rm -f "$report"
"$build_dir/fault_harness" "$report" "$cluster_size" "$churn_rounds" ||
  status=1

if command -v python3 >/dev/null 2>&1; then
  echo "--- gate check ---"
  python3 "$repo_root/tools/check_bench_schema.py" "$report" || status=1
else
  echo "warning: python3 not found; skipping the gate check" >&2
fi

exit "$status"
