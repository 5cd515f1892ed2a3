#!/usr/bin/env bash
# Builds with -DDISCFS_SANITIZE=thread and runs the concurrency-heavy
# tests: the RPC runtime intentionally races replies across worker threads,
# the event loop dispatches every connection from one poller, the secure
# channel splits send/recv state, the coherence fabric pushes invalidation
# events between servers from per-peer sender threads, admission verifies
# signatures concurrently outside the server lock, the durable fabric
# store is written by publishers, receivers, and the maintenance thread,
# the multiserver test and fault smoke exercise the whole stack
# (including restart recovery) end-to-end over TCP, the storage data
# plane (block cache write-back and flusher, NFS striped locking)
# is hammered by block_cache_test and nfs_test, and the lockbox layer
# (sharded chunk store + per-handle sidecar stripes over the NFS entry
# points) is exercised end-to-end by lockbox_test, and the observability
# layer (sharded counters, scrape-time gauge callbacks, the RPC flight
# recorder stamping calls across worker threads, and trace propagation
# through the coherence fabric) is exercised by obs_test, and the
# overload path (watermark shedding racing worker dequeues, deadline
# expiry at dequeue, and the non-blocking handshake state machine under
# a half-open flood) is exercised by overload_test, and the server's
# writer-preferring credential lock (access checks reading the delegation
# index under it shared while submits and removals take it exclusive) is
# exercised by policy_scaling_test.
#
# Usage: tools/run_tsan.sh [extra ctest -R regex]
set -euo pipefail

die() {
  echo "run_tsan.sh: error: $*" >&2
  exit 1
}

command -v cmake >/dev/null 2>&1 || die "cmake not found in PATH"
command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 ||
  command -v clang++ >/dev/null 2>&1 || die "no C++ compiler found in PATH"

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-tsan"
test_regex="${1:-transport_test|rpc_pipeline_test|event_loop_test|discfs_multiserver_test|security_test|cluster_coherence_test|cluster_recovery_test|admission_test|fault_smoke|block_cache_test|nfs_test|lockbox_test|obs_test|overload_test|policy_scaling_test}"

cmake -B "$build_dir" -S "$repo_root" -DDISCFS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target transport_test rpc_pipeline_test event_loop_test \
  discfs_multiserver_test security_test cluster_coherence_test \
  cluster_recovery_test admission_test fault_harness \
  block_cache_test nfs_test lockbox_test obs_test overload_test \
  policy_scaling_test

cd "$build_dir"
TSAN_OPTIONS="halt_on_error=1" ctest --output-on-failure -R "$test_regex"
echo "TSAN clean: $test_regex"
