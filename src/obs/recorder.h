// Request flight recorder (PR 9): the RPC runtime stamps every call at
// five points — frame received, call decoded, execution started on the
// worker pool, handler returned, reply enqueued for the writer — and this
// recorder turns the stamps into per-(prog, proc) span histograms
// (decode / queue_wait / execute / reply / total), a send-queue-depth and
// pool-queue-depth distribution, and a bounded ring of slow operations
// (over a configurable threshold) with their full span breakdown.
//
// Cost discipline: when the owning registry is disabled the runtime takes
// no timestamps at all (enabled() is one relaxed load), and when enabled
// the per-call cost is five clock reads, one shared-lock map probe, and a
// handful of relaxed histogram increments — bench/obs_overhead gates the
// total at <= 5% on the pipelined-RPC and warm-admission hot paths.
#ifndef DISCFS_SRC_OBS_RECORDER_H_
#define DISCFS_SRC_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace discfs::obs {

// One operation that exceeded the slow threshold, with its span breakdown.
struct SlowOp {
  uint32_t prog = 0;
  uint32_t proc = 0;
  uint64_t trace_id = 0;  // 0 = untraced
  uint64_t total_ns = 0;
  uint64_t decode_ns = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t execute_ns = 0;
  uint64_t reply_ns = 0;
};

// Per-call stamp set handed from the RPC runtime (all MonotonicNanos).
struct CallTimestamps {
  uint64_t received_ns = 0;    // frame pulled off the stream
  uint64_t decoded_ns = 0;     // call header + args decoded
  uint64_t exec_start_ns = 0;  // worker picked the request up
  uint64_t exec_end_ns = 0;    // handler returned
  uint64_t replied_ns = 0;     // reply enqueued for the writer
};

class RpcRecorder {
 public:
  explicit RpcRecorder(MetricsRegistry* registry);
  RpcRecorder(const RpcRecorder&) = delete;
  RpcRecorder& operator=(const RpcRecorder&) = delete;

  // The runtime's gate: when false it skips every clock read.
  bool enabled() const { return registry_->enabled(); }
  uint64_t Now() const { return MonotonicNanos(); }

  // Records one completed call. send_queue_depth is the per-connection
  // reply queue depth right after this reply was enqueued;
  // pool_queue_depth is the shared worker pool's backlog when the request
  // was submitted to it.
  void RecordCall(uint32_t prog, uint32_t proc, const CallTimestamps& ts,
                  size_t send_queue_depth, size_t pool_queue_depth,
                  uint64_t trace_id);

  // --- overload accounting (PR 10) ---
  // The one count of shed (busy-rejected) and expired-at-dequeue calls,
  // exported as discfs_rpc_shed_total{class} and discfs_rpc_expired_total.
  // Unlike the span histograms these always count — they only fire on
  // overload events, which are off the happy path — so tests and the
  // overload bench read exact totals even with the registry disabled.
  // priority_class is the numeric RpcPriority (0 control, 1 namespace,
  // 2 data); out-of-range values clamp to the last class.
  void RecordShed(size_t priority_class);
  void RecordExpired();
  uint64_t shed_total(size_t priority_class) const;
  uint64_t expired_total() const;

  // Slow-op threshold on the total span; 0 records every call.
  void set_slow_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  // Most recent slow operations (bounded ring, newest last).
  std::vector<SlowOp> slow_ops() const;
  uint64_t slow_ops_total() const;

  MetricsRegistry* registry() const { return registry_; }

 private:
  struct PerProc {
    Histogram* decode = nullptr;
    Histogram* queue_wait = nullptr;
    Histogram* execute = nullptr;
    Histogram* reply = nullptr;
    Histogram* total = nullptr;
  };
  PerProc* GetPerProc(uint32_t prog, uint32_t proc);

  static constexpr size_t kSlowRingCapacity = 64;

  // Mirrors kRpcPriorityCount in src/rpc/rpc.h (not included here: the
  // RPC layer depends on obs, not the other way around).
  static constexpr size_t kPriorityClasses = 3;

  MetricsRegistry* const registry_;
  Counter* const calls_total_;
  Counter* const slow_counter_;
  Histogram* const send_queue_depth_;
  Histogram* const pool_queue_depth_;
  std::atomic<uint64_t> slow_threshold_ns_{100'000'000};  // 100 ms

  // (prog << 32 | proc) -> span histograms. Reads (every call) take the
  // lock shared; the exclusive path runs once per distinct procedure.
  mutable std::shared_mutex map_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<PerProc>> per_proc_;

  mutable std::mutex slow_mu_;
  std::deque<SlowOp> slow_ring_;

  std::atomic<uint64_t> shed_by_class_[kPriorityClasses] = {};
  std::atomic<uint64_t> expired_total_{0};
};

}  // namespace discfs::obs

#endif  // DISCFS_SRC_OBS_RECORDER_H_
