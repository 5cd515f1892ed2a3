#include "src/obs/recorder.h"

#include "src/util/strings.h"

namespace discfs::obs {
namespace {

uint64_t Span(uint64_t from, uint64_t to) { return to > from ? to - from : 0; }

}  // namespace

RpcRecorder::RpcRecorder(MetricsRegistry* registry)
    : registry_(registry),
      calls_total_(registry->GetCounter("discfs_rpc_calls_total",
                                        "RPC calls completed")),
      slow_counter_(registry->GetCounter(
          "discfs_rpc_slow_ops_total",
          "RPC calls whose total span exceeded the slow threshold")),
      send_queue_depth_(registry->GetHistogram(
          "discfs_rpc_send_queue_depth", "",
          "Per-connection reply queue depth at reply enqueue")),
      pool_queue_depth_(registry->GetHistogram(
          "discfs_rpc_pool_queue_depth", "",
          "Shared worker pool backlog at request submit")) {
  registry->RegisterGauge(
      "discfs_rpc_shed_total",
      "RPC calls busy-rejected by admission control or a shed watermark, "
      "by {class}",
      [this] {
        static constexpr const char* kClassLabels[kPriorityClasses] = {
            "class=\"control\"", "class=\"namespace\"", "class=\"data\""};
        std::vector<GaugeSample> out;
        for (size_t c = 0; c < kPriorityClasses; ++c) {
          out.push_back({kClassLabels[c], static_cast<double>(shed_total(c))});
        }
        return out;
      });
  registry->RegisterGauge(
      "discfs_rpc_expired_total",
      "RPC calls dropped at dequeue with an already-expired deadline",
      [this] {
        return std::vector<GaugeSample>{
            {"", static_cast<double>(expired_total())}};
      });
}

void RpcRecorder::RecordShed(size_t priority_class) {
  if (priority_class >= kPriorityClasses) {
    priority_class = kPriorityClasses - 1;
  }
  shed_by_class_[priority_class].fetch_add(1, std::memory_order_relaxed);
}

void RpcRecorder::RecordExpired() {
  expired_total_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t RpcRecorder::shed_total(size_t priority_class) const {
  if (priority_class >= kPriorityClasses) {
    return 0;
  }
  return shed_by_class_[priority_class].load(std::memory_order_relaxed);
}

uint64_t RpcRecorder::expired_total() const {
  return expired_total_.load(std::memory_order_relaxed);
}

RpcRecorder::PerProc* RpcRecorder::GetPerProc(uint32_t prog, uint32_t proc) {
  uint64_t key = (static_cast<uint64_t>(prog) << 32) | proc;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = per_proc_.find(key);
    if (it != per_proc_.end()) {
      return it->second.get();
    }
  }
  std::lock_guard<std::shared_mutex> lock(map_mu_);
  auto it = per_proc_.find(key);
  if (it != per_proc_.end()) {
    return it->second.get();
  }
  std::string base = StrPrintf("prog=\"%u\",proc=\"%u\"", prog, proc);
  auto per = std::make_unique<PerProc>();
  per->decode = registry_->GetHistogram(
      "discfs_rpc_span_ns", base + ",span=\"decode\"",
      "RPC span timings per (prog, proc) in nanoseconds");
  per->queue_wait =
      registry_->GetHistogram("discfs_rpc_span_ns", base + ",span=\"queue_wait\"");
  per->execute =
      registry_->GetHistogram("discfs_rpc_span_ns", base + ",span=\"execute\"");
  per->reply =
      registry_->GetHistogram("discfs_rpc_span_ns", base + ",span=\"reply\"");
  per->total =
      registry_->GetHistogram("discfs_rpc_span_ns", base + ",span=\"total\"");
  return per_proc_.emplace(key, std::move(per)).first->second.get();
}

void RpcRecorder::RecordCall(uint32_t prog, uint32_t proc,
                             const CallTimestamps& ts,
                             size_t send_queue_depth, size_t pool_queue_depth,
                             uint64_t trace_id) {
  PerProc* per = GetPerProc(prog, proc);
  uint64_t decode = Span(ts.received_ns, ts.decoded_ns);
  uint64_t queue_wait = Span(ts.decoded_ns, ts.exec_start_ns);
  uint64_t execute = Span(ts.exec_start_ns, ts.exec_end_ns);
  uint64_t reply = Span(ts.exec_end_ns, ts.replied_ns);
  uint64_t total = Span(ts.received_ns, ts.replied_ns);
  per->decode->Record(decode);
  per->queue_wait->Record(queue_wait);
  per->execute->Record(execute);
  per->reply->Record(reply);
  per->total->Record(total);
  send_queue_depth_->Record(send_queue_depth);
  pool_queue_depth_->Record(pool_queue_depth);
  calls_total_->Add(1);
  if (total >= slow_threshold_ns_.load(std::memory_order_relaxed)) {
    slow_counter_->Add(1);
    SlowOp op{prog, proc, trace_id, total, decode, queue_wait, execute, reply};
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_ring_.push_back(op);
    if (slow_ring_.size() > kSlowRingCapacity) {
      slow_ring_.pop_front();
    }
  }
}

std::vector<SlowOp> RpcRecorder::slow_ops() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowOp>(slow_ring_.begin(), slow_ring_.end());
}

uint64_t RpcRecorder::slow_ops_total() const { return slow_counter_->Value(); }

}  // namespace discfs::obs
