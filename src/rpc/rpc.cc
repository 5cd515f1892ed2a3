#include "src/rpc/rpc.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>

#include "src/util/strings.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

constexpr uint32_t kTypeCall = 0;
constexpr uint32_t kTypeReply = 1;

Bytes EncodeReply(uint32_t xid, const Result<Bytes>& result) {
  XdrWriter w;
  w.PutU32(xid);
  w.PutU32(kTypeReply);
  if (result.ok()) {
    w.PutU32(0);
    w.PutOpaque(result.value());
  } else {
    w.PutU32(static_cast<uint32_t>(result.status().code()));
    w.PutOpaque(ToBytes(result.status().message()));
  }
  return w.Take();
}

struct DecodedCall {
  uint32_t xid = 0;
  uint32_t prog = 0;
  uint32_t proc = 0;
  Bytes args;
  uint64_t trace_id = 0;     // from the optional trailer; 0 = untraced
  uint32_t deadline_ms = 0;  // v2 trailer budget; 0 = no deadline
};

Result<DecodedCall> DecodeCall(const Bytes& frame) {
  XdrReader r(frame);
  DecodedCall call;
  ASSIGN_OR_RETURN(call.xid, r.GetU32());
  ASSIGN_OR_RETURN(uint32_t type, r.GetU32());
  ASSIGN_OR_RETURN(call.prog, r.GetU32());
  ASSIGN_OR_RETURN(call.proc, r.GetU32());
  ASSIGN_OR_RETURN(call.args, r.GetOpaque());
  if (type != kTypeCall) {
    return DataLossError("expected RPC call frame");
  }
  // Optional trailer: magic | version | trace id | [deadline]. Anything
  // that does not parse as the trailer (wrong magic, truncated, future
  // version we cannot read) is ignored — the call itself is already
  // complete. Version 2 appends the deadline budget; a version beyond
  // what we know still yields the fields we do understand.
  if (!r.AtEnd()) {
    Result<uint32_t> magic = r.GetU32();
    if (magic.ok() && *magic == kRpcTraceMagic) {
      Result<uint32_t> version = r.GetU32();
      if (version.ok() && *version >= 1) {
        Result<uint64_t> trace = r.GetU64();
        if (trace.ok()) {
          call.trace_id = *trace;
          if (*version >= kRpcDeadlineVersion) {
            Result<uint32_t> deadline = r.GetU32();
            if (deadline.ok()) {
              call.deadline_ms = *deadline;
            }
          }
        }
      }
    }
  }
  return call;
}

// Appends the call trailer when the calling thread has an active trace or
// the call carries a deadline. Deadline-free calls keep emitting the
// version-1 wire bytes, so traces recorded against old peers stay
// byte-identical.
void PutCallTrailer(XdrWriter& w, uint32_t deadline_ms) {
  uint64_t trace = obs::CurrentTraceId();
  if (trace == 0 && deadline_ms == 0) {
    return;
  }
  w.PutU32(kRpcTraceMagic);
  w.PutU32(deadline_ms != 0 ? kRpcDeadlineVersion : kRpcTraceVersion);
  w.PutU64(trace);
  if (deadline_ms != 0) {
    w.PutU32(deadline_ms);
  }
}

// Dispatches with the call's trace id installed: in the context (for
// handlers that forward it explicitly) and as the thread's TraceScope (for
// deep call paths that read obs::CurrentTraceId()).
Result<Bytes> DispatchTraced(const RpcDispatcher& dispatcher,
                             const DecodedCall& call, const RpcContext& ctx) {
  if (call.trace_id == 0) {
    return dispatcher.Dispatch(call.prog, call.proc, call.args, ctx);
  }
  RpcContext traced = ctx;
  traced.trace_id = call.trace_id;
  obs::TraceScope scope(call.trace_id);
  return dispatcher.Dispatch(call.prog, call.proc, call.args, traced);
}

}  // namespace

// ---------------------------------------------------------------- client

RpcClient::RpcClient(std::unique_ptr<MsgStream> stream, EventLoop* loop)
    : stream_(std::move(stream)) {
  int fd = loop != nullptr ? stream_->PollFd() : -1;
  if (fd >= 0) {
    loop_ = loop;
    loop_fd_ = fd;
    Status st =
        loop_->Register(fd, /*want_read=*/true, /*want_write=*/false,
                        [this](uint32_t) { OnReadable(); });
    if (st.ok()) {
      return;
    }
    loop_ = nullptr;
    loop_fd_ = -1;
  }
  demux_thread_ = std::thread([this] { DemuxLoop(); });
}

RpcClient::~RpcClient() {
  Close();
  if (loop_ != nullptr) {
    // Waits out any in-flight readability callback, so destroying stream_
    // below cannot race the demux path.
    loop_->Unregister(loop_fd_);
  }
  if (demux_thread_.joinable()) {
    demux_thread_.join();
  }
}

std::future<Result<Bytes>> RpcClient::CallAsync(uint32_t prog, uint32_t proc,
                                                const Bytes& args,
                                                uint32_t deadline_ms) {
  uint32_t xid = 0;
  return StartCall(prog, proc, args, deadline_ms, &xid);
}

std::future<Result<Bytes>> RpcClient::StartCall(uint32_t prog,
                                                uint32_t proc,
                                                const Bytes& args,
                                                uint32_t deadline_ms,
                                                uint32_t* xid) {
  std::promise<Result<Bytes>> promise;
  std::future<Result<Bytes>> future = promise.get_future();

  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (broken_) {
      promise.set_value(broken_status_);
      return future;
    }
    *xid = next_xid_++;
    pending_.emplace(*xid, std::move(promise));
  }

  XdrWriter w;
  w.PutU32(*xid);
  w.PutU32(kTypeCall);
  w.PutU32(prog);
  w.PutU32(proc);
  w.PutOpaque(args);
  PutCallTrailer(w, deadline_ms);
  Status sent;
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    sent = stream_->Send(w.Take());
  }
  if (!sent.ok()) {
    // Withdraw the pending slot (unless the demux path already failed it
    // while tearing the connection down) and resolve the future directly.
    std::unique_lock<std::mutex> lock(pending_mu_);
    auto it = pending_.find(*xid);
    if (it != pending_.end()) {
      std::promise<Result<Bytes>> orphan = std::move(it->second);
      pending_.erase(it);
      lock.unlock();
      orphan.set_value(sent);
    }
  }
  return future;
}

Result<Bytes> RpcClient::Call(uint32_t prog, uint32_t proc, const Bytes& args,
                              uint32_t deadline_ms) {
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms);
  uint32_t xid = 0;
  std::future<Result<Bytes>> reply =
      StartCall(prog, proc, args, deadline_ms, &xid);
  if (deadline_ms == 0 ||
      reply.wait_until(give_up) == std::future_status::ready) {
    return reply.get();
  }
  {
    // Withdrawn, the call's reply (should one still come) finds no
    // pending entry and is dropped as stale.
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (pending_.erase(xid) > 0) {
      return DeadlineExceededError("RPC deadline exceeded awaiting reply");
    }
  }
  // A reply or a connection failure claimed the call first and is
  // resolving the future now.
  return reply.get();
}

bool RpcClient::ProcessReply(const Bytes& frame) {
  XdrReader r(frame);
  auto xid = r.GetU32();
  auto type = r.GetU32();
  auto status_code = r.GetU32();
  auto body = r.GetOpaque();
  if (!xid.ok() || !type.ok() || !status_code.ok() || !body.ok() ||
      *type != kTypeReply) {
    // The framing is corrupt; nothing later on this stream can be trusted
    // to demux correctly.
    return false;
  }

  std::promise<Result<Bytes>> promise;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(*xid);
    if (it == pending_.end()) {
      return true;  // stale or duplicate xid; drop it
    }
    promise = std::move(it->second);
    pending_.erase(it);
  }
  if (*status_code != 0) {
    promise.set_value(
        Status(static_cast<StatusCode>(*status_code), ToString(*body)));
  } else {
    promise.set_value(std::move(*body));
  }
  return true;
}

void RpcClient::DemuxLoop() {
  while (true) {
    Result<Bytes> frame = stream_->Recv();
    if (!frame.ok()) {
      FailAllPending(frame.status());
      return;
    }
    if (!ProcessReply(*frame)) {
      FailAllPending(DataLossError("malformed RPC reply frame"));
      stream_->Shutdown();
      return;
    }
  }
}

void RpcClient::OnReadable() {
  while (true) {
    Result<std::optional<Bytes>> frame = stream_->TryRecv();
    if (!frame.ok()) {
      FailAllPending(frame.status());
      loop_->Unregister(loop_fd_);  // from the loop thread: returns at once
      return;
    }
    if (!frame->has_value()) {
      return;  // socket drained; the poller calls back on the next bytes
    }
    if (!ProcessReply(**frame)) {
      FailAllPending(DataLossError("malformed RPC reply frame"));
      stream_->Shutdown();
      loop_->Unregister(loop_fd_);
      return;
    }
  }
}

void RpcClient::FailAllPending(const Status& status) {
  std::unordered_map<uint32_t, std::promise<Result<Bytes>>> failed;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (!broken_) {
      broken_ = true;
      broken_status_ = status;
    }
    failed.swap(pending_);
  }
  for (auto& [xid, promise] : failed) {
    promise.set_value(broken_status_);
  }
}

void RpcClient::Close() {
  FailAllPending(UnavailableError("RPC client closed"));
  // Shutdown (not Close) so a blocked demux Recv unblocks without racing
  // descriptor teardown; the stream is released when the client is
  // destroyed.
  stream_->Shutdown();
}

size_t RpcClient::inflight() const {
  std::lock_guard<std::mutex> lock(pending_mu_);
  return pending_.size();
}

// ------------------------------------------------------------- dispatcher

void RpcDispatcher::Register(uint32_t prog, uint32_t proc, Handler handler) {
  handlers_[{prog, proc}] = std::move(handler);
}

void RpcDispatcher::SetPriority(uint32_t prog, uint32_t proc,
                                RpcPriority priority) {
  priorities_[{prog, proc}] = priority;
}

RpcPriority RpcDispatcher::PriorityOf(uint32_t prog, uint32_t proc) const {
  auto it = priorities_.find({prog, proc});
  return it != priorities_.end() ? it->second : RpcPriority::kNamespace;
}

Result<Bytes> RpcDispatcher::Dispatch(uint32_t prog, uint32_t proc,
                                      const Bytes& args,
                                      const RpcContext& ctx) const {
  auto it = handlers_.find({prog, proc});
  if (it == handlers_.end()) {
    return UnimplementedError(
        StrPrintf("no handler for prog %u proc %u", prog, proc));
  }
  return it->second(args, ctx);
}

// --------------------------------------------------- event-driven serving

RpcConnection::RpcConnection(const RpcDispatcher* dispatcher,
                             std::shared_ptr<MsgStream> stream,
                             RpcContext ctx, const Options& options,
                             ClosedFn on_closed)
    : dispatcher_(dispatcher),
      stream_(std::move(stream)),
      ctx_(std::move(ctx)),
      opts_(options),
      on_closed_(std::move(on_closed)) {
  if (opts_.max_inflight == 0) {
    opts_.max_inflight = 1;
  }
  if (opts_.send_queue_limit == 0) {
    opts_.send_queue_limit = 1;
  }
}

RpcConnection::~RpcConnection() = default;

Result<std::shared_ptr<RpcConnection>> RpcConnection::Start(
    const RpcDispatcher* dispatcher, std::shared_ptr<MsgStream> stream,
    RpcContext ctx, const Options& options, ClosedFn on_closed) {
  if (options.loop == nullptr || options.pool == nullptr) {
    return InvalidArgumentError("RpcConnection requires a loop and a pool");
  }
  int fd = stream->PollFd();
  if (fd < 0) {
    return InvalidArgumentError("stream has no pollable fd");
  }
  auto conn = std::shared_ptr<RpcConnection>(
      new RpcConnection(dispatcher, std::move(stream), std::move(ctx),
                        options, std::move(on_closed)));
  conn->fd_ = fd;
  // The registered callback keeps the connection alive until it is
  // unregistered (FinishClose or Abort breaks the cycle).
  Status st = options.loop->Register(
      fd, /*want_read=*/true, /*want_write=*/false,
      [conn](uint32_t events) { conn->OnEvent(events); });
  if (!st.ok()) {
    return st;
  }
  // Frames pipelined behind the handshake may already sit in the stream's
  // reassembly buffer where readability will never fire for them; pump
  // once to pick them up.
  options.loop->Post([conn] { conn->PumpReads(); });
  return conn;
}

void RpcConnection::OnEvent(uint32_t events) {
  if (events & EventLoop::kWritable) {
    Drain();
  }
  if (events & EventLoop::kReadable) {
    PumpReads();
  }
  if (events & EventLoop::kError) {
    // EPOLLHUP/EPOLLERR are reported regardless of the interest mask, so
    // a paused (mask-0) connection would spin the level-triggered poller
    // at 100% CPU: nothing consumes the condition. The socket is dead
    // both ways (RST/err) — tear it down now; in-flight handlers finish
    // on the pool and their replies are dropped.
    std::lock_guard<std::mutex> lock(mu_);
    bool reads_consume = read_open_ && !read_paused_ && !closed_ &&
                         inflight_ < opts_.max_inflight;
    if (!closed_ && !reads_consume) {
      read_open_ = false;
      send_broken_ = true;
      send_queue_.clear();
      cv_.notify_all();  // unblock workers waiting on queue space
      opts_.loop->Unregister(fd_);  // loop thread: no self-wait, idempotent
      MaybeFinishLocked();
    }
  }
}

void RpcConnection::UpdateInterestLocked() {
  if (closed_) {
    return;
  }
  bool want_read = read_open_ && !read_paused_;
  if (want_read == applied_read_ && want_write_ == applied_write_) {
    return;  // epoll already has this interest set
  }
  applied_read_ = want_read;
  applied_write_ = want_write_;
  (void)opts_.loop->ModifyInterest(fd_, want_read, want_write_);
}

void RpcConnection::PumpReads() {
  obs::RpcRecorder* rec = opts_.recorder;
  const bool timing = rec != nullptr && rec->enabled();
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || !read_open_) {
        return;
      }
      if (inflight_ >= opts_.max_inflight) {
        if (!read_paused_) {
          read_paused_ = true;
          UpdateInterestLocked();
        }
        return;
      }
    }
    obs::CallTimestamps ts;
    if (timing) {
      ts.received_ns = rec->Now();
    }
    Result<std::optional<Bytes>> frame = stream_->TryRecv();
    if (frame.ok() && !frame->has_value()) {
      return;  // socket drained; wait for the next readability event
    }
    Result<DecodedCall> call =
        frame.ok() ? DecodeCall(**frame) : Result<DecodedCall>(frame.status());
    if (!call.ok()) {
      // Peer hung up or the framing is corrupt: stop accepting requests,
      // let in-flight replies drain, then close.
      std::lock_guard<std::mutex> lock(mu_);
      read_open_ = false;
      UpdateInterestLocked();
      MaybeFinishLocked();
      return;
    }
    if (timing) {
      ts.decoded_ns = rec->Now();
    }
    const bool tiered = opts_.admission_queue_limit > 0;
    // One queue_depth() read serves both the admission check and the
    // recorder's pool-backlog sample.
    size_t pool_depth = 0;
    if (timing || tiered) {
      pool_depth = opts_.pool->queue_depth();
    }
    RpcPriority priority = RpcPriority::kNamespace;
    if (tiered) {
      priority = dispatcher_->PriorityOf(call->prog, call->proc);
    }
    const size_t admission_limit = AdmissionLimitFor(priority);
    if (admission_limit > 0 && pool_depth >= admission_limit) {
      // Admission bound or shed watermark hit: answer busy without
      // touching the pool. Control replies push without blocking
      // (stalling the loop would stall every connection), but a reject
      // storm must not grow the queue unboundedly either: once the queue
      // reaches its limit, pause reads until the drain works it back
      // down.
      if (rec != nullptr) {
        rec->RecordShed(static_cast<size_t>(priority));
      }
      std::unique_lock<std::mutex> lock(mu_);
      if (!closed_ && !send_broken_) {
        PushReplyAndDrainLocked(
            EncodeReply(call->xid, ResourceExhaustedError(
                                       "server busy: admission limit "
                                       "reached")),
            lock);
        if (!closed_ && send_queue_.size() >= opts_.send_queue_limit &&
            !read_paused_) {
          read_paused_ = true;
          UpdateInterestLocked();
          return;
        }
      }
      continue;
    }
    // Deadline snapshot at admission: the v2 trailer carries a relative
    // budget, so expiry is anchored to local arrival time (no cross-host
    // clock agreement needed).
    uint64_t expires_at_ns = 0;
    if (call->deadline_ms != 0) {
      expires_at_ns =
          obs::MonotonicNanos() + call->deadline_ms * uint64_t{1'000'000};
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++inflight_;
    }
    auto self = shared_from_this();
    opts_.pool->Submit(
        [self, call = std::move(*call), ts, pool_depth,
         expires_at_ns]() mutable {
          self->ExecuteOnPool(call.xid, call.prog, call.proc,
                              std::move(call.args), call.trace_id,
                              expires_at_ns, ts, pool_depth);
        });
  }
}

size_t RpcConnection::AdmissionLimitFor(RpcPriority priority) const {
  const size_t limit = opts_.admission_queue_limit;
  if (limit == 0 || priority == RpcPriority::kControl) {
    return limit;
  }
  return std::max<size_t>(
      1, priority == RpcPriority::kData ? limit / 4 : limit / 2);
}

void RpcConnection::ExecuteOnPool(uint32_t xid, uint32_t prog, uint32_t proc,
                                  Bytes args, uint64_t trace_id,
                                  uint64_t expires_at_ns,
                                  obs::CallTimestamps ts,
                                  size_t pool_queue_depth) {
  obs::RpcRecorder* rec = opts_.recorder;
  // received_ns == 0 means PumpReads saw the recorder disabled; keep the
  // whole call untimed rather than record half a span set.
  const bool timing = rec != nullptr && ts.received_ns != 0;
  if (timing) {
    ts.exec_start_ns = rec->Now();
  }
  Bytes reply;
  if (expires_at_ns != 0 && obs::MonotonicNanos() >= expires_at_ns) {
    // Expired at dequeue: the caller has already given up, so executing
    // would burn a worker on a reply nobody reads. Answer without
    // dispatching.
    if (rec != nullptr) {
      rec->RecordExpired();
    }
    reply = EncodeReply(
        xid, DeadlineExceededError("deadline expired before execution"));
  } else {
    DecodedCall call;
    call.xid = xid;
    call.prog = prog;
    call.proc = proc;
    call.args = std::move(args);
    call.trace_id = trace_id;
    reply = EncodeReply(xid, DispatchTraced(*dispatcher_, call, ctx_));
  }
  if (timing) {
    ts.exec_end_ns = rec->Now();
  }
  size_t send_depth = EnqueueReply(std::move(reply));
  if (timing) {
    ts.replied_ns = rec->Now();
    rec->RecordCall(prog, proc, ts, send_depth, pool_queue_depth, trace_id);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    if (ShouldResumeReadsLocked()) {
      ResumeReadsLocked();
    }
    MaybeFinishLocked();
  }
}

bool RpcConnection::ShouldResumeReadsLocked() const {
  if (!read_paused_ || !read_open_ || closed_ || send_broken_) {
    return false;
  }
  // Hysteresis: resume reads at half the cap, not cap-1, so a client
  // pinned at max_inflight costs one pause/resume round trip (epoll_ctl
  // + loop wakeup) per half-window of requests instead of per request.
  const size_t low_water = opts_.max_inflight > 1 ? opts_.max_inflight / 2 : 1;
  return inflight_ < low_water && send_queue_.size() < opts_.send_queue_limit;
}

void RpcConnection::ResumeReadsLocked() {
  read_paused_ = false;
  // Interest changes and read pumping belong to the loop thread; frames
  // may be waiting in the stream's reassembly buffer where readability
  // will not fire again, so pump explicitly.
  auto self = shared_from_this();
  opts_.loop->Post([self] {
    {
      std::lock_guard<std::mutex> lock(self->mu_);
      if (self->closed_) {
        return;
      }
      self->UpdateInterestLocked();
    }
    self->PumpReads();
  });
}

size_t RpcConnection::EnqueueReply(Bytes frame) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!opts_.loop->InLoopThread()) {
    // Backpressure: hold this worker (and its in-flight slot, which pauses
    // reads) until the writer frees queue space.
    cv_.wait(lock, [&] {
      return closed_ || send_broken_ ||
             send_queue_.size() < opts_.send_queue_limit;
    });
  }
  if (closed_ || send_broken_) {
    return 0;  // connection is gone; the reply has nowhere to go
  }
  size_t depth = send_queue_.size() + 1;  // depth right after the push below
  PushReplyAndDrainLocked(std::move(frame), lock);
  return depth;
}

void RpcConnection::PushReplyAndDrainLocked(
    Bytes frame, std::unique_lock<std::mutex>& lock) {
  send_queue_.push_back(std::move(frame));
  queue_peak_ = std::max(queue_peak_, send_queue_.size());
  // Whoever finds the writer token free drains inline — usually the worker
  // that just finished this request, which seals and sends with zero
  // thread hops when the wire is idle. With the wire backed up
  // (flush_pending_), workers hand off instead: the armed EPOLLOUT event
  // resumes draining on the loop.
  if (draining_ || flush_pending_ || send_broken_) {
    return;
  }
  draining_ = true;
  DrainQueueLocked(lock);
}

void RpcConnection::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (draining_) {
    return;  // another thread holds the writer token; it will re-check
  }
  draining_ = true;
  DrainQueueLocked(lock);
}

void RpcConnection::DrainQueueLocked(std::unique_lock<std::mutex>& lock) {
  // Requires: draining_ token held by this thread. The stream's send side
  // is only ever touched by the token holder, so there is exactly one
  // writer at any moment even though the token migrates between workers
  // and the loop.
  while (!closed_ && !send_broken_) {
    if (flush_pending_) {
      lock.unlock();
      Result<bool> flushed = stream_->FlushSend();
      lock.lock();
      if (!flushed.ok()) {
        send_broken_ = true;
        break;
      }
      flush_pending_ = !flushed.value();
      if (flush_pending_) {
        break;  // kernel buffer still full; wait for writability
      }
      continue;
    }
    if (send_queue_.empty()) {
      break;
    }
    Bytes frame = std::move(send_queue_.front());
    send_queue_.pop_front();
    cv_.notify_all();  // queue space freed; unblock a waiting worker
    lock.unlock();
    Result<bool> sent = stream_->SendNonBlocking(frame);
    lock.lock();
    if (!sent.ok()) {
      send_broken_ = true;
      break;
    }
    flush_pending_ = !sent.value();
  }
  draining_ = false;
  if (send_broken_) {
    send_queue_.clear();
    cv_.notify_all();
  }
  if (!closed_) {
    want_write_ = flush_pending_ && !send_broken_;
    // A busy-reject storm pauses reads on a full queue without any
    // in-flight work, so the drain is the only party who can restart
    // them once it frees queue space.
    if (ShouldResumeReadsLocked()) {
      ResumeReadsLocked();
    }
    UpdateInterestLocked();
    MaybeFinishLocked();
  }
}

void RpcConnection::MaybeFinishLocked() {
  if (closed_ || finish_scheduled_ || read_open_ || inflight_ > 0) {
    return;
  }
  if (!send_broken_ && (!send_queue_.empty() || flush_pending_)) {
    return;  // still replies to deliver
  }
  finish_scheduled_ = true;
  auto self = shared_from_this();
  opts_.loop->Post([self] { self->FinishClose(); });
}

void RpcConnection::FinishClose() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    closed_ = true;
    send_queue_.clear();
    cv_.notify_all();
  }
  opts_.loop->Unregister(fd_);  // from the loop thread: returns at once
  stream_->Shutdown();
  InvokeClosed();
}

void RpcConnection::Abort() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return;
    }
    closed_ = true;
    send_queue_.clear();
    cv_.notify_all();
  }
  // Waits out any in-flight loop callback for this fd, so the caller can
  // rely on full quiescence afterwards.
  opts_.loop->Unregister(fd_);
  stream_->Shutdown();
  InvokeClosed();
}

void RpcConnection::InvokeClosed() {
  ClosedFn cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cb = std::move(on_closed_);
    on_closed_ = nullptr;
  }
  if (cb) {
    cb(this);
  }
}

bool RpcConnection::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t RpcConnection::send_queue_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_peak_;
}

}  // namespace discfs
