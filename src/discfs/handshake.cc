#include "src/discfs/handshake.h"

#include <utility>
#include <vector>

namespace discfs {

// One half-open handshake. Lifetime: created by Begin, removed from the
// map by exactly one retire/complete path; shared_ptr copies held by
// in-flight worker steps keep the transport alive until they finish.
struct HandshakeReactor::Entry {
  explicit Entry(const ChannelIdentity& identity)
      : machine(HandshakeMachine::Server(identity)) {
    machine.Start();  // a server opens with nothing to send
  }

  uint64_t id = 0;  // disambiguates a reused fd number
  int fd = -1;
  std::unique_ptr<TcpTransport> transport;
  HandshakeMachine machine;
  std::chrono::steady_clock::time_point started;

  // All guarded by Core::mu. `busy` means a pool worker owns the
  // transport and machine; the poller leaves both alone until it clears.
  bool busy = false;
  // A response is parked in the transport's send buffer awaiting
  // writability; reads stay muted until it drains.
  bool flushing = false;
  // Condemned (timeout, eviction, shutdown, error). Non-busy dead entries
  // are retired immediately; busy ones by their worker when the step ends.
  bool dead = false;
};

struct HandshakeReactor::Core {
  mutable std::mutex mu;
  Options opts;
  EstablishedFn on_established;
  std::unordered_map<int, std::shared_ptr<Entry>> entries;
  Stats counters;  // half_open unused; derived from entries.size()
  uint64_t next_id = 0;
  bool shutdown = false;
};

HandshakeReactor::HandshakeReactor(Options options,
                                   EstablishedFn on_established)
    : core_(std::make_shared<Core>()) {
  core_->opts = std::move(options);
  core_->on_established = std::move(on_established);
}

HandshakeReactor::~HandshakeReactor() { Shutdown(); }

void HandshakeReactor::Begin(std::unique_ptr<TcpTransport> transport) {
  std::shared_ptr<Core> core = core_;
  const int fd = transport->PollFd();
  std::shared_ptr<Entry> evicted;
  uint64_t id = 0;
  {
    std::unique_lock<std::mutex> lock(core->mu);
    if (core->shutdown) {
      return;  // transport destroyed; socket closes
    }
    if (core->entries.size() >= core->opts.max_half_open &&
        !core->entries.empty()) {
      // Newest wins: a flood of stale half-open sockets must not lock out
      // fresh arrivals, so the oldest in-flight handshake is displaced.
      auto oldest = core->entries.begin();
      for (auto it = core->entries.begin(); it != core->entries.end(); ++it) {
        if (it->second->started < oldest->second->started) {
          oldest = it;
        }
      }
      core->counters.evicted++;
      oldest->second->dead = true;
      if (!oldest->second->busy) {
        evicted = oldest->second;
        core->entries.erase(oldest);
      }
      // A busy victim is retired by its worker when the step completes.
    }
    id = ++core->next_id;
    auto entry = std::make_shared<Entry>(core->opts.identity);
    entry->id = id;
    entry->fd = fd;
    // Until the handshake completes, a frame longer than any handshake
    // message fails from its header: a peer that has not authenticated
    // cannot make the host buffer more than this per connection.
    transport->set_max_frame(HandshakeMachine::kMaxMessage);
    entry->transport = std::move(transport);
    entry->started = std::chrono::steady_clock::now();
    core->entries.emplace(fd, std::move(entry));
    core->counters.started++;
  }
  if (evicted != nullptr) {
    core->opts.loop->Unregister(evicted->fd);
    evicted.reset();  // closes the evicted socket
  }
  Status registered = core->opts.loop->Register(
      fd, /*want_read=*/true, /*want_write=*/false,
      [core, fd](uint32_t events) { OnEvent(core, fd, events); });
  if (!registered.ok()) {
    std::unique_lock<std::mutex> lock(core->mu);
    auto it = core->entries.find(fd);
    if (it != core->entries.end() && it->second->id == id) {
      core->counters.failed++;
      core->entries.erase(it);
    }
    return;
  }
  core->opts.loop->RunAfter(core->opts.timeout_ms, [core, fd, id] {
    OnTimeout(core, fd, id);
  });
}

void HandshakeReactor::OnTimeout(const std::shared_ptr<Core>& core, int fd,
                                 uint64_t id) {
  std::unique_lock<std::mutex> lock(core->mu);
  auto it = core->entries.find(fd);
  if (it == core->entries.end() || it->second->id != id) {
    return;  // completed, retired, or the fd was reused
  }
  std::shared_ptr<Entry> entry = it->second;
  core->counters.timed_out++;
  entry->dead = true;
  if (entry->busy) {
    return;  // the worker retires it when the step completes
  }
  Retire(core, entry, std::move(lock));
}

// Runs on the poller with the Core lock held; may release it. The entry
// at `fd` must be idle (not busy, not dead, not flushing) — callers check.
void HandshakeReactor::PumpLocked(const std::shared_ptr<Core>& core, int fd,
                                  std::unique_lock<std::mutex>& lock) {
  auto it = core->entries.find(fd);
  if (it == core->entries.end()) {
    return;
  }
  std::shared_ptr<Entry> entry = it->second;
  if (entry->busy || entry->dead || entry->flushing) {
    return;
  }
  Result<std::optional<Bytes>> message = entry->transport->TryRecv();
  if (!message.ok()) {
    core->counters.failed++;
    entry->dead = true;
    Retire(core, entry, std::move(lock));
    return;
  }
  if (!message->has_value()) {
    return;  // no complete frame yet; stay armed for readability
  }
  // Hand the frame to a worker and mute reads until the step completes —
  // the reactor never buffers more than one frame per handshake, so a
  // firehosing client cannot grow server-side state.
  entry->busy = true;
  core->opts.loop->ModifyInterest(fd, /*want_read=*/false,
                                  /*want_write=*/false);
  Bytes frame = std::move(**message);
  lock.unlock();
  core->opts.pool->Submit(
      [core, entry, frame = std::move(frame)]() mutable {
        RunStep(core, entry, std::move(frame));
      });
}

void HandshakeReactor::OnEvent(const std::shared_ptr<Core>& core, int fd,
                               uint32_t events) {
  std::unique_lock<std::mutex> lock(core->mu);
  auto it = core->entries.find(fd);
  if (it == core->entries.end()) {
    return;  // stale dispatch for a retired entry
  }
  std::shared_ptr<Entry> entry = it->second;
  if (entry->busy || entry->dead) {
    return;
  }
  if (entry->flushing &&
      (events & (EventLoop::kWritable | EventLoop::kError)) != 0) {
    Result<bool> flushed = entry->transport->FlushSend();
    if (!flushed.ok()) {
      core->counters.failed++;
      entry->dead = true;
      Retire(core, entry, std::move(lock));
      return;
    }
    if (*flushed) {
      entry->flushing = false;
      core->opts.loop->ModifyInterest(fd, /*want_read=*/true,
                                      /*want_write=*/false);
    }
  }
  if (entry->flushing) {
    return;  // reads stay muted until the response drains
  }
  if ((events & EventLoop::kReadable) != 0) {
    PumpLocked(core, fd, lock);
  }
}

// Pool worker: advances the machine one message. `busy` is set, so the
// transport and machine are exclusively ours until we clear it under the
// lock. No Core lock is held across the CPU work or the transport send.
void HandshakeReactor::RunStep(const std::shared_ptr<Core>& core,
                               const std::shared_ptr<Entry>& entry,
                               Bytes message) {
  Result<HandshakeMachine::Step> step = entry->machine.OnMessage(message);
  bool send_failed = false;
  bool sent_fully = true;
  if (step.ok() && !step->response.empty()) {
    Result<bool> sent = entry->transport->SendNonBlocking(step->response);
    if (!sent.ok()) {
      send_failed = true;
    } else {
      sent_fully = *sent;
    }
  }

  std::unique_lock<std::mutex> lock(core->mu);
  if (entry->dead || core->shutdown) {
    // Condemned mid-step (timeout, eviction, shutdown); whoever marked it
    // dead already counted it.
    Retire(core, entry, std::move(lock));
    return;
  }
  if (!step.ok() || send_failed) {
    core->counters.failed++;
    entry->dead = true;
    Retire(core, entry, std::move(lock));
    return;
  }
  if (step->done) {
    core->counters.completed++;
    auto it = core->entries.find(entry->fd);
    if (it != core->entries.end() && it->second == entry) {
      core->entries.erase(it);
    }
    lock.unlock();
    // Unregister before handing the fd-bearing channel out: the host will
    // register the same fd for RPC serving.
    core->opts.loop->Unregister(entry->fd);
    // Frames pipelined behind ClientAuth are records.
    entry->transport->set_max_frame(TcpTransport::kMaxFrame);
    Result<std::unique_ptr<SecureChannel>> channel =
        entry->machine.Finish(std::move(entry->transport));
    if (channel.ok()) {
      core->on_established(std::move(*channel));
    }
    return;
  }

  // Awaiting the peer's next message.
  entry->busy = false;
  if (!sent_fully) {
    entry->flushing = true;
    lock.unlock();
    core->opts.loop->ModifyInterest(entry->fd, /*want_read=*/false,
                                    /*want_write=*/true);
    return;
  }
  const int fd = entry->fd;
  const uint64_t id = entry->id;
  lock.unlock();
  // Re-arm reads on the poller and drain any frame the transport already
  // buffered while we were muted (epoll will not re-fire for those bytes).
  core->opts.loop->Post([core, fd, id] {
    std::unique_lock<std::mutex> relock(core->mu);
    auto it = core->entries.find(fd);
    if (it == core->entries.end() || it->second->id != id) {
      return;
    }
    std::shared_ptr<Entry> e = it->second;
    if (e->busy || e->dead || e->flushing) {
      return;
    }
    core->opts.loop->ModifyInterest(fd, /*want_read=*/true,
                                    /*want_write=*/false);
    PumpLocked(core, fd, relock);
  });
}

// Removes `entry` from the map (if still present) and unregisters its fd
// outside the lock — Unregister waits out in-flight dispatch, and dispatch
// callbacks take this same lock. Requires entry->dead.
void HandshakeReactor::Retire(const std::shared_ptr<Core>& core,
                              const std::shared_ptr<Entry>& entry,
                              std::unique_lock<std::mutex> lock) {
  auto it = core->entries.find(entry->fd);
  if (it != core->entries.end() && it->second == entry) {
    core->entries.erase(it);
  }
  entry->busy = false;
  lock.unlock();
  core->opts.loop->Unregister(entry->fd);
  // The caller's shared_ptr copies drop shortly after; the transport (and
  // socket) die with the last one.
}

void HandshakeReactor::Shutdown() {
  std::shared_ptr<Core> core = core_;
  std::vector<std::shared_ptr<Entry>> drop;
  {
    std::lock_guard<std::mutex> lock(core->mu);
    core->shutdown = true;
    for (auto it = core->entries.begin(); it != core->entries.end();) {
      it->second->dead = true;
      if (it->second->busy) {
        ++it;  // its worker retires it; the pool drains before the loop dies
        continue;
      }
      drop.push_back(it->second);
      it = core->entries.erase(it);
    }
  }
  for (const std::shared_ptr<Entry>& entry : drop) {
    core->opts.loop->Unregister(entry->fd);
  }
}

HandshakeReactor::Stats HandshakeReactor::stats() const {
  std::lock_guard<std::mutex> lock(core_->mu);
  Stats stats = core_->counters;
  stats.half_open = core_->entries.size();
  return stats;
}

}  // namespace discfs
