// HandshakeReactor — non-blocking server handshakes on the shared event
// loop (PR 10 handshake hardening).
//
// The previous host ran SecureChannel::ServerHandshake on a pool worker:
// two blocking round trips plus DSA math per connection. A slowloris peer
// that connects and then trickles (or never sends) its ClientHello would
// park one worker per socket until the pool — the same pool that executes
// every RPC — was fully occupied by idle handshakes.
//
// Here a half-open connection costs no thread at all: the socket sits on
// the EventLoop, each complete handshake frame is handed to the sans-io
// ServerHandshakeMachine on the pool (CPU work only — the worker never
// blocks on the peer), and responses go back through the transport's
// buffered non-blocking sender. Two hard bounds protect the host:
//
//  - timeout_ms: a per-connection deadline armed at accept; a handshake
//    that has not completed when it fires is torn down.
//  - max_half_open: at the cap, the oldest half-open handshake is evicted
//    to admit the new arrival (newest-wins, so a flood cannot lock out
//    fresh legitimate clients behind its own stale sockets).
//
// Threading: transport I/O happens only on the poller thread while the
// entry is not `busy`; setting `busy` (poller, before the pool submit)
// transfers the transport to the worker until it clears the flag. The
// reactor mutex is never held across loop->Unregister (which waits out
// in-flight dispatch — dispatch callbacks take the same mutex).
#ifndef DISCFS_SRC_DISCFS_HANDSHAKE_H_
#define DISCFS_SRC_DISCFS_HANDSHAKE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/net/event_loop.h"
#include "src/net/transport.h"
#include "src/securechannel/channel.h"
#include "src/util/worker_pool.h"

namespace discfs {

class HandshakeReactor {
 public:
  struct Options {
    EventLoop* loop = nullptr;
    WorkerPool* pool = nullptr;
    ChannelIdentity identity;
    // Per-connection budget from Begin() to an established channel.
    uint64_t timeout_ms = 5000;
    // Concurrent half-open handshakes; at the cap the oldest is evicted.
    size_t max_half_open = 256;
  };

  struct Stats {
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;     // bad frames, crypto failures, peer vanished
    uint64_t timed_out = 0;  // exceeded timeout_ms
    uint64_t evicted = 0;    // displaced by a newer arrival at the cap
    size_t half_open = 0;    // currently in flight
  };

  // Called off a pool worker with each successfully established channel.
  // Not called after Shutdown() begins (late finishers are dropped).
  using EstablishedFn = std::function<void(std::unique_ptr<SecureChannel>)>;

  HandshakeReactor(Options options, EstablishedFn on_established);
  ~HandshakeReactor();  // implies Shutdown()

  HandshakeReactor(const HandshakeReactor&) = delete;
  HandshakeReactor& operator=(const HandshakeReactor&) = delete;

  // Takes ownership of a freshly accepted transport and drives its
  // handshake to completion, timeout, or eviction. Any-thread-safe (the
  // host calls it from the accept thread). Drops the transport once
  // Shutdown() has run.
  void Begin(std::unique_ptr<TcpTransport> transport);

  // Tears down every half-open handshake and rejects future Begins. Safe
  // to call while workers are mid-step: they observe the flag and retire
  // their entry instead of delivering it. Must run before the EventLoop
  // and WorkerPool are destroyed.
  void Shutdown();

  Stats stats() const;
  size_t half_open() const;

 private:
  struct Core;
  struct Entry;

  // Static steps keep a shared_ptr<Core> so callbacks scheduled on the
  // loop or pool stay valid however late they fire.
  static void OnEvent(const std::shared_ptr<Core>& core, int fd,
                      uint32_t events);
  static void PumpLocked(const std::shared_ptr<Core>& core, int fd,
                         std::unique_lock<std::mutex>& lock);
  static void RunStep(const std::shared_ptr<Core>& core,
                      const std::shared_ptr<Entry>& entry, Bytes message);
  static void OnTimeout(const std::shared_ptr<Core>& core, int fd,
                        uint64_t id);
  static void Retire(const std::shared_ptr<Core>& core,
                     const std::shared_ptr<Entry>& entry,
                     std::unique_lock<std::mutex> lock);

  std::shared_ptr<Core> core_;
};

}  // namespace discfs

#endif  // DISCFS_SRC_DISCFS_HANDSHAKE_H_
