// Hosting helpers: run a DisCFS server (secure channel) or a CFS-NE
// baseline server (plain NFS, no credentials) on a TCP listener. There is
// no thread per connection anywhere: one accept thread hands new sockets
// to the HandshakeReactor, which drives each handshake on the shared epoll
// EventLoop (crypto steps on the WorkerPool, no worker ever waiting on a
// peer). Every established connection is then an RpcConnection on the
// same loop — decode on readability, execute on the pool, reply through a
// bounded per-connection send queue. Total runtime threads are
// O(workers + 1 poller + 1 acceptor) no matter how many connections are
// open, and an optional global admission bound busy-rejects new requests
// once the pool's queue backs up.
#ifndef DISCFS_SRC_DISCFS_HOST_H_
#define DISCFS_SRC_DISCFS_HOST_H_

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/cluster/fabric.h"
#include "src/discfs/handshake.h"
#include "src/discfs/server.h"
#include "src/net/event_loop.h"
#include "src/nfs/nfs_client.h"
#include "src/nfs/nfs_server.h"
#include "src/util/worker_pool.h"

namespace discfs {

struct DiscfsHostOptions {
  // Execution threads shared by all connections. 0 = derive from the
  // hardware: clamp(hardware_concurrency, 8, 16) — handlers block on
  // storage, so the floor keeps I/O overlapping even on small machines.
  size_t worker_threads = 0;
  // Per-connection pipelining bound (requests executing or awaiting their
  // reply) — reads pause at this depth.
  size_t max_inflight_per_conn = 64;
  // Per-connection bound on replies queued for the loop's writer; a full
  // queue blocks the executing worker (backpressure) rather than growing.
  size_t send_queue_limit = 128;
  // Global admission bound: once the shared pool's queue depth reaches
  // this, new requests get a RESOURCE_EXHAUSTED busy reply instead of
  // queueing behind everyone else's, so connection fan-in cannot blow tail
  // latency. 0 disables admission control. Shedding is policy-aware: data
  // reads/writes shed at a quarter of the limit and namespace operations
  // at half of it (each at least 1), while control-plane work (credential
  // submits, revocations, cluster coherence) rides through to the limit.
  size_t admission_queue_limit = 0;
  // Listener bind address ("0.0.0.0" to serve remote peers).
  std::string bind_addr = "127.0.0.1";

  // --- handshake hardening (PR 10) ---
  // Per-connection budget from accept to an established secure channel; a
  // peer that trickles (or never sends) its handshake is torn down when
  // this expires instead of holding server state.
  uint64_t handshake_timeout_ms = 5000;
  // Concurrent half-open handshakes; at the cap the oldest is evicted in
  // favor of the new arrival. Half-open connections cost no threads (they
  // live on the event loop), so this bounds memory, not workers: a
  // handshake frame is capped at HandshakeMachine::kMaxMessage, so each
  // buffers at most one capped frame plus one 64 KiB socket read.
  size_t max_half_open_handshakes = 256;

  // --- cluster coherence fabric (PR 4) ---
  // Starts the fabric. It also starts when cluster_seeds or
  // cluster_storage_dir is set, or the server config names trusted
  // cluster keys. Peers are added after start through AddClusterPeer
  // (ports are often only known then) or learned from cluster_seeds.
  bool cluster_enabled = false;
  cluster::FabricTuning cluster_tuning;

  // --- restart survival, membership, faults (PR 6) ---
  // Durable fabric storage (journal + snapshots). "" keeps the fabric
  // in-memory: a restart draws a fresh incarnation and peers flush once.
  std::string cluster_storage_dir;
  cluster::FsyncPolicy cluster_fsync = cluster::FsyncPolicy::kNone;
  // Seed member addresses ("host:port"), deduplicated against the node's
  // own advertised address, so every node of a mesh can be handed the
  // same seed list; the rest of the fleet is learned through
  // Hello/heartbeat gossip.
  std::vector<std::string> cluster_seeds;
  // Host part of the advertised listen address peers dial back
  // ("host:<listener port>"); defaults to bind_addr.
  std::string advertised_host;
  // Shared fault-injection schedule for harnesses; null in production.
  std::shared_ptr<cluster::FaultSchedule> cluster_faults;
};

namespace internal {

// Live-connection bookkeeping shared by both hosts: connections register
// on creation, self-remove when the loop finishes them, and the host
// aborts whatever is left on shutdown.
class LoopConnectionSet {
 public:
  // Registers a live connection; returns false (and does not register)
  // once CloseAll has run — the caller must abort the connection.
  bool Add(std::shared_ptr<RpcConnection> conn);
  // Self-removal from a connection's on-closed hook.
  void Remove(RpcConnection* conn);
  // Aborts every live connection and rejects future Adds.
  void CloseAll();
  // Aborts every live connection but keeps accepting new ones (fault
  // injection for the coherence catch-up tests: peers and clients see a
  // broken stream and reconnect).
  void AbortActive();
  size_t active() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<RpcConnection*, std::shared_ptr<RpcConnection>> conns_;
  bool closing_ = false;
};

}  // namespace internal

// DisCFS over TCP + secure channel.
class DiscfsHost {
 public:
  static Result<std::unique_ptr<DiscfsHost>> Start(
      std::shared_ptr<Vfs> vfs, DiscfsServerConfig config, uint16_t port = 0,
      DiscfsHostOptions options = {});
  ~DiscfsHost();

  uint16_t port() const { return listener_->port(); }
  DiscfsServer& server() { return *server_; }

  // --- cluster coherence (PR 4) ---
  // Null when the fabric is disabled (no peers, no trusted keys).
  cluster::CoherenceFabric* fabric() { return fabric_.get(); }
  // Starts pushing invalidation events to `peer`.
  Status AddClusterPeer(cluster::PeerConfig peer);
  // Drops every live connection (clients and inbound peer links); the
  // host keeps serving. Coherence senders elsewhere reconnect and replay.
  void AbortConnections() { connections_.AbortActive(); }

  // --- load introspection ---
  // Requests currently executing on the shared pool.
  size_t inflight() const { return pool_->in_flight(); }
  // Requests decoded but not yet picked up by a worker.
  size_t queue_depth() const { return pool_->queue_depth(); }
  // Connections registered on the event loop (post-handshake, pre-close).
  size_t active_connections() const { return connections_.active(); }
  size_t worker_threads() const { return pool_->size(); }
  // Handshake reactor counters (half-open now, completions, timeouts,
  // evictions) — the slowloris tests and the overload bench read these.
  HandshakeReactor::Stats handshake_stats() const {
    return handshakes_->stats();
  }

 private:
  DiscfsHost() = default;
  void AcceptLoop();
  RpcConnection::Options ConnOptions() const;

  std::unique_ptr<DiscfsServer> server_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<WorkerPool> pool_;
  // Destroyed after the pool (no worker still calling into it) and
  // before the loop (its RpcClients must unregister first).
  std::unique_ptr<cluster::CoherenceFabric> fabric_;
  // Shut down after the accept thread (no new Begins) and before the
  // connection set closes — late completions just get aborted adds.
  std::unique_ptr<HandshakeReactor> handshakes_;
  DiscfsHostOptions options_;
  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
  internal::LoopConnectionSet connections_;
};

// CFS-NE baseline: the same NFS server over plain TCP, every operation
// allowed ("CFS with encryption turned off and modified to run remotely").
class CfsNeHost {
 public:
  static Result<std::unique_ptr<CfsNeHost>> Start(
      std::shared_ptr<Vfs> vfs, uint16_t port = 0,
      DiscfsHostOptions options = {});
  ~CfsNeHost();

  uint16_t port() const { return listener_->port(); }
  NfsServer& server() { return *server_; }
  size_t active_connections() const { return connections_.active(); }

 private:
  CfsNeHost() = default;
  void AcceptLoop();

  std::unique_ptr<NfsServer> server_;
  RpcDispatcher dispatcher_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<WorkerPool> pool_;
  DiscfsHostOptions options_;
  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
  internal::LoopConnectionSet connections_;
};

// Connects an NfsClient to a CfsNeHost.
Result<std::unique_ptr<NfsClient>> ConnectCfsNe(const std::string& host,
                                                uint16_t port);

// Same, over a caller-supplied stream already connected to a CfsNeHost
// (a shaped or instrumented link).
Result<std::unique_ptr<NfsClient>> ConnectCfsNeOver(
    std::unique_ptr<MsgStream> stream);

}  // namespace discfs

#endif  // DISCFS_SRC_DISCFS_HOST_H_
