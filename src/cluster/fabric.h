// Coherence fabric (PR 4): replicates credential-churn invalidation events
// to every peer DisCFS server, so a revocation accepted anywhere drops the
// affected cached grants everywhere — scoped (per-principal generation
// bumps), not a global flush.
//
// Topology is a static full mesh: the server that accepts a mutation
// appends an event to its local CoherenceEventLog and one PeerSender per
// configured peer pushes it over the existing runtime — TcpTransport →
// SecureChannel (the sender authenticates with the server's own channel
// key; receivers check it against their cluster trust set) → RpcClient
// demuxed on the host's shared EventLoop. Events are never forwarded
// peer-to-peer, so there are no replication cycles.
//
// Delivery: at-least-once with per-peer acked cursors. A sender replays
// from the receiver's cursor (learned via Hello on every connect) after a
// disconnect; receivers skip duplicates by sequence number, making
// application exactly-once per origin. Reconnects back off exponentially.
// When the origin's log has been compacted past a receiver's cursor, the
// sender ships one kInvalidateAll standing in for the lost prefix, then
// replays the retained suffix — a blunt flush is always a safe
// over-approximation of the lost scoped bumps. The residual risk of that
// fallback — a *revocation* event lost with the compacted prefix — is
// closed by periodic revocation-list anti-entropy (see kRevocationSync in
// protocol.h).
//
// PR 6 adds restart survival: with a storage_dir configured, every
// published and applied event is journaled through a CoherenceStore and
// derived state (receive cursors, the server's revocation entries) is
// snapshotted periodically, so a restarted server replays its way back
// under the same incarnation id instead of forcing a cluster-wide flush
// (see persistence.h for the layout and the incarnation retention rule).
// Membership is seed-based — peers gossip advertised listen addresses on
// Hello and kClusterStatus heartbeats, which also drive per-peer liveness
// (see membership.h) — and a shared FaultSchedule seam lets harnesses
// and tests sever links (see fault.h).
#ifndef DISCFS_SRC_CLUSTER_FABRIC_H_
#define DISCFS_SRC_CLUSTER_FABRIC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/event_log.h"
#include "src/cluster/fault.h"
#include "src/cluster/membership.h"
#include "src/cluster/persistence.h"
#include "src/cluster/protocol.h"
#include "src/crypto/dsa.h"
#include "src/net/event_loop.h"
#include "src/securechannel/channel.h"

namespace discfs::cluster {

struct PeerConfig {
  std::string host;
  uint16_t port = 0;
  // Pins the peer's channel key (self-certifying connect). Unset accepts
  // whatever key the peer presents — fine when the *receiver* enforces the
  // trust set, which it always does.
  std::optional<DsaPublicKey> expected_key;
};

struct FabricTuning {
  // Events retained for replay; reconnecting peers whose cursor fell
  // behind by more than this get a full invalidation instead.
  size_t log_capacity = 4096;
  // Cap on the exponential reconnect backoff (which starts at 10 ms).
  std::chrono::milliseconds reconnect_max{1000};
  // Bound on each TCP connect attempt, so a blackholed peer (SYNs
  // dropped, not refused) cannot pin a sender — or fabric teardown —
  // for the kernel's multi-minute connect timeout.
  std::chrono::milliseconds connect_timeout{1000};
  // Bound on the handshake and on each RPC once connected: a peer that
  // dies without RST (power loss, partition) would otherwise hold its
  // sender in a reply wait forever, silently stopping revocation
  // replication to it. On expiry the link is dropped and the reconnect
  // loop takes over. The bound also rides each call frame, so the
  // receiver drops a call that waited past it instead of executing it.
  std::chrono::milliseconds call_timeout{10000};
  // Events (published + applied) between cursor/state snapshots when a
  // storage_dir is configured; the maintenance thread wakes as the count
  // reaches it. 0 snapshots after every event.
  size_t snapshot_interval = 256;
  // How often an idle link sends a kClusterStatus heartbeat (which also
  // gossips membership), and how stale the last successful RPC on a link
  // may be before the peer counts as unhealthy.
  std::chrono::milliseconds heartbeat_interval{500};
  std::chrono::milliseconds heartbeat_deadline{2500};
  // Revocation-list anti-entropy cadence per link (also runs once right
  // after every reconnect — exactly the moment a partition healed).
  std::chrono::milliseconds anti_entropy_interval{1000};
};

struct FabricConfig {
  // Stable unique origin stamp for this server's events (DiscfsHost uses
  // the server's public key string).
  std::string node_id;
  // Shared poller the peer RpcClients demux on. Required; must outlive
  // the fabric.
  EventLoop* loop = nullptr;
  // Channel identity for outbound peer links (the server's own key).
  ChannelIdentity identity;
  // Remote events land here, in per-origin sequence order; different
  // origins may apply concurrently. Must be safe to call from RPC worker
  // threads and must not call back into Publish. Recovery also replays
  // journaled events through this at construction, before any sender or
  // receiver runs.
  std::function<void(const CoherenceEvent&)> apply;
  // Advertised "host:port" peers should dial back; "" = not listening
  // (membership gossip then omits this node).
  std::string listen_addr;
  // Durable storage directory; "" = in-memory only (PR 4 behavior).
  std::string storage_dir;
  FsyncPolicy fsync = FsyncPolicy::kNone;
  // Snapshot/restore of the server's opaque state (revocation entries).
  // collect_state is called from the maintenance thread with no fabric
  // lock held that Publish needs, so it may take the server's shared
  // lock; restore_state runs once during construction.
  std::function<Bytes()> collect_state;
  std::function<void(const Bytes&)> restore_state;
  // Anti-entropy hooks: (digest, serialized entries) of the server's
  // revocation list, and a merge of a peer's serialized entries returning
  // how many were newly learned. Called from peer sender threads.
  std::function<std::pair<Bytes, Bytes>()> collect_revocations;
  std::function<size_t(const Bytes&)> merge_revocations;
  // Shared fault-injection schedule; null = no faults (production).
  std::shared_ptr<FaultSchedule> faults;
  FabricTuning tuning;
};

struct FabricStats {
  uint64_t published = 0;                  // events appended locally
  uint64_t applied = 0;                    // remote events applied
  uint64_t duplicates_skipped = 0;         // at-least-once redeliveries
  uint64_t full_invalidations_applied = 0;
  uint64_t head_seq = 0;                   // local log head
  // Restart-survival accounting (all zero without a storage_dir).
  bool recovered_state = false;      // anything usable was on disk
  bool recovered_incarnation = false;  // resumed the old sequence space
  uint64_t recovered_events = 0;     // journaled events replayed at start
  uint64_t snapshots_written = 0;
  uint64_t revocation_syncs = 0;     // anti-entropy exchanges completed
  uint64_t revocations_pulled = 0;   // entries merged from peers
  std::vector<PeerHealth> peers;     // one per outbound link

  size_t healthy_peers() const {
    size_t n = 0;
    for (const PeerHealth& peer : peers) {
      if (peer.healthy) {
        ++n;
      }
    }
    return n;
  }
};

class CoherenceFabric {
 public:
  // With a storage_dir configured, construction recovers from disk:
  // restores the server blob and receive cursors, replays journaled
  // events through config.apply, and — when the incarnation retention
  // rule allows — resumes the old sequence space so peers keep their
  // cursors.
  explicit CoherenceFabric(FabricConfig config);
  // Stops and joins every peer sender, then writes the final clean
  // snapshot. Callers must quiesce the receive half first (drain the RPC
  // workers that call HandleHello/HandlePush).
  ~CoherenceFabric();

  CoherenceFabric(const CoherenceFabric&) = delete;
  CoherenceFabric& operator=(const CoherenceFabric&) = delete;

  // Adds a peer and starts pushing to it (from the current cursor the
  // peer reports, so a peer added late still converges). Any-thread-safe.
  void AddPeer(PeerConfig peer);

  // Appends a local churn event and wakes the senders. Returns the
  // assigned sequence number. Safe to call under the server's state lock:
  // replication is asynchronous and never calls back.
  uint64_t Publish(CoherenceEvent event);

  // --- receive half (wired into the server's RPC dispatcher) ---
  // Returns this receiver's last applied sequence number for `origin`.
  // A cursor stored under a *different* incarnation id belongs to a dead
  // incarnation of the origin whose sequence space restarted: the cursor
  // resets to 0 and the cache is flushed, so the reborn origin's events
  // apply instead of deduplicating against the old numbering. The same
  // reset guards a same-incarnation head regression (defensive; cannot
  // happen with an honest peer).
  // `listen_addr`, when nonempty, is the origin's advertised dial-back
  // address and joins the member set (seed-based membership).
  uint64_t HandleHello(const std::string& origin, uint64_t incarnation,
                       uint64_t origin_head,
                       const std::string& listen_addr = "");
  // Applies `events` in order, skipping those at or below the origin's
  // cursor; returns the cursor after application. Fresh events are
  // journaled before they apply when a store is configured.
  uint64_t HandlePush(const std::string& origin,
                      const std::vector<SequencedEvent>& events);
  // Heartbeat + membership gossip: merges the sender's advertised address
  // and member view, replies with ours plus our cursor for the sender.
  StatusReply HandleStatus(const StatusRequest& request);

  // Blocks until every peer's acked cursor reaches `seq` (false on
  // timeout). The convergence barrier tests and benches sit on.
  bool WaitForAck(uint64_t seq, std::chrono::milliseconds timeout);

  // Counters, log position and per-peer link health (the one home of
  // each; the server's cluster gauges read it too).
  FabricStats stats() const;
  // Cheap atomic read for hot polling (propagation benches).
  uint64_t events_applied() const {
    return applied_.load(std::memory_order_acquire);
  }
  // Last applied sequence number for `origin` (0 if never heard from).
  uint64_t ReceiveCursor(const std::string& origin) const;
  const std::string& node_id() const { return config_.node_id; }
  uint64_t incarnation() const { return incarnation_; }

  // Adds a learned member address ("host:port") as a peer unless it is
  // empty, malformed, our own advertised address, or already dialed.
  void AddPeerAddress(const std::string& address);
  // Member view for gossip: our advertised address plus every peer's.
  std::vector<std::string> MemberAddresses() const;

 private:
  class PeerSender;

  // Wakes WaitForAck waiters after a sender's cursor advanced.
  void NoteAck();

  // Recovers on-disk state at construction (no concurrency yet).
  void RecoverFromStore();
  // Captures derived state and hands it to the store. Capture order
  // matters: cursors first, server blob second, head/tail last under
  // publish_mu_ — see the comment at the definition.
  void WriteSnapshotNow(bool clean);
  // Counts events journaled since the last snapshot and wakes the
  // maintenance thread when the count reaches snapshot_interval.
  void NoteJournaled(uint64_t events);
  void MaintenanceLoop();

  FabricConfig config_;
  CoherenceEventLog log_;
  std::unique_ptr<CoherenceStore> store_;  // null without a storage_dir

  // Orders journal appends against log visibility (append-to-journal
  // happens before an event becomes readable by senders — the basis of
  // the durable_journal retention rule) and against snapshot journal
  // rewrites. Never held while taking peers_mu_ or a RecvState::mu.
  std::mutex publish_mu_;
  std::atomic<uint64_t> events_since_snapshot_{0};

  // Sender side. peers_mu_ guards the peer list and is the ack-waiters'
  // monitor; it is never held while calling into apply or the log.
  mutable std::mutex peers_mu_;
  std::condition_variable ack_cv_;
  std::vector<std::unique_ptr<PeerSender>> peers_;
  bool stopping_ = false;  // guarded by peers_mu_; rejects late AddPeer

  struct RecvState {
    // Serializes Hello/Push application for this origin (held across
    // apply, so one origin's events land in sequence order while other
    // origins apply concurrently).
    std::mutex mu;
    // Origin's incarnation as of the last Hello (0 until then). Mutated
    // under mu; atomic so snapshots read it without joining the convoy.
    std::atomic<uint64_t> incarnation{0};
    // Last applied seq from that incarnation. Advanced under mu; atomic
    // so stats/ReceiveCursor read it without joining the apply convoy.
    std::atomic<uint64_t> cursor{0};
  };

  // Returns the origin's state, creating it on first contact.
  RecvState& RecvStateFor(const std::string& origin);

  // Applies a full flush and charges it to the counters (state.mu held).
  void ApplyResetFlush();

  // Receive side. recv_mu_ only guards the map itself (entries are
  // node-stable and never erased); application serializes per origin on
  // RecvState::mu. Neither is ever taken together with peers_mu_.
  mutable std::mutex recv_mu_;
  std::unordered_map<std::string, RecvState> recv_cursors_;

  // Drawn fresh at construction — then possibly replaced by a recovered
  // incarnation when the retention rule allows resuming the old sequence
  // space. Immutable once the ctor returns.
  uint64_t incarnation_ = 0;

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> duplicates_skipped_{0};
  std::atomic<uint64_t> full_invalidations_applied_{0};
  std::atomic<uint64_t> revocation_syncs_{0};
  std::atomic<uint64_t> revocations_pulled_{0};
  bool recovered_state_ = false;        // set in ctor, then read-only
  bool recovered_incarnation_ = false;  // set in ctor, then read-only
  uint64_t recovered_events_ = 0;       // set in ctor, then read-only

  // Maintenance thread: a snapshot every snapshot_interval journaled
  // events. Started only with a store. maint_mu_ is a leaf lock.
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;  // guarded by maint_mu_
  std::thread maint_thread_;
};

}  // namespace discfs::cluster

#endif  // DISCFS_SRC_CLUSTER_FABRIC_H_
