#include "src/cluster/fabric.h"

#include <algorithm>
#include <thread>
#include <tuple>

#include "src/crypto/sysrand.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"

namespace discfs::cluster {
namespace {

// How often a sender rechecks a fault-blocked link for healing.
constexpr std::chrono::milliseconds kFaultPoll{50};
// Max events per push RPC.
constexpr size_t kBatchMax = 128;
// First reconnect backoff; it doubles up to tuning.reconnect_max.
constexpr std::chrono::milliseconds kReconnectInitial{10};

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Hello and Push both answer with the receiver's cursor for the origin.
Result<uint64_t> DecodeCursor(const Bytes& reply) {
  XdrReader r(reply);
  return r.GetU64();
}

}  // namespace

// One outbound replication link. A dedicated thread drives the blocking
// connect/handshake/push cycle (peers are few — one per cluster member —
// so a thread each is cheap); replies still demux on the shared EventLoop
// through the RpcClient. The thread owns the connection state; Stop only
// pokes it under mu_.
class CoherenceFabric::PeerSender {
 public:
  PeerSender(CoherenceFabric* fabric, PeerConfig peer)
      : fabric_(fabric),
        peer_(std::move(peer)),
        address_(peer_.host + ":" + std::to_string(peer_.port)) {
    thread_ = std::thread([this] { Run(); });
  }

  ~PeerSender() {
    Stop();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (client_ != nullptr) {
      client_->Close();  // fails a blocked Call fast
    }
    if (transport_ != nullptr) {
      transport_->Shutdown();  // unblocks a mid-handshake Recv
    }
    cv_.notify_all();
  }

  void NotifyNewEvents() {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

  uint64_t acked() const { return acked_.load(std::memory_order_acquire); }

  const std::string& address() const { return address_; }

  PeerHealth health(std::chrono::milliseconds deadline) const {
    PeerHealth h;
    h.address = address_;
    h.acked_seq = acked();
    h.connects = connects_.load(std::memory_order_relaxed);
    h.connect_failures = connect_failures_.load(std::memory_order_relaxed);
    h.full_invalidations_sent =
        full_invalidations_sent_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      h.connected = client_ != nullptr;
    }
    int64_t last = last_ok_ms_.load(std::memory_order_acquire);
    if (last >= 0) {
      h.millis_since_contact = SteadyNowMs() - last;
      h.healthy = h.connected && h.millis_since_contact <= deadline.count();
    }
    return h;
  }

 private:
  void Run() {
    const FabricTuning& tuning = fabric_->config_.tuning;
    std::chrono::milliseconds backoff = kReconnectInitial;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) {
          break;
        }
      }
      if (FaultBlocked()) {
        // Blackholed link: drop it (a live connection would just time
        // out call by call) and poll for healing.
        Disconnect();
        if (WaitStopped(kFaultPoll)) {
          break;
        }
        continue;
      }
      RpcClient* client = CurrentClient();
      if (client == nullptr) {
        if (!Connect()) {
          if (WaitStopped(backoff)) {
            break;
          }
          backoff = std::min(backoff * 2, tuning.reconnect_max);
          continue;
        }
        backoff = kReconnectInitial;
        auto now = std::chrono::steady_clock::now();
        next_heartbeat_ = now + tuning.heartbeat_interval;
        // Anti-entropy runs immediately on (re)connect — this is exactly
        // the moment a partition healed or a peer restarted, when the
        // revocation lists are most likely to have diverged.
        next_revsync_ = now;
        continue;  // re-check stop before pushing
      }

      auto now = std::chrono::steady_clock::now();
      if (fabric_->config_.collect_revocations && now >= next_revsync_) {
        next_revsync_ = now + tuning.anti_entropy_interval;
        RevocationSync(client);
        continue;
      }
      if (now >= next_heartbeat_) {
        next_heartbeat_ = now + tuning.heartbeat_interval;
        Heartbeat(client);
        continue;
      }

      bool compacted = false;
      std::vector<SequencedEvent> batch =
          fabric_->log_.ReadAfter(acked(), kBatchMax, &compacted);
      if (compacted) {
        // The log no longer holds cursor+1: one full invalidation stands
        // in for the lost prefix (seq = last lost entry), after which the
        // retained suffix replays normally.
        SequencedEvent flush;
        flush.seq = fabric_->log_.first_seq() - 1;
        flush.event.type = CoherenceEvent::Type::kInvalidateAll;
        if (PushBatch(client, {flush})) {
          full_invalidations_sent_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      if (batch.empty()) {
        // Idle: sleep until new events, the next timer, or stop.
        auto due = next_heartbeat_;
        if (fabric_->config_.collect_revocations && next_revsync_ < due) {
          due = next_revsync_;
        }
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_until(lock, due, [this] {
          return stop_ || fabric_->log_.head_seq() >
                              acked_.load(std::memory_order_acquire);
        });
        if (stop_) {
          break;
        }
        continue;
      }
      PushBatch(client, batch);
    }
    Disconnect();
  }

  bool FaultBlocked() const {
    const std::shared_ptr<FaultSchedule>& faults = fabric_->config_.faults;
    return faults != nullptr &&
           faults->Blocked(fabric_->config_.listen_addr, address_);
  }

  void NoteOk() {
    last_ok_ms_.store(SteadyNowMs(), std::memory_order_release);
  }

  // kClusterStatus heartbeat: proves liveness and gossips membership.
  void Heartbeat(RpcClient* client) {
    StatusRequest request;
    request.origin = fabric_->config_.node_id;
    request.listen_addr = fabric_->config_.listen_addr;
    request.members = fabric_->MemberAddresses();
    std::optional<StatusReply> reply =
        CallPeer(client, ClusterProc::kClusterStatus,
                 EncodeStatusRequest(request), DecodeStatusReply);
    if (!reply) {
      return;
    }
    for (const std::string& member : reply->members) {
      fabric_->AddPeerAddress(member);
    }
  }

  // kRevocationSync: one exchange converges both revocation lists.
  void RevocationSync(RpcClient* client) {
    RevocationSyncRequest request;
    request.origin = fabric_->config_.node_id;
    std::tie(request.digest, request.entries) =
        fabric_->config_.collect_revocations();
    std::optional<RevocationSyncReply> reply =
        CallPeer(client, ClusterProc::kRevocationSync,
                 EncodeRevocationSyncRequest(request),
                 DecodeRevocationSyncReply);
    if (!reply) {
      return;
    }
    fabric_->revocation_syncs_.fetch_add(1, std::memory_order_relaxed);
    if (!reply->match && fabric_->config_.merge_revocations) {
      size_t pulled = fabric_->config_.merge_revocations(reply->entries);
      if (pulled > 0) {
        fabric_->revocations_pulled_.fetch_add(pulled,
                                               std::memory_order_relaxed);
      }
    }
  }

  RpcClient* CurrentClient() {
    std::lock_guard<std::mutex> lock(mu_);
    return client_.get();
  }

  // Calls a cluster procedure and decodes its reply. call_timeout bounds
  // the call, since a peer that dies without RST never replies; the
  // deadline also rides the frame, so the peer drops a call that waited
  // past it instead of executing it. A failed call or an undecodable
  // reply drops the link and the reconnect loop takes over; a decoded
  // reply marks the link alive.
  template <typename T>
  std::optional<T> CallPeer(RpcClient* client, ClusterProc proc,
                            const Bytes& args,
                            Result<T> (*decode)(const Bytes&)) {
    Result<Bytes> reply = client->Call(
        kClusterProgram, static_cast<uint32_t>(proc), args,
        static_cast<uint32_t>(fabric_->config_.tuning.call_timeout.count()));
    Result<T> decoded =
        reply.ok() ? decode(*reply) : Result<T>(reply.status());
    if (!decoded.ok()) {
      Disconnect();
      return std::nullopt;
    }
    NoteOk();
    return std::move(decoded).value();
  }

  // Returns true when stop was requested during the wait.
  bool WaitStopped(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return stop_; });
  }

  bool Connect() {
    auto transport = TcpTransport::Connect(
        peer_.host, peer_.port,
        static_cast<int>(
            fabric_->config_.tuning.connect_timeout.count()));
    if (!transport.ok()) {
      connect_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) {
        return false;
      }
      transport_ = std::move(transport).value();
    }
    // The transport stays ours until Finish, so Stop can Shutdown it
    // mid-handshake; call_timeout bounds the wait for the peer's reply,
    // as it bounds every RPC once connected.
    HandshakeMachine machine =
        HandshakeMachine::Client(fabric_->config_.identity, peer_.expected_key);
    transport_->set_recv_timeout_ms(
        static_cast<int>(fabric_->config_.tuning.call_timeout.count()));
    Status shaken = machine.Run(*transport_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!shaken.ok() || stop_) {
        transport_.reset();
        connect_failures_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      transport_->set_recv_timeout_ms(0);
      client_ = std::make_unique<RpcClient>(
          machine.Finish(std::move(transport_)).value(),
          fabric_->config_.loop);
    }
    // Learn where the peer wants us to resume (its cursor for our origin;
    // 0 from a fresh peer replays everything retained). The incarnation
    // id lets a peer that outlived our restart detect that our sequence
    // space is new and reset, instead of deduplicating the reborn log
    // against the dead incarnation's numbering forever.
    HelloRequest hello;
    hello.origin = fabric_->config_.node_id;
    hello.incarnation = fabric_->incarnation_;
    hello.head_seq = fabric_->log_.head_seq();
    hello.listen_addr = fabric_->config_.listen_addr;
    std::optional<uint64_t> cursor = CallPeer(
        CurrentClient(), ClusterProc::kHello, EncodeHello(hello), DecodeCursor);
    if (!cursor) {
      connect_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // A well-behaved peer never claims more than we offered; clamp so a
    // confused one cannot stall this sender waiting for unreachable seqs.
    acked_.store(std::min(*cursor, hello.head_seq), std::memory_order_release);
    connects_.fetch_add(1, std::memory_order_relaxed);
    fabric_->NoteAck();
    return true;
  }

  // Sends one push and advances the cursor from the reply. On any failure
  // the connection is dropped (the next loop iteration reconnects and
  // resumes from the receiver's authoritative cursor).
  bool PushBatch(RpcClient* client, const std::vector<SequencedEvent>& batch) {
    PushRequest request;
    request.origin = fabric_->config_.node_id;
    request.events = batch;
    std::optional<uint64_t> cursor = CallPeer(
        client, ClusterProc::kPush, EncodePush(request), DecodeCursor);
    if (!cursor) {
      return false;
    }
    if (*cursor > acked_.load(std::memory_order_acquire)) {
      acked_.store(*cursor, std::memory_order_release);
    }
    fabric_->NoteAck();
    return true;
  }

  void Disconnect() {
    std::lock_guard<std::mutex> lock(mu_);
    if (client_ != nullptr) {
      client_->Close();
      client_.reset();  // unregisters from the loop before the fd dies
    }
  }

  CoherenceFabric* fabric_;
  const PeerConfig peer_;
  const std::string address_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  // Connection state: created/destroyed only by the sender thread, always
  // under mu_, so Stop can safely poke whatever exists. The
  // transport lives here only while handshaking; then the client owns it.
  std::unique_ptr<TcpTransport> transport_;  // guarded by mu_
  std::unique_ptr<RpcClient> client_;        // guarded by mu_

  std::atomic<uint64_t> acked_{0};
  std::atomic<uint64_t> connects_{0};
  std::atomic<uint64_t> connect_failures_{0};
  std::atomic<uint64_t> full_invalidations_sent_{0};
  // steady-clock millis of the last successful RPC on this link (-1 =
  // never); the liveness signal health() reads.
  std::atomic<int64_t> last_ok_ms_{-1};
  // Timer deadlines; touched only by the sender thread.
  std::chrono::steady_clock::time_point next_heartbeat_{};
  std::chrono::steady_clock::time_point next_revsync_{};
  std::thread thread_;
};

CoherenceFabric::CoherenceFabric(FabricConfig config)
    : config_(std::move(config)), log_(config_.tuning.log_capacity) {
  if (config_.tuning.snapshot_interval == 0) {
    config_.tuning.snapshot_interval = 1;  // a snapshot after every event
  }
  // Always from the system entropy pool, never config.identity.rand_bytes:
  // a deterministic (seeded) rand would reproduce the same incarnation
  // after a restart, and restart detection is the whole point.
  for (uint8_t b : SysRandomBytes(sizeof(incarnation_))) {
    incarnation_ = (incarnation_ << 8) | b;
  }
  if (incarnation_ == 0) {
    incarnation_ = 1;  // 0 marks "never heard a Hello" on receivers
  }
  if (!config_.storage_dir.empty()) {
    RecoverFromStore();
  }
  if (store_ != nullptr) {
    maint_thread_ = std::thread([this] { MaintenanceLoop(); });
  }
}

CoherenceFabric::~CoherenceFabric() {
  if (maint_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(maint_mu_);
      maint_stop_ = true;
    }
    maint_cv_.notify_all();
    maint_thread_.join();
  }
  std::vector<std::unique_ptr<PeerSender>> peers;
  {
    std::lock_guard<std::mutex> lock(peers_mu_);
    stopping_ = true;  // a racing gossip AddPeerAddress must not revive us
    peers.swap(peers_);
  }
  peers.clear();  // each dtor stops and joins its sender thread
  // Everything is quiesced now (receive half drained by the caller per
  // the dtor contract, senders joined): the final snapshot is consistent
  // and the clean marker lets the next run resume this incarnation.
  if (store_ != nullptr) {
    WriteSnapshotNow(/*clean=*/true);
  }
}

void CoherenceFabric::RecoverFromStore() {
  CoherenceStore::Options options;
  options.dir = config_.storage_dir;
  options.node_id = config_.node_id;
  options.fsync = config_.fsync;
  options.own_retain = config_.tuning.log_capacity;
  CoherenceStore::Recovered recovered;
  auto store = CoherenceStore::Open(std::move(options), &recovered);
  if (!store.ok()) {
    // Unusable storage degrades to in-memory operation (PR 4 semantics)
    // rather than refusing to serve.
    return;
  }
  store_ = std::move(store).value();
  if (!recovered.had_state) {
    return;
  }
  recovered_state_ = true;

  // Order: server blob first (the baseline), then journal replay on top.
  if (config_.restore_state && !recovered.server_state.empty()) {
    config_.restore_state(recovered.server_state);
  }
  for (const auto& [origin, snap] : recovered.cursors) {
    RecvState& state = RecvStateFor(origin);
    state.incarnation.store(snap.incarnation, std::memory_order_relaxed);
    state.cursor.store(snap.cursor, std::memory_order_relaxed);
  }
  std::vector<SequencedEvent> own_tail;
  for (const CoherenceStore::Record& record : recovered.records) {
    if (config_.apply) {
      config_.apply(record.entry.event);
    }
    ++recovered_events_;
    if (record.origin == config_.node_id) {
      own_tail.push_back(record.entry);
      continue;
    }
    RecvState& state = RecvStateFor(record.origin);
    if (record.incarnation !=
        state.incarnation.load(std::memory_order_relaxed)) {
      // The origin restarted after our snapshot; the record belongs to
      // its newer sequence space.
      state.incarnation.store(record.incarnation, std::memory_order_relaxed);
      state.cursor.store(record.entry.seq, std::memory_order_relaxed);
    } else if (record.entry.seq >
               state.cursor.load(std::memory_order_relaxed)) {
      state.cursor.store(record.entry.seq, std::memory_order_relaxed);
    }
  }
  if (recovered.keep_incarnation()) {
    recovered_incarnation_ = true;
    incarnation_ = recovered.incarnation;
    log_.Restore(recovered.head_seq, std::move(own_tail));
  } else {
    // Resuming the old sequence space could reuse numbers a peer already
    // deduplicates; keep the fresh incarnation and an empty log. Peers
    // reset-and-flush once (PR 4 semantics) but the *local* replay above
    // still restored revocations and cursors.
    (void)store_->ResetFresh();
  }
  // Re-checkpoint immediately so the recovered state (especially
  // restored revocations under a fresh incarnation) survives a crash
  // that beats the first periodic snapshot.
  WriteSnapshotNow(/*clean=*/false);
}

void CoherenceFabric::AddPeer(PeerConfig peer) {
  std::lock_guard<std::mutex> lock(peers_mu_);
  if (stopping_) {
    return;
  }
  peers_.push_back(std::make_unique<PeerSender>(this, std::move(peer)));
}

void CoherenceFabric::AddPeerAddress(const std::string& address) {
  if (address.empty() || address == config_.listen_addr) {
    return;
  }
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(address, &host, &port)) {
    return;
  }
  std::lock_guard<std::mutex> lock(peers_mu_);
  if (stopping_) {
    return;
  }
  for (const auto& peer : peers_) {
    if (peer->address() == address) {
      return;
    }
  }
  PeerConfig peer;
  peer.host = std::move(host);
  peer.port = port;
  peers_.push_back(std::make_unique<PeerSender>(this, std::move(peer)));
}

std::vector<std::string> CoherenceFabric::MemberAddresses() const {
  std::vector<std::string> members;
  if (!config_.listen_addr.empty()) {
    members.push_back(config_.listen_addr);
  }
  std::lock_guard<std::mutex> lock(peers_mu_);
  members.reserve(members.size() + peers_.size());
  for (const auto& peer : peers_) {
    members.push_back(peer->address());
  }
  return members;
}

uint64_t CoherenceFabric::Publish(CoherenceEvent event) {
  uint64_t seq;
  {
    // publish_mu_ orders the journal append before the event becomes
    // visible to senders (the durable_journal retention rule leans on
    // this: under kAlways, anything ever pushed is on disk) and keeps
    // the pre-assigned seq in lockstep with log_.Append, which is only
    // called here and from single-threaded recovery.
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (store_ != nullptr) {
      CoherenceStore::Record record;
      record.origin = config_.node_id;
      record.incarnation = incarnation_;
      record.entry.seq = log_.head_seq() + 1;
      record.entry.event = event;
      // Best-effort: a failing disk degrades durability, not replication.
      (void)store_->Append(record);
    }
    seq = log_.Append(std::move(event));
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  if (store_ != nullptr) {
    NoteJournaled(1);
  }
  std::lock_guard<std::mutex> lock(peers_mu_);
  for (auto& peer : peers_) {
    peer->NotifyNewEvents();
  }
  return seq;
}

CoherenceFabric::RecvState& CoherenceFabric::RecvStateFor(
    const std::string& origin) {
  std::lock_guard<std::mutex> lock(recv_mu_);
  return recv_cursors_[origin];  // node-stable; entries are never erased
}

void CoherenceFabric::ApplyResetFlush() {
  CoherenceEvent flush;
  flush.type = CoherenceEvent::Type::kInvalidateAll;
  if (config_.apply) {
    config_.apply(flush);
  }
  full_invalidations_applied_.fetch_add(1, std::memory_order_relaxed);
  applied_.fetch_add(1, std::memory_order_release);
}

uint64_t CoherenceFabric::HandleHello(const std::string& origin,
                                      uint64_t incarnation,
                                      uint64_t origin_head,
                                      const std::string& listen_addr) {
  uint64_t cursor;
  {
    RecvState& state = RecvStateFor(origin);
    std::lock_guard<std::mutex> lock(state.mu);
    cursor = state.cursor.load(std::memory_order_relaxed);
    bool restarted = false;
    if (state.incarnation.load(std::memory_order_relaxed) != incarnation) {
      // First Hello from this incarnation. A nonzero cursor belongs to a
      // dead incarnation whose sequence space restarted: without a reset
      // we would dedup the reborn origin's events 1..cursor — including
      // revocations — forever.
      restarted = cursor > 0;
      state.incarnation.store(incarnation, std::memory_order_relaxed);
      cursor = 0;
      state.cursor.store(0, std::memory_order_release);
    } else if (cursor > origin_head) {
      // Same incarnation cannot regress its head; reset defensively.
      restarted = true;
      cursor = 0;
      state.cursor.store(0, std::memory_order_release);
    }
    if (restarted) {
      // Scoped state learned from the dead incarnation is of unknowable
      // coverage now — flush, then let the replay rebuild warmth.
      ApplyResetFlush();
    }
  }
  // Outside state.mu: membership joins take peers_mu_ and may spawn a
  // sender thread — no reason to hold the apply convoy for that.
  if (!listen_addr.empty()) {
    AddPeerAddress(listen_addr);
  }
  return cursor;
}

StatusReply CoherenceFabric::HandleStatus(const StatusRequest& request) {
  if (!request.listen_addr.empty()) {
    AddPeerAddress(request.listen_addr);
  }
  for (const std::string& member : request.members) {
    AddPeerAddress(member);
  }
  StatusReply reply;
  reply.members = MemberAddresses();
  reply.cursor = ReceiveCursor(request.origin);
  return reply;
}

uint64_t CoherenceFabric::HandlePush(
    const std::string& origin, const std::vector<SequencedEvent>& events) {
  // state.mu is held across apply so concurrent pushes from one origin
  // (reconnect racing a stale connection) cannot reorder application;
  // pushes from different origins apply concurrently.
  RecvState& state = RecvStateFor(origin);
  std::lock_guard<std::mutex> lock(state.mu);
  uint64_t cursor = state.cursor.load(std::memory_order_relaxed);
  if (store_ != nullptr) {
    // Journal fresh events before they apply, so a crash after apply
    // (whose effects a later snapshot would claim via the cursor) can
    // replay them. Duplicates are excluded: they already applied, and
    // under at-least-once redelivery they would bloat the journal.
    std::vector<CoherenceStore::Record> fresh;
    uint64_t origin_incarnation =
        state.incarnation.load(std::memory_order_relaxed);
    for (const SequencedEvent& entry : events) {
      if (entry.seq <= cursor) {
        continue;
      }
      CoherenceStore::Record record;
      record.origin = origin;
      record.incarnation = origin_incarnation;
      record.entry = entry;
      fresh.push_back(std::move(record));
    }
    if (!fresh.empty()) {
      (void)store_->AppendBatch(fresh);
      NoteJournaled(fresh.size());
    }
  }
  for (const SequencedEvent& entry : events) {
    if (entry.seq <= cursor) {
      duplicates_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (config_.apply) {
      config_.apply(entry.event);
    }
    if (entry.event.type == CoherenceEvent::Type::kInvalidateAll) {
      full_invalidations_applied_.fetch_add(1, std::memory_order_relaxed);
    }
    applied_.fetch_add(1, std::memory_order_release);
    cursor = entry.seq;
    state.cursor.store(cursor, std::memory_order_release);
  }
  return cursor;
}

void CoherenceFabric::WriteSnapshotNow(bool clean) {
  if (store_ == nullptr) {
    return;
  }
  // The events this snapshot covers; those journaled while it is written
  // count toward the next one.
  const uint64_t covered =
      events_since_snapshot_.load(std::memory_order_relaxed);
  CoherenceStore::SnapshotData data;
  // Capture order is load-bearing. Cursors before the server blob: a
  // remote event applied between the two captures then shows up only as
  // a stale-low cursor, and its sender redelivers after a crash — the
  // reverse order could record a cursor claiming an event whose effect
  // the blob predates, losing it silently (nobody redelivers past an
  // acknowledged cursor). Head and own tail last, under publish_mu_, so
  // no own record lands between the tail capture and the journal rewrite
  // (the rewrite would drop it, and nobody redelivers our own events).
  {
    std::lock_guard<std::mutex> lock(recv_mu_);
    for (auto& [origin, state] : recv_cursors_) {
      CoherenceStore::RecoveredOrigin snap;
      snap.incarnation = state.incarnation.load(std::memory_order_acquire);
      snap.cursor = state.cursor.load(std::memory_order_acquire);
      data.cursors.emplace(origin, snap);
    }
  }
  if (config_.collect_state) {
    data.server_state = config_.collect_state();
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  data.incarnation = incarnation_;
  data.head_seq = log_.head_seq();
  bool compacted = false;
  std::vector<SequencedEvent> own_tail =
      log_.ReadAfter(0, config_.tuning.log_capacity, &compacted);
  // A failed snapshot is retried once another interval's events are
  // journaled; until then the journal alone holds them.
  (void)store_->WriteSnapshot(data, own_tail, clean);
  events_since_snapshot_.fetch_sub(covered, std::memory_order_relaxed);
}

void CoherenceFabric::NoteJournaled(uint64_t events) {
  const uint64_t interval = config_.tuning.snapshot_interval;
  const uint64_t before =
      events_since_snapshot_.fetch_add(events, std::memory_order_relaxed);
  if (before < interval && before + events >= interval) {
    // Under maint_mu_, so the crossing cannot fall between the
    // maintenance thread's check of the counter and its wait.
    std::lock_guard<std::mutex> lock(maint_mu_);
    maint_cv_.notify_one();
  }
}

void CoherenceFabric::MaintenanceLoop() {
  std::unique_lock<std::mutex> lock(maint_mu_);
  while (true) {
    maint_cv_.wait(lock, [this] {
      return maint_stop_ ||
             events_since_snapshot_.load(std::memory_order_relaxed) >=
                 config_.tuning.snapshot_interval;
    });
    if (maint_stop_) {
      break;
    }
    lock.unlock();
    WriteSnapshotNow(/*clean=*/false);
    lock.lock();
  }
}

bool CoherenceFabric::WaitForAck(uint64_t seq,
                                 std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(peers_mu_);
  return ack_cv_.wait_until(lock, deadline, [this, seq] {
    for (const auto& peer : peers_) {
      if (peer->acked() < seq) {
        return false;
      }
    }
    return true;
  });
}

void CoherenceFabric::NoteAck() {
  std::lock_guard<std::mutex> lock(peers_mu_);
  ack_cv_.notify_all();
}

FabricStats CoherenceFabric::stats() const {
  FabricStats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.applied = applied_.load(std::memory_order_relaxed);
  s.duplicates_skipped = duplicates_skipped_.load(std::memory_order_relaxed);
  s.full_invalidations_applied =
      full_invalidations_applied_.load(std::memory_order_relaxed);
  s.head_seq = log_.head_seq();
  s.recovered_state = recovered_state_;
  s.recovered_incarnation = recovered_incarnation_;
  s.recovered_events = recovered_events_;
  if (store_ != nullptr) {
    s.snapshots_written = store_->snapshots_written();
  }
  s.revocation_syncs = revocation_syncs_.load(std::memory_order_relaxed);
  s.revocations_pulled =
      revocations_pulled_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(peers_mu_);
  s.peers.reserve(peers_.size());
  for (const auto& peer : peers_) {
    s.peers.push_back(peer->health(config_.tuning.heartbeat_deadline));
  }
  return s;
}

uint64_t CoherenceFabric::ReceiveCursor(const std::string& origin) const {
  std::lock_guard<std::mutex> lock(recv_mu_);
  auto it = recv_cursors_.find(origin);
  return it == recv_cursors_.end()
             ? 0
             : it->second.cursor.load(std::memory_order_acquire);
}

}  // namespace discfs::cluster
