// Coherence fabric (PR 4): the event log's compaction/gap contract, the
// wire codec, and — over real TCP + secure channels between DiscfsHosts —
// scoped remote invalidation, catch-up replay across a disconnect, the
// compaction fallback to InvalidateAll, and the cluster trust check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/blockdev/blockdev.h"
#include "src/cluster/event_log.h"
#include "src/cluster/fabric.h"
#include "src/cluster/fault.h"
#include "src/cluster/protocol.h"
#include "src/crypto/groups.h"
#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/net/event_loop.h"
#include "src/ffs/ffs.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"
#include "src/securechannel/channel.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

using cluster::CoherenceEvent;
using cluster::SequencedEvent;

// Handshakes from peers and clients overlap on the host's pool, so the
// shared Prng behind a node's rand_bytes needs a lock.
std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

TEST(CoherenceEventLog, AssignsDenseSequenceNumbers) {
  cluster::CoherenceEventLog log(8);
  CoherenceEvent event;
  event.type = CoherenceEvent::Type::kSubmit;
  EXPECT_EQ(log.Append(event), 1u);
  EXPECT_EQ(log.Append(event), 2u);
  EXPECT_EQ(log.Append(event), 3u);
  EXPECT_EQ(log.head_seq(), 3u);
  EXPECT_EQ(log.first_seq(), 1u);

  bool compacted = true;
  std::vector<SequencedEvent> all = log.ReadAfter(0, 100, &compacted);
  EXPECT_FALSE(compacted);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].seq, 1u);
  EXPECT_EQ(all[2].seq, 3u);

  std::vector<SequencedEvent> tail = log.ReadAfter(2, 100, &compacted);
  EXPECT_FALSE(compacted);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].seq, 3u);

  EXPECT_TRUE(log.ReadAfter(3, 100, &compacted).empty());
  EXPECT_FALSE(compacted);

  std::vector<SequencedEvent> capped = log.ReadAfter(0, 2, &compacted);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[1].seq, 2u);
}

TEST(CoherenceEventLog, CompactionReportsGap) {
  cluster::CoherenceEventLog log(4);
  CoherenceEvent event;
  event.type = CoherenceEvent::Type::kRemove;
  for (int i = 0; i < 10; ++i) {
    event.credential_id = "cred-" + std::to_string(i);
    log.Append(event);
  }
  EXPECT_EQ(log.head_seq(), 10u);
  EXPECT_EQ(log.first_seq(), 7u);  // 7..10 retained

  // A cursor inside the retained window replays without a gap.
  bool compacted = true;
  std::vector<SequencedEvent> tail = log.ReadAfter(7, 100, &compacted);
  EXPECT_FALSE(compacted);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 8u);

  // A cursor compacted past must be reported: the retained suffix alone
  // would silently skip 3..6.
  std::vector<SequencedEvent> after_gap = log.ReadAfter(2, 100, &compacted);
  EXPECT_TRUE(compacted);
  ASSERT_EQ(after_gap.size(), 4u);
  EXPECT_EQ(after_gap[0].seq, 7u);

  // A fully caught-up cursor is never a gap, even though cursor+1 is
  // beyond the retained range.
  EXPECT_TRUE(log.ReadAfter(10, 100, &compacted).empty());
  EXPECT_FALSE(compacted);
}

TEST(ClusterProtocol, PushRoundtrip) {
  cluster::PushRequest request;
  request.origin = "node-a";
  SequencedEvent submit;
  submit.seq = 41;
  submit.event.type = CoherenceEvent::Type::kSubmit;
  submit.event.credential_id = "cred-1";
  submit.event.principals = {"alice", "bob"};
  SequencedEvent revoke;
  revoke.seq = 42;
  revoke.event.type = CoherenceEvent::Type::kRevokeKey;
  revoke.event.principal = "mallory";
  revoke.event.principals = {"mallory", "eve"};
  SequencedEvent flush;
  flush.seq = 43;
  flush.event.type = CoherenceEvent::Type::kInvalidateAll;
  request.events = {submit, revoke, flush};

  auto decoded = cluster::DecodePush(cluster::EncodePush(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->origin, "node-a");
  ASSERT_EQ(decoded->events.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->events[i].seq, request.events[i].seq);
    EXPECT_TRUE(decoded->events[i].event == request.events[i].event);
  }

  cluster::HelloRequest hello;
  hello.origin = "node-b";
  hello.incarnation = 9001;
  hello.head_seq = 17;
  auto decoded_hello = cluster::DecodeHello(cluster::EncodeHello(hello));
  ASSERT_TRUE(decoded_hello.ok());
  EXPECT_EQ(decoded_hello->origin, "node-b");
  EXPECT_EQ(decoded_hello->incarnation, 9001u);
  EXPECT_EQ(decoded_hello->head_seq, 17u);
}

TEST(CoherenceFabricUnit, HelloFromNewIncarnationResetsCursor) {
  // An origin restart resets its sequence space; a receiver that kept the
  // old cursor must reset (and flush) instead of deduplicating the new
  // incarnation's events against the dead incarnation's numbering —
  // even when the reborn origin has already published *past* the old
  // cursor by the time it reconnects.
  std::vector<CoherenceEvent> applied;
  cluster::FabricConfig config;
  config.node_id = "receiver";
  config.apply = [&applied](const CoherenceEvent& e) {
    applied.push_back(e);
  };
  cluster::CoherenceFabric fabric(std::move(config));

  // First contact is never a flush, whatever the incarnation.
  EXPECT_EQ(fabric.HandleHello("origin-a", /*incarnation=*/7, /*head=*/0),
            0u);
  EXPECT_TRUE(applied.empty());

  std::vector<SequencedEvent> events(3);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].seq = i + 1;
    events[i].event.type = CoherenceEvent::Type::kSubmit;
  }
  EXPECT_EQ(fabric.HandlePush("origin-a", events), 3u);
  EXPECT_EQ(applied.size(), 3u);

  // Same incarnation reconnecting: cursor survives.
  EXPECT_EQ(fabric.HandleHello("origin-a", 7, /*head=*/3), 3u);
  EXPECT_EQ(fabric.HandleHello("origin-a", 7, /*head=*/9), 3u);
  // A never-heard-of origin starts at 0, with no flush.
  EXPECT_EQ(fabric.HandleHello("origin-b", 5, /*head=*/5), 0u);
  EXPECT_EQ(applied.size(), 3u);

  // Restarted origin whose new log already reaches past our cursor: the
  // incarnation mismatch (not head comparison) must catch it.
  EXPECT_EQ(fabric.HandleHello("origin-a", /*incarnation=*/8, /*head=*/60),
            0u);
  ASSERT_EQ(applied.size(), 4u);
  EXPECT_EQ(applied.back().type, CoherenceEvent::Type::kInvalidateAll);
  EXPECT_EQ(fabric.stats().full_invalidations_applied, 1u);
  // The reborn origin's events from seq 1 now apply instead of deduping.
  std::vector<SequencedEvent> reborn(1);
  reborn[0].seq = 1;
  reborn[0].event.type = CoherenceEvent::Type::kRemove;
  EXPECT_EQ(fabric.HandlePush("origin-a", reborn), 1u);
  EXPECT_EQ(applied.size(), 5u);

  // Defensive: a same-incarnation head regression also resets.
  EXPECT_EQ(fabric.HandleHello("origin-a", 8, /*head=*/0), 0u);
  EXPECT_EQ(fabric.stats().full_invalidations_applied, 2u);
}

TEST(ClusterProtocol, RejectsUnknownEventType) {
  XdrWriter w;
  w.PutU64(7);
  w.PutU32(99);  // not a CoherenceEvent::Type
  w.PutString("");
  w.PutString("");
  w.PutU32(0);
  Bytes frame = w.Take();
  XdrReader r(frame);
  EXPECT_FALSE(cluster::DecodeSequencedEvent(r).ok());
}

struct ClusterNode {
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;
};

ClusterNode StartClusterNode(const DsaPrivateKey& server_key,
                             const std::vector<DsaPublicKey>& trusted_keys,
                             uint64_t seed,
                             cluster::FabricTuning tuning = {},
                             std::shared_ptr<cluster::FaultSchedule> faults =
                                 nullptr) {
  ClusterNode node;
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  EXPECT_TRUE(fs.ok());
  node.vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(seed);
  config.cluster_trusted_keys = trusted_keys;
  DiscfsHostOptions options;
  options.worker_threads = 4;
  options.cluster_enabled = true;
  options.cluster_tuning = tuning;
  options.cluster_faults = std::move(faults);
  auto host = DiscfsHost::Start(node.vfs, std::move(config), /*port=*/0,
                                std::move(options));
  EXPECT_TRUE(host.ok()) << host.status();
  node.host = std::move(host).value();
  return node;
}

constexpr auto kAckTimeout = std::chrono::milliseconds(10000);

TEST(CoherenceFabric, RemoteInvalidationIsScoped) {
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  ClusterNode a = StartClusterNode(key_a, {key_b.public_key()}, 10);
  ClusterNode b = StartClusterNode(key_b, {key_a.public_key()}, 11);
  ASSERT_TRUE(a.host->AddClusterPeer(
                  {"127.0.0.1", b.host->port(), key_b.public_key()})
                  .ok());

  // Warm two principals on B.
  const std::string victim = "victim-principal";
  const std::string bystander = "bystander-principal";
  b.host->server().EffectiveMask(victim, 1);
  b.host->server().EffectiveMask(bystander, 1);

  // Revoke the victim's key on A; the event must reach B.
  a.host->server().RevokeKey(victim);
  ASSERT_TRUE(a.host->fabric()->WaitForAck(1, kAckTimeout));

  // The link that carried the ack is up and healthy, in the fabric's
  // stats and in a kServerStats scrape of A.
  cluster::FabricStats link = a.host->fabric()->stats();
  ASSERT_EQ(link.peers.size(), 1u);
  EXPECT_TRUE(link.peers[0].connected);
  EXPECT_TRUE(link.peers[0].healthy);
  EXPECT_EQ(link.healthy_peers(), 1u);
  DsaPrivateKey operator_key = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  auto scraper = DiscfsClient::Connect(
      "127.0.0.1", a.host->port(), ChannelIdentity{operator_key, TestRand(4)},
      key_a.public_key());
  ASSERT_TRUE(scraper.ok()) << scraper.status();
  auto scrape = (*scraper)->ServerStats(/*json=*/false);
  ASSERT_TRUE(scrape.ok()) << scrape.status();
  EXPECT_NE(scrape->find("discfs_cluster_peer_healthy{peer=\"" +
                         link.peers[0].address + "\"} 1\n"),
            std::string::npos)
      << *scrape;
  (*scraper)->Close();
  EXPECT_EQ(b.host->fabric()->ReceiveCursor(a.host->fabric()->node_id()), 1u);
  EXPECT_EQ(b.host->fabric()->events_applied(), 1u);
  EXPECT_EQ(b.host->server()
                .counters()
                .remote_events_applied.load(std::memory_order_relaxed),
            1u);

  // Telemetry attributes the bump to the remote path.
  EXPECT_GE(b.host->server().stats_snapshot().coherence.remote_bumps, 1u);

  // Scoped: the victim's cached entry on B is stale, the bystander's is
  // still warm (no recompute).
  const std::atomic<uint64_t>& queries =
      b.host->server().counters().keynote_queries;
  const uint64_t queries_before = queries.load();
  b.host->server().EffectiveMask(bystander, 1);
  EXPECT_EQ(queries.load() - queries_before, 0u)
      << "bystander should have stayed warm across the remote bump";
  b.host->server().EffectiveMask(victim, 1);
  EXPECT_EQ(queries.load() - queries_before, 1u)
      << "victim's entry should have been invalidated remotely";
}

TEST(CoherenceFabric, ReplaysMissedEventsAfterReconnect) {
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  ClusterNode a = StartClusterNode(key_a, {key_b.public_key()}, 10);
  ClusterNode b = StartClusterNode(key_b, {key_a.public_key()}, 11);
  ASSERT_TRUE(a.host->AddClusterPeer(
                  {"127.0.0.1", b.host->port(), key_b.public_key()})
                  .ok());

  a.host->server().RevokeKey("p-one");
  ASSERT_TRUE(a.host->fabric()->WaitForAck(1, kAckTimeout));

  // The peer link starts serving before the pool task that registers it
  // in B's connection set finishes; wait for the registration so the
  // abort below is guaranteed to catch it.
  auto deadline = std::chrono::steady_clock::now() + kAckTimeout;
  while (b.host->active_connections() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "peer connection never registered on B";
    std::this_thread::yield();
  }

  // Sever the link from B's side, then publish while it is down.
  b.host->AbortConnections();
  const std::string bystander = "reconnect-bystander";
  b.host->server().EffectiveMask(bystander, 1);
  a.host->server().RevokeKey("p-two");
  a.host->server().RevokeKey("p-three");

  // The sender reconnects, learns B's cursor via Hello, and replays
  // exactly the missed suffix.
  ASSERT_TRUE(a.host->fabric()->WaitForAck(3, kAckTimeout));
  EXPECT_EQ(b.host->fabric()->ReceiveCursor(a.host->fabric()->node_id()), 3u);
  EXPECT_EQ(b.host->fabric()->events_applied(), 3u);
  cluster::FabricStats sender_stats = a.host->fabric()->stats();
  ASSERT_EQ(sender_stats.peers.size(), 1u);
  EXPECT_GE(sender_stats.peers[0].connects, 2u) << "expected a reconnect";
  EXPECT_EQ(sender_stats.peers[0].full_invalidations_sent, 0u)
      << "replay must not fall back to a full flush";

  // Convergence stayed scoped: the bystander survived the whole episode.
  const uint64_t queries_before =
      b.host->server().counters().keynote_queries.load();
  b.host->server().EffectiveMask(bystander, 1);
  EXPECT_EQ(b.host->server().counters().keynote_queries.load(),
            queries_before);
}

bool WaitFor(const std::function<bool()>& cond,
             std::chrono::milliseconds limit) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

TEST(CoherenceFabric, CompactedLogFallsBackToInvalidateAll) {
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  cluster::FabricTuning small_log;
  small_log.log_capacity = 4;
  auto faults = std::make_shared<cluster::FaultSchedule>();
  ClusterNode a =
      StartClusterNode(key_a, {key_b.public_key()}, 10, small_log, faults);
  ClusterNode b = StartClusterNode(key_b, {key_a.public_key()}, 11);
  ASSERT_TRUE(a.host->AddClusterPeer(
                  {"127.0.0.1", b.host->port(), key_b.public_key()})
                  .ok());

  a.host->server().RevokeKey("seed-event");
  ASSERT_TRUE(a.host->fabric()->WaitForAck(1, kAckTimeout));

  // Warm an (unrelated) entry on B: the fallback flush must clear it.
  const std::string bystander = "compaction-bystander";
  b.host->server().EffectiveMask(bystander, 1);

  // Partition the link and wait until A's sender has dropped it, then
  // publish far past the log capacity: events 2..7 are compacted away,
  // only 8..11 remain.
  const std::string addr_a = a.host->fabric()->MemberAddresses().front();
  const std::string addr_b = "127.0.0.1:" + std::to_string(b.host->port());
  faults->BlockLink(addr_a, addr_b);
  ASSERT_TRUE(WaitFor(
      [&] { return !a.host->fabric()->stats().peers[0].connected; },
      kAckTimeout));
  for (int i = 0; i < 10; ++i) {
    a.host->server().RevokeKey("burst-" + std::to_string(i));
  }
  EXPECT_EQ(a.host->fabric()->stats().head_seq, 11u);
  faults->HealLink(addr_a, addr_b);

  ASSERT_TRUE(a.host->fabric()->WaitForAck(11, kAckTimeout));
  EXPECT_EQ(b.host->fabric()->ReceiveCursor(a.host->fabric()->node_id()),
            11u);
  cluster::FabricStats receiver_stats = b.host->fabric()->stats();
  EXPECT_EQ(receiver_stats.full_invalidations_applied, 1u);
  // seed + synthetic flush + retained suffix (8..11).
  EXPECT_EQ(receiver_stats.applied, 6u);
  cluster::FabricStats sender_stats = a.host->fabric()->stats();
  ASSERT_EQ(sender_stats.peers.size(), 1u);
  EXPECT_EQ(sender_stats.peers[0].full_invalidations_sent, 1u);

  // The blunt flush hit the bystander too — that is the safe direction.
  const uint64_t queries_before =
      b.host->server().counters().keynote_queries.load();
  b.host->server().EffectiveMask(bystander, 1);
  EXPECT_EQ(b.host->server().counters().keynote_queries.load(),
            queries_before + 1);
}

// Returns how long destroying `fabric` took.
std::chrono::steady_clock::duration TimedDestroy(
    std::unique_ptr<cluster::CoherenceFabric> fabric) {
  auto start = std::chrono::steady_clock::now();
  fabric.reset();
  return std::chrono::steady_clock::now() - start;
}

// A peer that completes the TCP connect but never answers the handshake
// (as one that died without an RST would) cannot hold the link:
// call_timeout bounds the handshake as it bounds every RPC, so the sender
// keeps failing and retrying. And stopping the fabric cuts a handshake
// short that call_timeout would not yet have ended.
TEST(CoherenceFabric, SilentPeerCannotHoldTheLinkInItsHandshake) {
  using std::chrono::milliseconds;
  EventLoop loop;
  cluster::FabricConfig config;
  config.node_id = "sender";
  config.loop = &loop;
  config.identity = ChannelIdentity{
      DsaPrivateKey::Generate(Dsa512(), TestRand(1)), TestRand(2)};
  config.tuning.connect_timeout = milliseconds(200);
  config.tuning.call_timeout = milliseconds(200);

  // Neither listener ever accepts; the kernel completes the connects.
  auto silent = TcpListener::Listen(0);
  ASSERT_TRUE(silent.ok()) << silent.status();
  auto fabric = std::make_unique<cluster::CoherenceFabric>(config);
  fabric->AddPeer({"127.0.0.1", (*silent)->port(), std::nullopt});
  EXPECT_TRUE(WaitFor(
      [&] { return fabric->stats().peers[0].connect_failures >= 2; },
      milliseconds(2000)))
      << "the handshake with a silent peer never timed out";
  EXPECT_EQ(fabric->stats().peers[0].connects, 0u);
  EXPECT_LT(TimedDestroy(std::move(fabric)), milliseconds(1000));

  auto mute = TcpListener::Listen(0);
  ASSERT_TRUE(mute.ok()) << mute.status();
  config.tuning.call_timeout = milliseconds(60000);
  fabric = std::make_unique<cluster::CoherenceFabric>(config);
  fabric->AddPeer({"127.0.0.1", (*mute)->port(), std::nullopt});
  auto accepted = (*mute)->Accept();
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  ASSERT_TRUE((*accepted)->Recv().ok());  // the ClientHello; no answer
  EXPECT_LT(TimedDestroy(std::move(fabric)), milliseconds(1000));
}

// A peer that completes the handshake but never answers (hung after
// accepting) cannot hold the link either: call_timeout bounds the Hello
// as it bounds every RPC, so the sender keeps failing and retrying. And
// stopping the fabric fails a Hello in flight at once.
TEST(CoherenceFabric, PeerThatNeverAnswersHelloCannotHoldTheLink) {
  using std::chrono::milliseconds;
  EventLoop loop;
  cluster::FabricConfig config;
  config.node_id = "sender";
  config.loop = &loop;
  config.identity = ChannelIdentity{
      DsaPrivateKey::Generate(Dsa512(), TestRand(1)), TestRand(2)};
  config.tuning.call_timeout = milliseconds(1500);

  // The fake peer handshakes every connection it accepts and then keeps
  // the channel open without reading from it.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const ChannelIdentity peer_identity{
      DsaPrivateKey::Generate(Dsa512(), TestRand(3)), TestRand(4)};
  std::atomic<uint64_t> handshakes{0};
  std::thread fake_peer([&] {
    std::vector<std::unique_ptr<SecureChannel>> channels;
    while (true) {
      auto accepted = (*listener)->Accept();
      if (!accepted.ok()) {
        return;
      }
      HandshakeMachine machine = HandshakeMachine::Server(peer_identity);
      if (machine.Run(**accepted).ok()) {
        channels.push_back(
            machine.Finish(std::move(accepted).value()).value());
        handshakes.fetch_add(1);
      }
    }
  });

  auto fabric = std::make_unique<cluster::CoherenceFabric>(config);
  fabric->AddPeer({"127.0.0.1", (*listener)->port(), std::nullopt});
  auto failures = [&] { return fabric->stats().peers[0].connect_failures; };
  EXPECT_TRUE(WaitFor([&] { return failures() >= 2; }, milliseconds(10000)))
      << "the Hello to a peer that never answers never timed out";
  // Destroy while the next Hello waits for its answer.
  EXPECT_TRUE(WaitFor([&] { return handshakes.load() > failures(); },
                      milliseconds(10000)));
  EXPECT_EQ(fabric->stats().peers[0].connects, 0u);
  EXPECT_LT(TimedDestroy(std::move(fabric)), milliseconds(1000));

  (*listener)->Shutdown();
  fake_peer.join();
}

TEST(CoherenceFabric, UntrustedPeerCannotPush) {
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey key_c = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  // A trusts only B; C is a fully functional server A never heard of.
  ClusterNode a = StartClusterNode(key_a, {key_b.public_key()}, 10);
  ClusterNode c = StartClusterNode(key_c, {}, 12);
  ASSERT_TRUE(c.host->AddClusterPeer(
                  {"127.0.0.1", a.host->port(), key_a.public_key()})
                  .ok());

  c.host->server().RevokeKey("forged-revocation");
  // The push is rejected at the trust check, so the ack never arrives.
  EXPECT_FALSE(c.host->fabric()->WaitForAck(
      1, std::chrono::milliseconds(400)));
  EXPECT_EQ(a.host->fabric()->events_applied(), 0u);
  EXPECT_EQ(a.host->server()
                .counters()
                .remote_events_applied.load(std::memory_order_relaxed),
            0u);
}

TEST(CoherenceFabric, TrustedPeerCannotForgeAnotherOrigin) {
  // A trusted peer must not be able to speak under another node's name:
  // a poisoned cursor pushed as "A" would make the receiver dedup every
  // real event A sends afterwards — silent revocation suppression.
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey key_c = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  // B trusts both A and C; C will try to impersonate A against B.
  ClusterNode a = StartClusterNode(key_a, {key_b.public_key()}, 10);
  ClusterNode b = StartClusterNode(
      key_b, {key_a.public_key(), key_c.public_key()}, 11);
  ASSERT_TRUE(a.host->AddClusterPeer(
                  {"127.0.0.1", b.host->port(), key_b.public_key()})
                  .ok());

  // C speaks the cluster program over an authenticated channel of its
  // own, but claims to be A with an absurdly advanced cursor.
  auto transport = TcpTransport::Connect("127.0.0.1", b.host->port());
  ASSERT_TRUE(transport.ok());
  ChannelIdentity c_identity{key_c, TestRand(30)};
  auto channel = SecureChannel::ClientHandshake(
      std::move(transport).value(), c_identity, key_b.public_key());
  ASSERT_TRUE(channel.ok()) << channel.status();
  RpcClient forger(std::move(channel).value());
  cluster::PushRequest forged;
  forged.origin = a.host->fabric()->node_id();
  SequencedEvent poison;
  poison.seq = 1u << 30;
  poison.event.type = CoherenceEvent::Type::kSubmit;
  forged.events = {poison};
  auto pushed = forger.Call(
      cluster::kClusterProgram,
      static_cast<uint32_t>(cluster::ClusterProc::kPush),
      cluster::EncodePush(forged));
  EXPECT_EQ(pushed.status().code(), StatusCode::kPermissionDenied)
      << pushed.status();
  forger.Close();

  // A's real events still apply: the cursor was not poisoned.
  a.host->server().RevokeKey("real-event");
  ASSERT_TRUE(a.host->fabric()->WaitForAck(1, kAckTimeout));
  EXPECT_EQ(b.host->fabric()->ReceiveCursor(a.host->fabric()->node_id()),
            1u);
  EXPECT_EQ(b.host->fabric()->events_applied(), 1u);
}

}  // namespace
}  // namespace discfs
