// Observability (PR 9): histogram bucket math and quantiles, counter
// sharding under contention, registry exposition, trace scopes and the
// trace log, the RPC flight recorder's slow-op ring, the kServerStats
// scrape against a live host, and trace-id propagation across a real
// 2-node cluster (RPC trailer -> coherence event -> anti-entropy blob).
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "src/blockdev/blockdev.h"
#include "src/crypto/groups.h"
#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/discfs/server.h"
#include "src/ffs/ffs.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/util/prng.h"
#include "src/vfs/vfs.h"

namespace discfs {
namespace {

using obs::Histogram;

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

std::shared_ptr<FfsVfs> MakeVfs() {
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  EXPECT_TRUE(fs.ok()) << fs.status();
  return std::make_shared<FfsVfs>(std::move(fs).value());
}

TEST(ObsHistogram, BucketBoundaries) {
  // Values below kSubBuckets are exact.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
  }
  // First octave: 8..15 keep one-unit buckets (shift is zero).
  EXPECT_EQ(Histogram::BucketIndex(8), 8u);
  EXPECT_EQ(Histogram::BucketIndex(15), 15u);
  // Second octave: two-unit buckets.
  EXPECT_EQ(Histogram::BucketIndex(16), 16u);
  EXPECT_EQ(Histogram::BucketIndex(17), 16u);
  EXPECT_EQ(Histogram::BucketIndex(18), 17u);
  EXPECT_EQ(Histogram::BucketIndex(31), 23u);
  EXPECT_EQ(Histogram::BucketIndex(32), 24u);

  // Every bucket's bounds invert BucketIndex, and buckets tile the range.
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    uint64_t lo = Histogram::BucketLowerBound(i);
    uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_LE(lo, hi);
    EXPECT_EQ(Histogram::BucketIndex(lo), i);
    EXPECT_EQ(Histogram::BucketIndex(hi), i);
    if (i > 0) {
      EXPECT_EQ(Histogram::BucketUpperBound(i - 1) + 1, lo);
    }
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1), ~0ull);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), Histogram::kNumBuckets - 1);
}

TEST(ObsHistogram, QuantilesOverestimateByAtMostBucketWidth) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  Histogram::Snapshot snap = h.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  // The quantile is the holding bucket's upper bound: never below the true
  // value, at most 12.5% above it.
  EXPECT_GE(snap.Quantile(0.5), 500u);
  EXPECT_LE(snap.Quantile(0.5), 563u);
  EXPECT_GE(snap.Quantile(0.95), 950u);
  EXPECT_LE(snap.Quantile(0.95), 1069u);
  EXPECT_GE(snap.Quantile(0.99), 990u);
  EXPECT_LE(snap.Quantile(0.99), 1114u);
  EXPECT_EQ(Histogram::Snapshot{}.Quantile(0.5), 0u);
}

TEST(ObsHistogram, MergeAddsBuckets) {
  Histogram a;
  Histogram b;
  a.Record(5);
  a.Record(100);
  b.Record(5);
  b.Record(7000);
  a.MergeFrom(b);
  Histogram::Snapshot snap = a.TakeSnapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 5u + 100u + 5u + 7000u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(5)], 2u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(7000)], 1u);
}

TEST(ObsCounter, ConcurrentAddsAreLossless) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(ObsRegistry, ExposesCountersGaugesAndHistograms) {
  obs::MetricsRegistry reg;
  reg.GetCounter("test_requests_total", "requests")->Add(41);
  reg.GetCounter("test_requests_total")->Add(1);  // same object by name
  reg.RegisterGauge("test_depth", "queue depth", [] {
    return std::vector<obs::GaugeSample>{{"kind=\"a\"", 3}, {"kind=\"b\"", 4}};
  });
  obs::Histogram* h = reg.GetHistogram("test_latency_ns", "op=\"x\"");
  h->Record(100);
  h->Record(200);

  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total 42"), std::string::npos);
  EXPECT_NE(text.find("test_depth{kind=\"a\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_depth{kind=\"b\"} 4"), std::string::npos);
  EXPECT_NE(text.find("test_latency_ns{op=\"x\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_latency_ns_count{op=\"x\"} 2"), std::string::npos);

  std::string json = reg.Json();
  EXPECT_NE(json.find("\"test_requests_total\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(ObsTrace, ScopesNestAndRestore) {
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  uint64_t a = obs::MintTraceId();
  uint64_t b = obs::MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  {
    obs::TraceScope outer(a);
    EXPECT_EQ(obs::CurrentTraceId(), a);
    {
      obs::TraceScope inner(b);
      EXPECT_EQ(obs::CurrentTraceId(), b);
      // Installing 0 keeps the surrounding trace (untraced hops are
      // transparent).
      obs::TraceScope zero(0);
      EXPECT_EQ(obs::CurrentTraceId(), b);
    }
    EXPECT_EQ(obs::CurrentTraceId(), a);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
}

TEST(ObsTrace, LogRecordsStagesAndEvictsOldest) {
  obs::TraceLog log(4);
  log.Record(0, "rpc");  // trace id 0 is a no-op
  EXPECT_EQ(log.recorded_total(), 0u);

  log.Record(7, "rpc", "revoke-key");
  log.Record(7, "publish");
  EXPECT_TRUE(log.Contains(7));
  EXPECT_TRUE(log.Contains(7, "rpc"));
  EXPECT_TRUE(log.Contains(7, "publish"));
  EXPECT_FALSE(log.Contains(7, "apply"));
  EXPECT_FALSE(log.Contains(8));
  ASSERT_EQ(log.ForTrace(7).size(), 2u);
  EXPECT_EQ(log.ForTrace(7)[0].detail, "revoke-key");

  for (uint64_t id = 100; id < 104; ++id) {
    log.Record(id, "apply");
  }
  EXPECT_FALSE(log.Contains(7));  // evicted by the ring bound
  EXPECT_TRUE(log.Contains(103));
  EXPECT_EQ(log.recorded_total(), 6u);
  EXPECT_EQ(log.Snapshot().size(), 4u);
}

TEST(ObsRecorder, RecordsSpansAndSlowOps) {
  obs::MetricsRegistry reg;
  obs::RpcRecorder recorder(&reg);
  recorder.set_slow_threshold_ns(1000);

  obs::CallTimestamps fast;
  fast.received_ns = 100;
  fast.decoded_ns = 150;
  fast.exec_start_ns = 200;
  fast.exec_end_ns = 700;
  fast.replied_ns = 750;
  recorder.RecordCall(200390, 7, fast, 2, 1, 0);
  EXPECT_EQ(recorder.slow_ops_total(), 0u);

  obs::CallTimestamps slow = fast;
  slow.replied_ns = fast.received_ns + 5000;
  slow.exec_end_ns = fast.exec_start_ns + 4800;
  recorder.RecordCall(200390, 7, slow, 2, 1, /*trace_id=*/99);
  EXPECT_EQ(recorder.slow_ops_total(), 1u);
  ASSERT_EQ(recorder.slow_ops().size(), 1u);
  const obs::SlowOp op = recorder.slow_ops()[0];
  EXPECT_EQ(op.prog, 200390u);
  EXPECT_EQ(op.proc, 7u);
  EXPECT_EQ(op.trace_id, 99u);
  EXPECT_EQ(op.total_ns, 5000u);
  EXPECT_EQ(op.execute_ns, 4800u);

  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("discfs_rpc_calls_total 2"), std::string::npos);
  EXPECT_NE(
      text.find("discfs_rpc_span_ns{prog=\"200390\",proc=\"7\",span=\"total\""),
      std::string::npos);
  EXPECT_NE(text.find("discfs_rpc_send_queue_depth"), std::string::npos);
}

TEST(ObsServerStats, ScrapesLiveHostOverRpc) {
  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey bob = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DiscfsServerConfig config;
  config.server_key = admin;
  config.rand_bytes = TestRand(99);
  auto host = DiscfsHost::Start(MakeVfs(), std::move(config));
  ASSERT_TRUE(host.ok()) << host.status();

  ChannelIdentity identity{bob, TestRand(10)};
  auto client = DiscfsClient::Connect("127.0.0.1", (*host)->port(), identity,
                                      admin.public_key());
  ASSERT_TRUE(client.ok()) << client.status();

  // The server records a call's spans after its reply is sent, so the
  // client can hold ServerInfo's reply before the call is recorded. Wait
  // (at most 5 s) until it is: discfs_rpc_calls_total is bumped last, after
  // the per-proc spans, so the scrape then sees at least one fully recorded
  // call with per-proc quantiles.
  ASSERT_TRUE((*client)->ServerInfo().ok());
  obs::Counter* calls =
      (*host)->server().metrics().GetCounter("discfs_rpc_calls_total");
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (calls->Value() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(calls->Value(), 1u);

  auto text = (*client)->ServerStats(/*json=*/false);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("discfs_rpc_calls_total"), std::string::npos);
  EXPECT_NE(text->find("discfs_rpc_span_ns{prog=\"200390\""),
            std::string::npos);
  EXPECT_NE(text->find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text->find("discfs_policy_cache{kind=\"hits\"}"),
            std::string::npos);
  EXPECT_NE(text->find("discfs_host_pool{kind=\"threads\"}"),
            std::string::npos);
  EXPECT_NE(text->find("discfs_block_cache{kind=\"hits\"}"),
            std::string::npos);

  auto json = (*client)->ServerStats(/*json=*/true);
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_EQ(json->front(), '{');
  EXPECT_NE(json->find("\"counters\""), std::string::npos);
  EXPECT_NE(json->find("discfs_rpc_span_ns"), std::string::npos);

  (*client)->Close();
}

struct ClusterNode {
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;
};

ClusterNode StartClusterNode(const DsaPrivateKey& server_key,
                             const std::vector<DsaPublicKey>& trusted_keys,
                             uint64_t seed) {
  ClusterNode node;
  node.vfs = MakeVfs();
  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(seed);
  config.cluster_trusted_keys = trusted_keys;
  DiscfsHostOptions options;
  options.worker_threads = 4;
  options.cluster_enabled = true;
  auto host = DiscfsHost::Start(node.vfs, std::move(config), /*port=*/0,
                                std::move(options));
  EXPECT_TRUE(host.ok()) << host.status();
  node.host = std::move(host).value();
  return node;
}

constexpr auto kAckTimeout = std::chrono::milliseconds(10000);

TEST(ObsTracePropagation, ClientRevocationIsTraceableAcrossTwoNodes) {
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DsaPrivateKey victim = DsaPrivateKey::Generate(Dsa512(), TestRand(3));
  ClusterNode a = StartClusterNode(key_a, {key_b.public_key()}, 10);
  ClusterNode b = StartClusterNode(key_b, {key_a.public_key()}, 11);
  ASSERT_TRUE(a.host
                  ->AddClusterPeer(
                      {"127.0.0.1", b.host->port(), key_b.public_key()})
                  .ok());

  // The victim connects to A and revokes its own key. The minted trace id
  // rides the RPC trailer to A, then the coherence push to B.
  ChannelIdentity identity{victim, TestRand(20)};
  auto client = DiscfsClient::Connect("127.0.0.1", a.host->port(), identity,
                                      key_a.public_key());
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE((*client)->RevokeOwnKey().ok());
  uint64_t tid = (*client)->last_trace_id();
  ASSERT_NE(tid, 0u);

  ASSERT_TRUE(a.host->fabric()->WaitForAck(1, kAckTimeout));
  EXPECT_TRUE(a.host->server().trace_log().Contains(tid, "rpc"));
  EXPECT_TRUE(a.host->server().trace_log().Contains(tid, "publish"));
  EXPECT_TRUE(b.host->server().trace_log().Contains(tid, "apply"));
  (*client)->Close();
}

TEST(ObsTracePropagation, AntiEntropyBlobCarriesTraceIds) {
  // Serialize-then-merge is exactly the anti-entropy exchange: a traced
  // revocation minted on one server must surface, with the same id, when
  // another server merges the blob.
  DsaPrivateKey key_a = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey key_b = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  DiscfsServerConfig config_a;
  config_a.server_key = key_a;
  config_a.rand_bytes = TestRand(30);
  auto server_a = DiscfsServer::Create(MakeVfs(), std::move(config_a));
  ASSERT_TRUE(server_a.ok());
  DiscfsServerConfig config_b;
  config_b.server_key = key_b;
  config_b.rand_bytes = TestRand(31);
  auto server_b = DiscfsServer::Create(MakeVfs(), std::move(config_b));
  ASSERT_TRUE(server_b.ok());

  uint64_t tid = obs::MintTraceId();
  {
    obs::TraceScope scope(tid);
    (*server_a)->RevokeKey("compromised-principal");
  }
  Bytes blob = (*server_a)->SerializeRevocations();
  EXPECT_GT((*server_b)->MergeRevocations(blob), 0u);
  EXPECT_TRUE((*server_b)->trace_log().Contains(tid, "anti-entropy"));
  // Re-merging the same blob is idempotent and records nothing new.
  uint64_t before = (*server_b)->trace_log().recorded_total();
  EXPECT_EQ((*server_b)->MergeRevocations(blob), 0u);
  EXPECT_EQ((*server_b)->trace_log().recorded_total(), before);
}

}  // namespace
}  // namespace discfs
