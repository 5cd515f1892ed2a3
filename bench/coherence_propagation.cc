// Coherence-fabric propagation benchmark: full-mesh clusters of real
// DiscfsHosts (TCP + secure channel + the shared event-loop runtime) with
// one origin node publishing credential churn. Per cluster-size tier it
// measures:
//
//   * survivor_hit_rate_remote — after one churn event propagates, the
//     fraction of *unrelated* warm cache entries on the receivers that
//     are still served without recomputation (1.0 = perfectly scoped
//     remote invalidation; a flush-based design scores 0.0);
//   * p50_us / p99_us — publish-to-applied propagation latency, sampled
//     one event at a time against every receiver;
//   * events_per_s — closed-burst replication throughput (publish E
//     events, wait until every peer acked the log head).
//
// Output: table on stdout plus BENCH_coherence.json (path from argv[1];
// docs/BENCH_SCHEMAS.md); argv[2] caps the throughput burst. Every tier
// must converge.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/blockdev/blockdev.h"
#include "src/cluster/fabric.h"
#include "src/crypto/groups.h"
#include "src/discfs/host.h"
#include "src/ffs/ffs.h"

namespace discfs {
namespace {

using bench::BenchRand;
using bench::GateOp;
using bench::Json;
using bench::LatencySummary;
using bench::NowSec;
using bench::Summarize;

constexpr size_t kWarmPrincipals = 64;
constexpr size_t kLatencySamples = 200;
constexpr auto kConvergeTimeout = std::chrono::seconds(30);

struct Node {
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;
};

Node StartNode(const DsaPrivateKey& key,
               const std::vector<DsaPublicKey>& trusted, uint64_t seed) {
  Node node;
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  if (!fs.ok()) {
    std::fprintf(stderr, "format failed: %s\n",
                 fs.status().ToString().c_str());
    std::abort();
  }
  node.vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  DiscfsServerConfig config;
  config.server_key = key;
  config.rand_bytes = BenchRand(seed);
  config.cluster_trusted_keys = trusted;
  DiscfsHostOptions options;
  options.worker_threads = 2;  // pushes are tiny; keep the bench lean
  options.cluster_enabled = true;
  auto host = DiscfsHost::Start(node.vfs, std::move(config), /*port=*/0,
                                std::move(options));
  if (!host.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 host.status().ToString().c_str());
    std::abort();
  }
  node.host = std::move(host).value();
  return node;
}

struct TierResult {
  size_t cluster_size = 0;
  size_t events = 0;
  double events_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double survivor_hit_rate = 0;
};

// Spins until every receiver has applied `target` remote events.
bool AwaitApplied(const std::vector<Node*>& receivers, uint64_t target) {
  double deadline = NowSec() + std::chrono::duration<double>(
                                   kConvergeTimeout)
                                   .count();
  while (true) {
    bool done = true;
    for (Node* node : receivers) {
      if (node->host->fabric()->events_applied() < target) {
        done = false;
        break;
      }
    }
    if (done) {
      return true;
    }
    if (NowSec() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
}

TierResult RunTier(size_t cluster_size, size_t burst_events) {
  TierResult tier;
  tier.cluster_size = cluster_size;
  tier.events = burst_events;

  std::vector<DsaPrivateKey> keys;
  keys.reserve(cluster_size);
  for (size_t i = 0; i < cluster_size; ++i) {
    keys.push_back(DsaPrivateKey::Generate(Dsa512(), BenchRand(100 + i)));
  }
  std::vector<std::vector<DsaPublicKey>> trusted(cluster_size);
  for (size_t i = 0; i < cluster_size; ++i) {
    for (size_t j = 0; j < cluster_size; ++j) {
      if (i != j) {
        trusted[i].push_back(keys[j].public_key());
      }
    }
  }
  std::vector<Node> nodes(cluster_size);
  for (size_t i = 0; i < cluster_size; ++i) {
    nodes[i] = StartNode(keys[i], trusted[i], 200 + i);
  }
  // Full mesh (only the origin publishes, but a real fleet is symmetric).
  for (size_t i = 0; i < cluster_size; ++i) {
    for (size_t j = 0; j < cluster_size; ++j) {
      if (i != j &&
          !nodes[i]
               .host
               ->AddClusterPeer({"127.0.0.1", nodes[j].host->port(),
                                 keys[j].public_key()})
               .ok()) {
        std::fprintf(stderr, "add peer failed\n");
        std::abort();
      }
    }
  }

  DiscfsServer& origin = nodes[0].host->server();
  cluster::CoherenceFabric* origin_fabric = nodes[0].host->fabric();
  std::vector<Node*> receivers;
  for (size_t i = 1; i < cluster_size; ++i) {
    receivers.push_back(&nodes[i]);
  }

  // --- survivor phase: one scoped churn event against warm receivers ---
  std::vector<uint64_t> warm_queries;  // per receiver, after warm-up
  for (Node* node : receivers) {
    for (size_t p = 0; p < kWarmPrincipals; ++p) {
      node->host->server().EffectiveMask(
          "warm-principal-" + std::to_string(p), 1);
    }
    warm_queries.push_back(
        node->host->server().counters().keynote_queries.load());
  }
  origin.RevokeKey("churn-survivor-victim");
  if (!origin_fabric->WaitForAck(origin_fabric->stats().head_seq,
                                 kConvergeTimeout)) {
    std::fprintf(stderr, "tier %zu: survivor event did not converge\n",
                 cluster_size);
    std::abort();
  }
  uint64_t recomputes = 0;
  for (size_t r = 0; r < receivers.size(); ++r) {
    DiscfsServer& server = receivers[r]->host->server();
    for (size_t p = 0; p < kWarmPrincipals; ++p) {
      server.EffectiveMask("warm-principal-" + std::to_string(p), 1);
    }
    recomputes += server.counters().keynote_queries.load() - warm_queries[r];
  }
  size_t warm_total = kWarmPrincipals * receivers.size();
  tier.survivor_hit_rate =
      warm_total == 0
          ? 0
          : 1.0 - static_cast<double>(recomputes) / warm_total;

  // --- latency phase: publish-to-applied, one event at a time ---
  std::vector<double> samples_us;
  samples_us.reserve(kLatencySamples);
  uint64_t applied_base = receivers[0]->host->fabric()->events_applied();
  for (size_t k = 0; k < kLatencySamples; ++k) {
    double t0 = NowSec();
    origin.RevokeKey("churn-latency-" + std::to_string(k));
    if (!AwaitApplied(receivers, applied_base + k + 1)) {
      std::fprintf(stderr, "tier %zu: latency sample %zu timed out\n",
                   cluster_size, k);
      std::abort();
    }
    samples_us.push_back((NowSec() - t0) * 1e6);
  }
  LatencySummary latency = Summarize(std::move(samples_us));
  tier.p50_us = latency.p50;
  tier.p99_us = latency.p99;

  // --- throughput phase: closed burst, acked at every peer ---
  double t0 = NowSec();
  for (size_t e = 0; e < burst_events; ++e) {
    origin.RevokeKey("churn-burst-" + std::to_string(e));
  }
  uint64_t head = origin_fabric->stats().head_seq;
  if (!origin_fabric->WaitForAck(head, kConvergeTimeout)) {
    std::fprintf(stderr, "tier %zu: burst did not converge\n", cluster_size);
    std::abort();
  }
  tier.events_per_s = burst_events / (NowSec() - t0);
  return tier;
}

Json TierJson(const TierResult& r) {
  Json tier = Json::Object();
  tier.Set("cluster_size", r.cluster_size);
  tier.Set("warm_principals", kWarmPrincipals);
  tier.Set("events", r.events);
  tier.Set("events_per_s", r.events_per_s);
  tier.Set("p50_us", r.p50_us);
  tier.Set("p99_us", r.p99_us);
  tier.Set("survivor_hit_rate_remote", r.survivor_hit_rate);
  return tier;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_coherence.json";
  const size_t burst_events =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 2000;

  std::printf("== coherence fabric: credential churn propagation "
              "(full mesh, %zu warm principals per receiver) ==\n",
              kWarmPrincipals);
  std::printf("%-8s %-8s %12s %10s %10s %10s\n", "nodes", "events",
              "events/s", "p50 us", "p99 us", "survivors");

  Json tiers = Json::Array();
  double min_events_per_s = std::numeric_limits<double>::infinity();
  double min_p50_us = std::numeric_limits<double>::infinity();
  double min_survivors = std::numeric_limits<double>::infinity();
  for (size_t cluster_size : {2, 4, 8}) {
    TierResult tier = RunTier(cluster_size, burst_events);
    std::printf("%-8zu %-8zu %12.0f %10.1f %10.1f %10.4f\n",
                tier.cluster_size, tier.events, tier.events_per_s,
                tier.p50_us, tier.p99_us, tier.survivor_hit_rate);
    std::fflush(stdout);
    min_events_per_s = bench::GateMin(min_events_per_s, tier.events_per_s);
    min_p50_us = bench::GateMin(min_p50_us, tier.p50_us);
    min_survivors = bench::GateMin(min_survivors, tier.survivor_hit_rate);
    tiers.Push(TierJson(tier));
  }

  bench::Report report("coherence_propagation");
  report.Set("warm_principals_per_receiver", kWarmPrincipals);
  report.Set("results", std::move(tiers));
  // Remote invalidation must stay scoped. The generation table can
  // over-invalidate on slot collisions (~warm/1024 per churn event), so
  // the bound is 0.9, not 1.0.
  report.AddGate("min_survivor_hit_rate_remote", min_survivors, GateOp::kGe,
                 0.9);
  report.AddGate("min_events_per_s", min_events_per_s, GateOp::kGt, 0);
  report.AddGate("min_p50_us", min_p50_us, GateOp::kGt, 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
