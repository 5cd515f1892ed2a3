// Fault-injection harness (PR 6): drives a full mesh of real DiscfsHosts
// (TCP + secure channel + durable fabric storage) through the failure
// modes a production fleet actually sees, under continuous credential
// churn, and gates on the invariants that matter:
//
//   * mesh formation from a single seed (membership gossip), and one
//     traced revocation whose id every node's trace log must hold;
//   * rolling clean restarts: every node is torn down and restarted
//     against its storage directory while survivors keep publishing.
//     The restarted node must resume its old incarnation by journal
//     replay (no fresh-incarnation flush), survivors' unrelated warm
//     cache entries must stay warm, and no node may ever apply a full
//     invalidation;
//   * a half/half partition with churn on both sides, then heal: every
//     revocation published anywhere must be present everywhere and all
//     revocation digests must converge.
//
// Faults are injected through the shared FaultSchedule (blocked links)
// and by destroying/recreating hosts (real shutdown + recovery paths).
// Output: progress on stdout plus BENCH_fault.json (path from argv[1];
// argv[2] = cluster size, argv[3] = churn rounds per phase;
// docs/BENCH_SCHEMAS.md). tools/run_fault.sh runs the full 8-node
// configuration.
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/blockdev/blockdev.h"
#include "src/cluster/fabric.h"
#include "src/cluster/fault.h"
#include "src/crypto/groups.h"
#include "src/discfs/host.h"
#include "src/discfs/revocation.h"
#include "src/ffs/ffs.h"
#include "src/obs/trace.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

using bench::GateOp;
using bench::Json;

constexpr size_t kWarmPrincipals = 64;
constexpr auto kConvergeTimeout = std::chrono::seconds(60);

std::function<Bytes(size_t)> BenchRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Aggressive tuning so the full fault sequence (restarts, partition,
// heal) completes in seconds: fast heartbeats to detect death, fast
// reconnect to detect rebirth, frequent snapshots so recovery exercises
// both the snapshot and the journal-tail path.
cluster::FabricTuning HarnessTuning() {
  cluster::FabricTuning tuning;
  tuning.reconnect_max = std::chrono::milliseconds(200);
  tuning.connect_timeout = std::chrono::milliseconds(500);
  tuning.call_timeout = std::chrono::milliseconds(2000);
  tuning.snapshot_interval = 32;
  tuning.heartbeat_interval = std::chrono::milliseconds(100);
  tuning.heartbeat_deadline = std::chrono::milliseconds(600);
  tuning.anti_entropy_interval = std::chrono::milliseconds(300);
  tuning.maintenance_tick = std::chrono::milliseconds(50);
  return tuning;
}

struct Node {
  size_t index = 0;
  std::string dir;
  uint16_t port = 0;  // 0 until first start; reused across restarts
  std::shared_ptr<FfsVfs> vfs;
  std::unique_ptr<DiscfsHost> host;

  std::string address() const {
    return "127.0.0.1:" + std::to_string(port);
  }
};

struct Mesh {
  std::vector<DsaPrivateKey> keys;
  std::vector<std::vector<DsaPublicKey>> trusted;
  std::vector<Node> nodes;
  std::shared_ptr<cluster::FaultSchedule> faults;
  std::vector<std::string> revoked_ids;  // every id ever published

  size_t size() const { return nodes.size(); }
};

void Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::abort();
}

// (Re)starts node i against its storage directory. `seeds` bootstraps
// membership — the rest of the fleet is learned through gossip. The
// block device is fresh each time (file data is not what is under test);
// fabric state recovers from the journal + snapshot on disk.
void StartNode(Mesh& mesh, size_t i, std::vector<std::string> seeds) {
  Node& node = mesh.nodes[i];
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  if (!fs.ok()) {
    Fail("format failed");
  }
  node.vfs = std::make_shared<FfsVfs>(std::move(fs).value());
  DiscfsServerConfig config;
  config.server_key = mesh.keys[i];
  config.rand_bytes = BenchRand(7000 + i);
  config.cluster_trusted_keys = mesh.trusted[i];
  DiscfsHostOptions options;
  options.worker_threads = 2;
  options.cluster_enabled = true;
  options.cluster_storage_dir = node.dir;
  options.cluster_fsync = cluster::FsyncPolicy::kAlways;
  options.cluster_seeds = std::move(seeds);
  options.cluster_faults = mesh.faults;
  options.cluster_tuning = HarnessTuning();
  auto host =
      DiscfsHost::Start(node.vfs, std::move(config), node.port,
                        std::move(options));
  if (!host.ok()) {
    std::fprintf(stderr, "node %zu start failed: %s\n", i,
                 host.status().ToString().c_str());
    std::abort();
  }
  node.host = std::move(host).value();
  node.port = node.host->port();
}

// Publishes one tracked revocation from node i.
void Churn(Mesh& mesh, size_t i, const std::string& tag) {
  std::string id =
      "rk-" + std::to_string(i) + "-" + tag + "-" +
      std::to_string(mesh.revoked_ids.size());
  mesh.nodes[i].host->server().RevokeKey(id);
  mesh.revoked_ids.push_back(id);
}

// Spins until predicate() holds; false on timeout.
template <typename Pred>
bool Await(Pred predicate, std::chrono::seconds timeout = kConvergeTimeout) {
  double deadline = NowSec() + std::chrono::duration<double>(timeout).count();
  while (!predicate()) {
    if (NowSec() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

bool FullMesh(const Mesh& mesh) {
  for (const Node& node : mesh.nodes) {
    if (node.host->fabric()->Health().healthy_peers() + 1 < mesh.size()) {
      return false;
    }
  }
  return true;
}

// Every node's log head acked by all of its peers.
bool AllAcked(Mesh& mesh) {
  for (Node& node : mesh.nodes) {
    cluster::CoherenceFabric* fabric = node.host->fabric();
    if (!fabric->WaitForAck(fabric->stats().head_seq,
                            std::chrono::milliseconds(10))) {
      return false;
    }
  }
  return true;
}

bool DigestsConverged(Mesh& mesh) {
  Bytes first = mesh.nodes[0].host->server().RevocationDigest();
  for (size_t i = 1; i < mesh.size(); ++i) {
    if (mesh.nodes[i].host->server().RevocationDigest() != first) {
      return false;
    }
  }
  return true;
}

// A revocation violation = a tracked revoked id that some node would
// still honor. Checked by deserializing each node's live revocation list
// into a scratch list (horizon 0 = never expires) and probing every id.
size_t CountViolations(Mesh& mesh) {
  int64_t now = static_cast<int64_t>(std::time(nullptr));
  size_t violations = 0;
  for (Node& node : mesh.nodes) {
    RevocationList scratch(0);
    Bytes blob = node.host->server().SerializeRevocations();
    if (!scratch.MergeSerialized(blob, now).ok()) {
      Fail("revocation blob failed to parse");
    }
    for (const std::string& id : mesh.revoked_ids) {
      if (!scratch.IsKeyRevoked(id, now)) {
        ++violations;
      }
    }
  }
  return violations;
}

uint64_t TotalFullInvalidations(Mesh& mesh) {
  uint64_t total = 0;
  for (Node& node : mesh.nodes) {
    total += node.host->fabric()->stats().full_invalidations_applied;
  }
  return total;
}

struct RestartResult {
  size_t node = 0;
  bool recovered_incarnation = false;
  uint64_t recovered_events = 0;
  double rejoin_s = 0;
  double survivor_hit_rate = 0;
};

// Tears node i down, churns while it is gone, restarts it against its
// storage dir on the same port, and measures recovery + survivor impact.
RestartResult RollingRestart(Mesh& mesh, size_t i, const char* tag) {
  RestartResult result;
  result.node = i;
  Node& node = mesh.nodes[i];
  size_t survivor = (i + 1) % mesh.size();
  DiscfsServer& surv = mesh.nodes[survivor].host->server();

  // Warm unrelated entries on a survivor; they must stay warm across the
  // peer's clean restart (no InvalidateAll, no fresh-incarnation flush).
  for (size_t p = 0; p < kWarmPrincipals; ++p) {
    surv.EffectiveMask("warm-principal-" + std::to_string(p), 1);
  }
  surv.ResetTelemetry();

  uint64_t incarnation_before = node.host->fabric()->incarnation();
  node.host.reset();  // real shutdown path (clean snapshot, joins threads)

  // Churn while the node is down: it must catch up by replay on rejoin.
  for (size_t e = 0; e < 3; ++e) {
    Churn(mesh, survivor, std::string("down") + tag);
  }

  double t0 = NowSec();
  StartNode(mesh, i, {mesh.nodes[survivor].address()});
  cluster::FabricStats stats = node.host->fabric()->stats();
  result.recovered_incarnation =
      stats.recovered_incarnation &&
      node.host->fabric()->incarnation() == incarnation_before;
  result.recovered_events = stats.recovered_events;

  // Rejoined = full mesh again, down-window churn applied everywhere,
  // and a post-restart publish (old sequence space) acked by every peer.
  if (!Await([&] { return FullMesh(mesh); })) {
    Fail("restarted node did not rejoin the mesh");
  }
  Churn(mesh, i, std::string("rejoin") + tag);
  if (!Await([&] { return AllAcked(mesh); })) {
    Fail("mesh did not converge after restart");
  }
  result.rejoin_s = NowSec() - t0;

  uint64_t recomputes = 0;
  for (size_t p = 0; p < kWarmPrincipals; ++p) {
    surv.EffectiveMask("warm-principal-" + std::to_string(p), 1);
  }
  recomputes = surv.counters().keynote_queries.load();
  result.survivor_hit_rate =
      1.0 - static_cast<double>(recomputes) / kWarmPrincipals;
  return result;
}

struct HarnessResult {
  size_t cluster_size = 0;
  double mesh_form_s = 0;
  std::vector<RestartResult> restarts;
  double partition_heal_converge_s = 0;
  uint64_t revocation_syncs_total = 0;
  uint64_t revocations_pulled_total = 0;
  uint64_t full_invalidations_total = 0;
  size_t revocation_violations = 0;
  size_t churn_events_total = 0;
  size_t trace_nodes_observed = 0;
};

Json RestartJson(const RestartResult& restart) {
  Json out = Json::Object();
  out.Set("node", restart.node);
  out.Set("recovered_incarnation", restart.recovered_incarnation);
  out.Set("recovered_events", restart.recovered_events);
  out.Set("rejoin_s", restart.rejoin_s);
  out.Set("survivor_hit_rate", restart.survivor_hit_rate);
  return out;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_fault.json";
  const size_t cluster_size =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 8;
  const size_t churn_rounds =
      argc > 3 ? static_cast<size_t>(std::atoll(argv[3])) : 4;
  if (cluster_size < 2) {
    std::fprintf(stderr, "cluster size must be >= 2\n");
    return 1;
  }

  HarnessResult result;
  result.cluster_size = cluster_size;

  Mesh mesh;
  mesh.faults = std::make_shared<cluster::FaultSchedule>();
  mesh.nodes.resize(cluster_size);
  for (size_t i = 0; i < cluster_size; ++i) {
    mesh.keys.push_back(
        DsaPrivateKey::Generate(Dsa512(), BenchRand(6000 + i)));
  }
  mesh.trusted.resize(cluster_size);
  for (size_t i = 0; i < cluster_size; ++i) {
    for (size_t j = 0; j < cluster_size; ++j) {
      if (i != j) {
        mesh.trusted[i].push_back(mesh.keys[j].public_key());
      }
    }
  }
  for (size_t i = 0; i < cluster_size; ++i) {
    mesh.nodes[i].index = i;
    mesh.nodes[i].dir = "/tmp/discfs-fault-" +
                        std::to_string(::getpid()) + "-n" +
                        std::to_string(i);
  }

  // --- phase 1: mesh formation from a single seed --------------------
  std::printf("== fault harness: %zu nodes, churn x%zu ==\n", cluster_size,
              churn_rounds);
  double t0 = NowSec();
  StartNode(mesh, 0, {});
  for (size_t i = 1; i < cluster_size; ++i) {
    StartNode(mesh, i, {mesh.nodes[0].address()});
  }
  if (!Await([&] { return FullMesh(mesh); })) {
    Fail("mesh never formed from the seed");
  }
  result.mesh_form_s = NowSec() - t0;
  std::printf("mesh formed in %.2fs\n", result.mesh_form_s);

  // --- phase 2: baseline churn, every node publishing ----------------
  for (size_t round = 0; round < churn_rounds; ++round) {
    for (size_t i = 0; i < cluster_size; ++i) {
      Churn(mesh, i, "base");
    }
  }
  if (!Await([&] { return AllAcked(mesh); })) {
    Fail("baseline churn did not converge");
  }
  std::printf("baseline churn converged (%zu events)\n",
              mesh.revoked_ids.size());

  // --- phase 2b: one traced revocation must be observable everywhere --
  // The minted id rides the coherence push out of node 0; every node
  // (origin included) must log it, which is the end-to-end proof that
  // cross-node trace propagation survives a real mesh. Checked here,
  // before restarts wipe the in-memory trace logs.
  uint64_t trace_id = obs::MintTraceId();
  {
    obs::TraceScope scope(trace_id);
    Churn(mesh, 0, "traced");
  }
  if (!Await([&] { return AllAcked(mesh); })) {
    Fail("traced revocation did not converge");
  }
  for (Node& node : mesh.nodes) {
    if (node.host->server().trace_log().Contains(trace_id)) {
      ++result.trace_nodes_observed;
    }
  }
  std::printf("traced revocation observed at %zu/%zu nodes\n",
              result.trace_nodes_observed, cluster_size);

  // --- phase 3: rolling clean restarts under churn -------------------
  for (size_t i = 0; i < cluster_size; ++i) {
    RestartResult restart =
        RollingRestart(mesh, i, std::to_string(i).c_str());
    std::printf(
        "restart node %zu: recovered_incarnation=%d recovered_events=%llu "
        "rejoin=%.2fs survivor_hit_rate=%.4f\n",
        restart.node, restart.recovered_incarnation ? 1 : 0,
        static_cast<unsigned long long>(restart.recovered_events),
        restart.rejoin_s, restart.survivor_hit_rate);
    result.restarts.push_back(restart);
  }

  // --- phase 4: partition, churn both sides, heal --------------------
  size_t half = cluster_size / 2;
  for (size_t a = 0; a < half; ++a) {
    for (size_t b = half; b < cluster_size; ++b) {
      mesh.faults->BlockLink(mesh.nodes[a].address(),
                             mesh.nodes[b].address());
    }
  }
  // Both sides notice: cross-partition peers go unhealthy.
  if (!Await([&] {
        return mesh.nodes[0].host->fabric()->Health().healthy_peers() <
                   half &&
               mesh.nodes[half].host->fabric()->Health().healthy_peers() <
                   cluster_size - half;
      })) {
    Fail("partition was not detected");
  }
  std::printf("partition detected\n");
  for (size_t round = 0; round < churn_rounds; ++round) {
    Churn(mesh, 0, "partA");
    Churn(mesh, half, "partB");
  }
  // Let each side converge internally while split.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  double heal_t0 = NowSec();
  mesh.faults->HealAll();
  if (!Await([&] {
        return FullMesh(mesh) && AllAcked(mesh) && DigestsConverged(mesh);
      })) {
    Fail("mesh did not converge after the partition healed");
  }
  result.partition_heal_converge_s = NowSec() - heal_t0;
  std::printf("partition healed and converged in %.2fs\n",
              result.partition_heal_converge_s);

  // --- final accounting and gates ------------------------------------
  for (Node& node : mesh.nodes) {
    cluster::FabricStats stats = node.host->fabric()->stats();
    result.revocation_syncs_total += stats.revocation_syncs;
    result.revocations_pulled_total += stats.revocations_pulled;
  }
  result.full_invalidations_total = TotalFullInvalidations(mesh);
  result.revocation_violations = CountViolations(mesh);
  result.churn_events_total = mesh.revoked_ids.size();

  Json restarts = Json::Array();
  size_t unrecovered = 0;
  double min_survivors = std::numeric_limits<double>::infinity();
  for (const RestartResult& restart : result.restarts) {
    restarts.Push(RestartJson(restart));
    unrecovered += restart.recovered_incarnation ? 0 : 1;
    min_survivors = bench::GateMin(min_survivors, restart.survivor_hit_rate);
  }

  bench::Report report("fault_injection");
  report.Set("cluster_size", result.cluster_size);
  report.Set("warm_principals", kWarmPrincipals);
  report.Set("churn_events_total", result.churn_events_total);
  report.Set("mesh_form_s", result.mesh_form_s);
  report.Set("rolling_restarts", result.restarts.size());
  report.Set("partition_heal_converge_s", result.partition_heal_converge_s);
  report.Set("revocation_syncs_total", result.revocation_syncs_total);
  report.Set("revocations_pulled_total", result.revocations_pulled_total);
  report.Set("full_invalidations_total", result.full_invalidations_total);
  report.Set("trace_nodes_observed", result.trace_nodes_observed);
  report.Set("revocation_violations", result.revocation_violations);
  report.Set("restarts", std::move(restarts));
  report.AddGate("revocation_violations", result.revocation_violations,
                 GateOp::kEq, 0);
  report.AddGate("full_invalidations_total", result.full_invalidations_total,
                 GateOp::kEq, 0);
  report.AddGate("unrecovered_restarts", unrecovered, GateOp::kEq, 0);
  report.AddGate("min_restart_survivor_hit_rate", min_survivors, GateOp::kGe,
                 0.9);
  report.AddGate("trace_nodes_observed", result.trace_nodes_observed,
                 GateOp::kEq, cluster_size);
  report.AddGate("churn_events_total", result.churn_events_total, GateOp::kGt,
                 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
