// Per-layer metrics of the traced pass. Layer names are the src/ modules.
// Sources:
//   - spans recorded by the benchmark (client calls; Vfs calls with the
//     device I/O they issued; see trace.h), for client call time, Ffs time
//     and self time, and the Vfs time under each RPC procedure;
//   - deltas of each server's own telemetry across the traced pass: the
//     RPC flight recorder's span histograms, the policy, signature and
//     block caches, the KeyNote counters, the coherence fabric;
//   - short replays after the pass of the workload's own inputs: record
//     sizes through a SecureChannel pair on InProcTransport, (principal,
//     inode) pairs against DiscfsServer::EffectiveMask cold and warm, and
//     credentials through KeyNoteSession::ParseAndVerifyCredential.
#ifndef DISCFS_BENCHMARK_HARNESS_LAYERS_H_
#define DISCFS_BENCHMARK_HARNESS_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "benchmark/harness/common.h"
#include "benchmark/harness/trace.h"
#include "benchmark/harness/workload.h"
#include "src/discfs/server.h"

namespace discfs::bm {

using obs::Histogram;

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The per-layer metrics every traced run prints, in output order. Their
// directions are in BENCHMARK.json, which run.sh checks the output
// against.
const std::vector<MetricSpec>& LayerSpecs();

// One server's telemetry at a point in time.
struct NodeSnapshot {
  struct ProcSpans {
    Histogram::Snapshot decode, queue_wait, execute, reply, total;
  };
  std::vector<ProcSpans> procs;  // indexed by Op
  Histogram::Snapshot pool_depth;
  DiscfsServer::ServerStatsSnapshot stats;
  uint64_t keynote_queries = 0;
  uint64_t access_checks = 0;
  uint64_t fabric_published = 0;
  uint64_t fabric_applied = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t readaheads = 0;
  uint64_t dev_reads = 0;
  uint64_t dev_writes = 0;
  uint64_t dev_fg_ns = 0;
  uint64_t dev_bg_ns = 0;
};

NodeSnapshot TakeSnapshot(Node& node);

// Computes every LayerSpecs() metric (0 where the workload leaves a layer
// idle) from the traced pass and the replays. `untraced` is the pass run
// just before with the tracer disarmed; `refs` holds the paper references.
std::map<std::string, double> CollectLayers(
    Workload& workload, const std::vector<NodeSnapshot>& before,
    const std::vector<NodeSnapshot>& after, const std::vector<Span>& spans,
    const PassResult& untraced, const PassResult& traced,
    const std::map<std::string, double>& refs);

}  // namespace discfs::bm

#endif  // DISCFS_BENCHMARK_HARNESS_LAYERS_H_
