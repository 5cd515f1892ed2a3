// The four workloads behind one interface. A run sets a workload up,
// measures one or two passes, and tears it down (closing clients, then
// Sync + fsck of every volume).
#ifndef DISCFS_BENCHMARK_HARNESS_WORKLOAD_H_
#define DISCFS_BENCHMARK_HARNESS_WORKLOAD_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/harness/common.h"
#include "benchmark/harness/trace.h"
#include "benchmark/harness/world.h"

namespace discfs::bm {

struct RunConfig {
  uint64_t seed = 1;
  // Measured seconds of the whole run, over all its passes (inputs that
  // are consumed per second, like churn's rounds, are sized from it).
  double seconds = 10;
  // --smoke: the same code paths at about 1/20 of the data sizes.
  bool smoke = false;
};

// What one measured pass produced. Each workload defines its operation;
// see benchmark/README.md.
struct PassResult {
  uint64_t ops = 0;
  double op_seconds = 0;  // the time ops_per_s divides by
  uint64_t bytes = 0;     // file payload bytes moved
  double byte_seconds = 0;
  LatencyLog latency_ms;  // one sample per operation
  // Workload-specific numbers: the paper's per-phase figures and ratios.
  std::map<std::string, double> values;
  // Workload-specific latency series (revoke_deny_ms, attach_ms, ...).
  std::map<std::string, Samples> series;

  double ops_per_s() const { return op_seconds > 0 ? ops / op_seconds : 0; }
  double mbps() const {
    return byte_seconds > 0 ? bytes / byte_seconds / 1e6 : 0;
  }
};

// A (principal, inode) pair some node checked during the pass.
struct AccessPair {
  size_t node = 0;
  std::string principal;
  uint32_t inode = 0;
};

class Workload {
 public:
  explicit Workload(RunConfig config) : config_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the system from the generated inputs. `instrumented` puts the
  // timing Vfs, device and client-stream wrappers in place (they record
  // only while the tracer is armed).
  virtual Status Setup(bool instrumented) = 0;
  // One measured pass of about `seconds`.
  virtual PassResult Run(double seconds) = 0;
  // Closes clients, stops every node, syncs and fscks every volume.
  virtual void Teardown() = 0;

  // --- traced-pass support ---
  virtual std::vector<Node*> nodes() = 0;
  virtual std::vector<AccessPair> AccessPairs() = 0;
  // Credentials the workload's servers verified (for the DSA replay).
  virtual std::vector<std::string> Credentials() = 0;
  // (client key, server key) of the workload's main connection.
  virtual std::pair<DsaPrivateKey, DsaPrivateKey> ChannelKeys() = 0;
  // The paper's FFS and CFS-NE references for this workload's figures
  // (bonnie and search only), keyed ref.ffs.<m> / ref.cfsne.<m>.
  virtual std::map<std::string, double> PaperReferences() { return {}; }

  Tally& tally() { return tally_; }
  NetCounters& net() { return net_; }

 protected:
  RunConfig config_;
  Tally tally_;
  NetCounters net_;
};

std::unique_ptr<Workload> MakeBonnie(RunConfig config);
std::unique_ptr<Workload> MakeSearch(RunConfig config);
std::unique_ptr<Workload> MakeMulticlient(RunConfig config);
std::unique_ptr<Workload> MakeChurn(RunConfig config);

}  // namespace discfs::bm

#endif  // DISCFS_BENCHMARK_HARNESS_WORKLOAD_H_
