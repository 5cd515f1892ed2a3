// discfs_benchmark: runs one workload and prints its metrics.
//
//   discfs_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--smoke] [--detail PATH]
//
// An untraced run (--trace 0) sets the workload up five times (setup_s is
// the median), measures one pass of S seconds, and prints the end-to-end
// metrics. A traced run sets up once, measures S/2 seconds untraced and
// S/2 seconds with the tracer armed, runs the replays and the paper's
// reference systems, and prints the per-layer metrics; its spans go to
// trace/NAME.json beside the binary. A human-readable table goes to
// stderr; the last line of stdout is one JSON object {correct, attempted,
// failed, metrics}. The exit code is 0 only when every operation succeeded
// and every output check held.
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "benchmark/harness/layers.h"
#include "benchmark/harness/workload.h"

namespace discfs::bm {
namespace {

constexpr size_t kSetupRuns = 5;
// The measured seconds of a run when --seconds is not given: run_seconds in
// BENCHMARK.json.
constexpr double kDefaultSeconds = 20;
// Kills a run that hangs, well inside the 180 s a run may take.
constexpr auto kRunLimit = std::chrono::seconds(170);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = false;
  bool smoke = false;
  std::string detail;
};

class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "discfs_benchmark: run exceeded %llds\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: discfs_benchmark --workload bonnie|search|multiclient|"
               "churn [--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--detail PATH]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--smoke") {
      args->smoke = true;
    } else {
      const char* v = value();
      if (v == nullptr) {
        return false;
      }
      char* end = nullptr;
      if (flag == "--workload") {
        args->workload = v;
      } else if (flag == "--seed") {
        args->seed = std::strtoull(v, &end, 10);
      } else if (flag == "--seconds") {
        args->seconds = std::strtod(v, &end);
      } else if (flag == "--trace") {
        args->trace = std::strcmp(v, "1") == 0;
        if (!args->trace && std::strcmp(v, "0") != 0) {
          return false;
        }
      } else if (flag == "--detail") {
        args->detail = v;
      } else {
        return false;
      }
      if (end != nullptr && *end != '\0') {
        return false;
      }
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       RunConfig config) {
  if (name == "bonnie") {
    return MakeBonnie(config);
  }
  if (name == "search") {
    return MakeSearch(config);
  }
  if (name == "multiclient") {
    return MakeMulticlient(config);
  }
  if (name == "churn") {
    return MakeChurn(config);
  }
  return nullptr;
}

std::vector<Metric> EndToEnd(const PassResult& pass, const Samples& setup_s) {
  return {
      {"ops_per_s", pass.ops_per_s(), "1/s", pass.ops},
      {"MBps", pass.mbps(), "MB/s", pass.ops},
      {"p50_ms", pass.latency_ms.WindowedQuantile(0.5), "ms",
       pass.latency_ms.size()},
      {"setup_s", setup_s.Quantile(0.5), "s", setup_s.size()},
  };
}

// The latency tail and the workload-specific numbers, for the table and
// the detail file.
std::vector<Metric> Extras(const PassResult& pass) {
  std::vector<Metric> out = {
      {"p90_ms", pass.latency_ms.WindowedQuantile(0.9), "ms",
       pass.latency_ms.size()},
      {"p99_ms", pass.latency_ms.WindowedQuantile(0.99), "ms",
       pass.latency_ms.size()},
  };
  for (const auto& [name, value] : pass.values) {
    out.push_back({name, value, "", 0});
  }
  for (const auto& [name, samples] : pass.series) {
    out.push_back({name + "_p50", samples.Quantile(0.5), "", samples.size()});
  }
  return out;
}

std::string ResultJson(const Tally& tally,
                         const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted());
  out += ", \"failed\": " + std::to_string(tally.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(metrics[i].name) +
           "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}}";
}

std::string Environment() {
  return "loopback TCP, unshaped; in-memory MemBlockDevice, no latency "
         "model; " +
         std::to_string(std::thread::hardware_concurrency()) +
         " hardware threads. Latencies are this machine's, not a disk's or "
         "a LAN's.";
}

Status WriteDetail(const Args& args, const Tally& tally,
                   const std::vector<Metric>& metrics,
                   const std::vector<Metric>& extras) {
  std::FILE* f = std::fopen(args.detail.c_str(), "w");
  if (f == nullptr) {
    return IoError("cannot write " + args.detail);
  }
  auto list = [&](const std::vector<Metric>& ms) {
    std::string out;
    for (size_t i = 0; i < ms.size(); ++i) {
      out += (i == 0 ? "\n    \"" : ",\n    \"") + JsonEscape(ms[i].name) +
             "\": {\"value\": " + FormatNumber(ms[i].value) +
             ", \"unit\": \"" + JsonEscape(ms[i].unit) +
             "\", \"samples\": " + std::to_string(ms[i].samples) + "}";
    }
    return out;
  };
  std::string errors;
  for (const std::string& e : tally.errors()) {
    errors += (errors.empty() ? "\"" : ", \"") + JsonEscape(e) + "\"";
  }
  std::fprintf(
      f,
      "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seconds\": %s,\n"
      "  \"trace\": %d,\n  \"smoke\": %s,\n  \"environment\": \"%s\",\n"
      "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n"
      "  \"errors\": [%s],\n  \"metrics\": {%s\n  },\n"
      "  \"extras\": {%s\n  }\n}\n",
      JsonEscape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0,
      args.smoke ? "true" : "false", JsonEscape(Environment()).c_str(),
      tally.correct() ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted()),
      static_cast<unsigned long long>(tally.failed()), errors.c_str(),
      list(metrics).c_str(), list(extras).c_str());
  return std::fclose(f) == 0 ? OkStatus() : IoError("short write");
}

void PrintTable(const Args& args, const Tally& tally,
                const std::vector<Metric>& metrics,
                const std::vector<Metric>& extras) {
  std::fprintf(stderr, "== discfs benchmark: %s, seed %llu, %s s, %s%s ==\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               FormatNumber(args.seconds).c_str(),
               args.trace ? "traced (per-layer)" : "untraced (end-to-end)",
               args.smoke ? ", smoke scale" : "");
  std::fprintf(stderr, "   %s\n", Environment().c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "   %-36s %14.4f %-6s", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (m.samples > 0) {
      std::fprintf(stderr, " (n=%llu)",
                   static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(stderr, "\n");
  }
  for (const Metric& m : extras) {
    std::fprintf(stderr, "   [%s] %-31s %14.4f", args.workload.c_str(),
                 m.name.c_str(), m.value);
    if (m.samples > 0) {
      std::fprintf(stderr, " (n=%llu)",
                   static_cast<unsigned long long>(m.samples));
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "   ops attempted %llu, failed %llu, checks %s\n",
               static_cast<unsigned long long>(tally.attempted()),
               static_cast<unsigned long long>(tally.failed()),
               tally.correct() ? "passed" : "FAILED");
  for (const std::string& e : tally.errors()) {
    std::fprintf(stderr, "   error: %s\n", e.c_str());
  }
}

// Untraced: set up kSetupRuns times (keeping the last), one pass.
std::vector<Metric> RunEndToEnd(const Args& args, Workload& workload,
                                std::vector<Metric>* extras) {
  Samples setup_s;
  size_t runs = args.smoke ? 1 : kSetupRuns;
  for (size_t i = 0; i < runs; ++i) {
    uint64_t start = NowNs();
    Status st = workload.Setup(/*instrumented=*/false);
    setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
    if (!workload.tally().Ok(st, "set-up")) {
      workload.Teardown();
      return {};
    }
    if (i + 1 < runs) {
      workload.Teardown();
    }
  }
  PassResult pass = workload.Run(args.seconds);
  workload.Teardown();
  *extras = Extras(pass);
  return EndToEnd(pass, setup_s);
}

// Traced: one set-up, an untraced pass, a traced pass, replays, the
// paper's references.
std::vector<Metric> RunTraced(const Args& args, Workload& workload,
                              std::vector<Metric>* extras) {
  Tracer& tracer = Tracer::Get();
  if (!workload.tally().Ok(workload.Setup(/*instrumented=*/true), "set-up")) {
    workload.Teardown();
    return {};
  }
  PassResult untraced = workload.Run(args.seconds / 2);
  std::vector<NodeSnapshot> before;
  for (Node* node : workload.nodes()) {
    before.push_back(TakeSnapshot(*node));
  }
  tracer.Clear();
  workload.net().Reset();
  tracer.Arm(true);
  PassResult traced = workload.Run(args.seconds / 2);
  tracer.Arm(false);
  std::vector<NodeSnapshot> after;
  for (Node* node : workload.nodes()) {
    after.push_back(TakeSnapshot(*node));
  }
  std::vector<Span> spans = tracer.Collect();
  std::map<std::string, double> refs = workload.PaperReferences();
  std::map<std::string, double> layers = CollectLayers(
      workload, before, after, spans, untraced, traced, refs);
  workload.Teardown();

  std::error_code ec;
  std::filesystem::path trace_dir =
      std::filesystem::read_symlink("/proc/self/exe", ec).parent_path() /
      "trace";
  std::filesystem::create_directories(trace_dir, ec);
  workload.tally().Ok(
      WriteSpans((trace_dir / (args.workload + ".json")).string(), spans),
      "write spans");
  *extras = Extras(traced);
  extras->push_back({"spans", static_cast<double>(spans.size()), "", 0});
  extras->push_back(
      {"spans_dropped", static_cast<double>(tracer.dropped()), "", 0});
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : LayerSpecs()) {
    metrics.push_back({spec.name, layers[spec.name], spec.unit, 0});
  }
  return metrics;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.smoke = args.smoke;
  Watchdog watchdog(kRunLimit);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, config);
  if (workload == nullptr) {
    return Usage();
  }
  std::vector<Metric> extras;
  std::vector<Metric> metrics = args.trace
                                    ? RunTraced(args, *workload, &extras)
                                    : RunEndToEnd(args, *workload, &extras);
  const Tally& tally = workload->tally();
  PrintTable(args, tally, metrics, extras);
  if (!args.detail.empty()) {
    Status st = WriteDetail(args, tally, metrics, extras);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (metrics.empty()) {
    return 1;  // set-up failed: no result to print
  }
  std::printf("%s\n", ResultJson(tally, metrics).c_str());
  std::fflush(stdout);
  return tally.correct() ? 0 : 1;
}

}  // namespace
}  // namespace discfs::bm

int main(int argc, char** argv) { return discfs::bm::Main(argc, argv); }
