// Shared pieces of the DisCFS benchmark: clocks, sample statistics, the
// failure tally, seeded block patterns, and the metric list a run prints.
#ifndef DISCFS_BENCHMARK_HARNESS_COMMON_H_
#define DISCFS_BENCHMARK_HARNESS_COMMON_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs::bm {

// Monotonic time (CLOCK_MONOTONIC, the base the program's recorder uses).
uint64_t NowNs();
void SleepUntilNs(uint64_t deadline_ns);

// A growable sample set with the statistics the report needs.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Mean() const;
  double Sum() const;
  // Linear interpolation between order statistics; 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

// Operation latencies with the time each completed. A run's latency
// percentiles are taken in windows (see WindowedQuantile) so that a few
// multi-millisecond stalls of the shared machine, which land in some runs
// and not others, do not decide a run's p99 on their own.
class LatencyLog {
 public:
  void Add(uint64_t at_ns, double ms) { entries_.emplace_back(at_ns, ms); }
  void Append(const LatencyLog& other);
  size_t size() const { return entries_.size(); }
  // Splits the samples, in completion order, into up to kWindows windows
  // of at least kMinPerWindow samples each (so a p99 has at least 10
  // samples beyond it), takes the q-quantile in each, and returns the
  // median across windows. With fewer than 2 * kMinPerWindow samples
  // it is the plain q-quantile.
  double WindowedQuantile(double q) const;

  static constexpr size_t kWindows = 20;
  static constexpr size_t kMinPerWindow = 1000;

 private:
  std::vector<std::pair<uint64_t, double>> entries_;
};

// Counts client operations attempted and failed, and output checks that
// did not hold. Thread-safe.
class Tally {
 public:
  void Attempt(uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  // One attempted operation that returned an unexpected error.
  void Fail(const std::string& what);
  // An output check that did not hold (wrong bytes, wrong totals, a victim
  // still granted, a dirty fsck).
  void CheckFailed(const std::string& what);

  // Attempts one operation; counts it failed (with `what`) unless ok.
  bool Ok(const Status& status, const char* what);
  template <typename T>
  bool Ok(const Result<T>& result, const char* what) {
    return Ok(result.status(), what);
  }

  uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  bool correct() const;
  std::vector<std::string> errors() const;

 private:
  void Note(const std::string& what);

  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> check_failures_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;  // guarded by mu_; first few only
};

// Deterministic block contents. The first 8 bytes carry `version` so a
// reader can tell which write it observed; the rest is a function of
// (key, version). Verify checks both.
void FillPattern(uint64_t key, uint64_t version, uint8_t* out, size_t len);
Bytes MakePattern(uint64_t key, uint64_t version, size_t len);
bool MatchesPattern(uint64_t key, uint64_t version, const uint8_t* data,
                    size_t len);
// The version stamped in a block's first 8 bytes.
uint64_t PatternVersion(const uint8_t* data, size_t len);

uint64_t Mix64(uint64_t x);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 when the value is not a sample statistic
};

// Shortest round-trip decimal form of `v` (full precision, no rounding).
std::string FormatNumber(double v);
std::string JsonEscape(const std::string& s);

}  // namespace discfs::bm

#endif  // DISCFS_BENCHMARK_HARNESS_COMMON_H_
