#include "benchmark/harness/common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <thread>

#include "src/obs/metrics.h"

namespace discfs::bm {
namespace {

constexpr size_t kMaxErrors = 20;

}  // namespace

uint64_t NowNs() { return obs::MonotonicNanos(); }

void SleepUntilNs(uint64_t deadline_ns) {
  uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) {
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void LatencyLog::Append(const LatencyLog& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

double LatencyLog::WindowedQuantile(double q) const {
  std::vector<std::pair<uint64_t, double>> sorted = entries_;
  std::sort(sorted.begin(), sorted.end());
  size_t windows =
      std::min(kWindows, std::max<size_t>(1, sorted.size() / kMinPerWindow));
  Samples per_window;
  for (size_t w = 0; w < windows; ++w) {
    size_t begin = sorted.size() * w / windows;
    size_t end = sorted.size() * (w + 1) / windows;
    Samples window;
    for (size_t i = begin; i < end; ++i) {
      window.Add(sorted[i].second);
    }
    per_window.Add(window.Quantile(q));
  }
  return per_window.Quantile(0.5);
}

void Tally::Note(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (errors_.size() < kMaxErrors) {
    errors_.push_back(what);
  }
}

void Tally::Fail(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  Note(what);
}

void Tally::CheckFailed(const std::string& what) {
  check_failures_.fetch_add(1, std::memory_order_relaxed);
  Note("check: " + what);
}

bool Tally::Ok(const Status& status, const char* what) {
  Attempt();
  if (status.ok()) {
    return true;
  }
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

bool Tally::correct() const {
  return failed() == 0 &&
         check_failures_.load(std::memory_order_relaxed) == 0;
}

std::vector<std::string> Tally::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void FillPattern(uint64_t key, uint64_t version, uint8_t* out, size_t len) {
  uint64_t state = Mix64(key ^ Mix64(version));
  size_t i = 0;
  if (len >= 8) {
    std::memcpy(out, &version, 8);
    i = 8;
  }
  for (; i + 8 <= len; i += 8) {
    state = Mix64(state);
    std::memcpy(out + i, &state, 8);
  }
  state = Mix64(state);
  for (; i < len; ++i) {
    out[i] = static_cast<uint8_t>(state >> (8 * (i % 8)));
  }
}

Bytes MakePattern(uint64_t key, uint64_t version, size_t len) {
  Bytes out(len);
  FillPattern(key, version, out.data(), len);
  return out;
}

bool MatchesPattern(uint64_t key, uint64_t version, const uint8_t* data,
                    size_t len) {
  thread_local Bytes expected;
  expected.resize(len);
  FillPattern(key, version, expected.data(), len);
  return std::memcmp(expected.data(), data, len) == 0;
}

uint64_t PatternVersion(const uint8_t* data, size_t len) {
  uint64_t version = 0;
  if (len >= 8) {
    std::memcpy(&version, data, 8);
  }
  return version;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace discfs::bm
