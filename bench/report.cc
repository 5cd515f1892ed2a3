#include "bench/report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/util/prng.h"

namespace discfs::bench {
namespace {

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x", c);
      out += escape;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

}  // namespace

Json::Json(double value) : text_("null") {
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    text_ = buf;
  }
}

Json::Json(const std::string& value) : text_(Quoted(value)) {}

Json& Json::Set(const std::string& key, Json value) {
  const std::string quoted = Quoted(key);
  auto it = std::find(keys_.begin(), keys_.end(), quoted);
  if (it != keys_.end()) {
    values_[it - keys_.begin()] = std::move(value);
    return *this;
  }
  keys_.push_back(quoted);
  values_.push_back(std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  values_.push_back(std::move(value));
  return *this;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(out, 0);
  return out + "\n";
}

void Json::DumpTo(std::string& out, int indent) const {
  if (kind_ == Kind::kScalar) {
    out += text_;
    return;
  }
  bool flat = true;
  for (const Json& value : values_) {
    flat = flat && (value.kind_ == Kind::kScalar || value.values_.empty());
  }
  const std::string newline = "\n" + std::string(indent + 2, ' ');
  out += kind_ == Kind::kObject ? '{' : '[';
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) {
      out += flat ? ", " : ",";
    }
    if (!flat) {
      out += newline;
    }
    if (kind_ == Kind::kObject) {
      out += keys_[i] + ": ";
    }
    values_[i].DumpTo(out, indent + 2);
  }
  if (!flat) {
    out += "\n" + std::string(indent, ' ');
  }
  out += kind_ == Kind::kObject ? '}' : ']';
}

const char* GateOpSymbol(GateOp op) {
  static const char* const kSymbols[] = {">=", ">", "<=", "<", "=="};
  return kSymbols[static_cast<int>(op)];
}

bool GatePasses(const Gate& gate) {
  const double v = gate.value, b = gate.bound;
  if (!std::isfinite(v) || !std::isfinite(b)) {
    return false;
  }
  const bool holds[] = {v >= b, v > b, v <= b, v < b, v == b};  // by GateOp
  return holds[static_cast<int>(gate.op)];
}

double GateMin(double a, double b) {
  return std::isnan(a) || std::isnan(b) ? std::nan("") : std::min(a, b);
}

double GateMax(double a, double b) {
  return std::isnan(a) || std::isnan(b) ? std::nan("") : std::max(a, b);
}

unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::function<Bytes(size_t)> BenchRand(uint64_t seed) {
  return LockedPrngBytes(seed);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (double v : samples) {
    sum += v;
  }
  s.mean = sum / samples.size();
  s.p50 = samples[samples.size() / 2];
  s.p99 = samples[std::min(samples.size() - 1, samples.size() * 99 / 100)];
  return s;
}

Report::Report(std::string bench, unsigned hardware_threads)
    : bench_(std::move(bench)), hardware_threads_(hardware_threads) {
  out_.Set("bench", bench_);
  out_.Set("schema_version", 2);
  out_.Set("hardware_threads", hardware_threads_);
}

bool Report::AddGate(std::string name, double value, GateOp op,
                     double bound, unsigned min_cores) {
  for (const Gate& gate : gates_) {
    if (gate.name == name) {
      rejected_.push_back(std::move(name));
      return false;
    }
  }
  gates_.push_back(Gate{std::move(name), value, op, bound, min_cores});
  return true;
}

Json Report::ToJson() const {
  Json gates = Json::Array();
  for (const Gate& gate : gates_) {
    Json record = Json::Object();
    record.Set("name", gate.name);
    record.Set("value", gate.value);
    record.Set("op", GateOpSymbol(gate.op));
    record.Set("bound", gate.bound);
    record.Set("min_cores", gate.min_cores);
    record.Set("enforced", Enforced(gate));
    record.Set("pass", GatePasses(gate));
    gates.Push(std::move(record));
  }
  Json out = out_;
  out.Set("gates", std::move(gates));
  return out;
}

int Report::ExitCode() const {
  for (const Gate& gate : gates_) {
    if (Enforced(gate) && !GatePasses(gate)) {
      return 1;
    }
  }
  return rejected_.empty() ? 0 : 1;
}

int Report::Write(const std::string& path) const {
  std::fflush(stdout);  // keep the bench's own output ahead of the verdicts
  for (const std::string& name : rejected_) {
    std::fprintf(stderr, "%s: duplicate gate name %s\n", bench_.c_str(),
                 name.c_str());
  }
  for (const Gate& gate : gates_) {
    if (!GatePasses(gate)) {
      std::fprintf(Enforced(gate) ? stderr : stdout,
                   "%s: %s gate %s: %g %s %g does not hold\n", bench_.c_str(),
                   Enforced(gate) ? "FAIL" : "unenforced", gate.name.c_str(),
                   gate.value, GateOpSymbol(gate.op), gate.bound);
    }
  }
  const std::string text = ToJson().Dump();
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool written = f != nullptr &&
                 std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench_.c_str(), path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu gates)\n", path.c_str(), gates_.size());
  return ExitCode();
}

}  // namespace discfs::bench
