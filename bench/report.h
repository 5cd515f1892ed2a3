// One report writer for every gated bench under bench/: an ordered JSON
// builder plus the bench's gates, each declared once.
//
// A bench puts its measurements into a Report as data keys and states
// each property it guarantees as a Gate{name, value, op, bound,
// min_cores}. Report::Write() evaluates every gate, writes
//
//   {"bench": <kind>, "schema_version": 2, "hardware_threads": N,
//    <data keys, in the order they were set>,
//    "gates": [{"name", "value", "op", "bound", "min_cores",
//               "enforced", "pass"}, ...]}
//
// and returns the exit code: 1 when an enforced gate fails. A gate is
// enforced when the host has at least min_cores hardware threads; below
// that it is recorded with "enforced": false and cannot fail the run.
// tools/check_bench_schema.py re-evaluates every recorded gate, so the
// file and the exit code cannot disagree.
#ifndef DISCFS_BENCH_REPORT_H_
#define DISCFS_BENCH_REPORT_H_

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace discfs::bench {

// An ordered JSON value. Numbers are written with %.17g, so a reader
// parses back the exact double; NaN and infinities are written as null.
class Json {
 public:
  Json() : text_("null") {}
  Json(bool value) : text_(value ? "true" : "false") {}
  Json(double value);
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Json(T value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : Json(std::string(value)) {}
  Json(const std::string& value);

  static Json Object() { return Json(Kind::kObject); }
  static Json Array() { return Json(Kind::kArray); }

  // Adds a member to an object (members keep insertion order; setting a
  // key again replaces its value in place) or an item to an array.
  Json& Set(const std::string& key, Json value);
  Json& Push(Json value);

  // Containers holding only scalars print on one line; others print one
  // member per line, indented by two spaces per level.
  std::string Dump() const;

 private:
  enum class Kind { kScalar, kArray, kObject };

  explicit Json(Kind kind) : kind_(kind) {}
  void DumpTo(std::string& out, int indent) const;

  Kind kind_ = Kind::kScalar;
  std::string text_;               // a scalar's JSON text
  std::vector<std::string> keys_;  // object keys as JSON strings
  std::vector<Json> values_;       // object values or array items
};

enum class GateOp { kGe, kGt, kLe, kLt, kEq };

const char* GateOpSymbol(GateOp op);

struct Gate {
  std::string name;
  double value = 0;
  GateOp op = GateOp::kGe;
  double bound = 0;
  unsigned min_cores = 1;
};

// True iff value and bound are both finite and `value op bound` holds.
bool GatePasses(const Gate& gate);

// std::min / std::max for folding tiers into one gate value, except that a
// NaN input yields NaN: a non-finite tier fails the gate instead of
// dropping out of the aggregate.
double GateMin(double a, double b);
double GateMax(double a, double b);

// std::thread::hardware_concurrency(), or 1 when it is unknown.
unsigned HardwareThreads();

class Report {
 public:
  explicit Report(std::string bench,
                  unsigned hardware_threads = HardwareThreads());

  // Adds a data key after the envelope ("gates" is reserved).
  void Set(const std::string& key, Json value) {
    out_.Set(key, std::move(value));
  }

  // Adds Gate{name, value, op, bound, min_cores}. A second gate with the
  // same name is rejected: it returns false, is left out of the report,
  // and makes ExitCode() 1.
  bool AddGate(std::string name, double value, GateOp op, double bound,
               unsigned min_cores = 1);

  Json ToJson() const;

  // 1 if an enforced gate fails or a gate was rejected, else 0.
  int ExitCode() const;

  // Writes ToJson() to `path`, prints a line for every gate that does not
  // hold, and returns ExitCode() (1 if the file cannot be written).
  int Write(const std::string& path) const;

 private:
  bool Enforced(const Gate& gate) const {
    return hardware_threads_ >= gate.min_cores;
  }

  std::string bench_;
  unsigned hardware_threads_;
  Json out_ = Json::Object();  // the envelope, then the data keys
  std::vector<Gate> gates_;
  std::vector<std::string> rejected_;
};

}  // namespace discfs::bench

#endif  // DISCFS_BENCH_REPORT_H_
