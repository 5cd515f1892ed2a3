// Tests for the bench report writer: gate evaluation, the enforced flag,
// the exit code, and the JSON it writes.
#include "bench/report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

namespace discfs::bench {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Gate MakeGate(double value, GateOp op, double bound) {
  return Gate{"g", value, op, bound, 1};
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// Expects GatePasses for values just below, at and just above the bound.
void ExpectAroundBound(GateOp op, bool below, bool at, bool above) {
  SCOPED_TRACE(GateOpSymbol(op));
  EXPECT_EQ(GatePasses(MakeGate(1.5 - 1e-9, op, 1.5)), below);
  EXPECT_EQ(GatePasses(MakeGate(1.5, op, 1.5)), at);
  EXPECT_EQ(GatePasses(MakeGate(1.5 + 1e-9, op, 1.5)), above);
}

TEST(GatePasses, EveryOpAtAndAroundItsBound) {
  ExpectAroundBound(GateOp::kGe, false, true, true);
  ExpectAroundBound(GateOp::kGt, false, false, true);
  ExpectAroundBound(GateOp::kLe, true, true, false);
  ExpectAroundBound(GateOp::kLt, true, false, false);
  ExpectAroundBound(GateOp::kEq, false, true, false);
}

TEST(GatePasses, NonFiniteValuesNeverPass) {
  for (int i = 0; i <= static_cast<int>(GateOp::kEq); ++i) {
    const GateOp op = static_cast<GateOp>(i);
    SCOPED_TRACE(GateOpSymbol(op));
    EXPECT_FALSE(GatePasses(MakeGate(kNan, op, 0)));
    EXPECT_FALSE(GatePasses(MakeGate(kInf, op, 0)));
    EXPECT_FALSE(GatePasses(MakeGate(-kInf, op, 0)));
    EXPECT_FALSE(GatePasses(MakeGate(0, op, kNan)));
  }
}

TEST(GateMin, NanPoisonsTheAggregate) {
  EXPECT_EQ(GateMin(2, 1), 1);
  EXPECT_EQ(GateMax(2, 1), 2);
  EXPECT_TRUE(std::isnan(GateMin(kInf, kNan)));
  EXPECT_TRUE(std::isnan(GateMin(kNan, 1)));
  EXPECT_TRUE(std::isnan(GateMax(0, kNan)));
}

TEST(Report, NonFiniteValuesAreWrittenAsNullAndFail) {
  Report report("t", /*hardware_threads=*/1);
  report.AddGate("a", kNan, GateOp::kLe, 5);  // NaN <= 5 is false, too
  report.AddGate("b", kInf, GateOp::kGe, 3);
  report.AddGate("c", -kInf, GateOp::kLe, 0);
  report.Set("data", kNan);
  const std::string text = report.ToJson().Dump();
  EXPECT_EQ(Count(text, R"("value": null, )"), 3u) << text;
  EXPECT_EQ(Count(text, R"("enforced": true, "pass": false})"), 3u) << text;
  EXPECT_EQ(Count(text, R"("data": null)"), 1u) << text;
  EXPECT_EQ(Count(text, "nan") + Count(text, "inf"), 0u) << text;
  EXPECT_EQ(report.ExitCode(), 1);
}

TEST(Report, GateAboveTheCoreCountIsRecordedButNotEnforced) {
  const unsigned cores = HardwareThreads();
  ASSERT_GE(cores, std::thread::hardware_concurrency());
  Report report("t");
  report.AddGate("needs_more_cores", 0, GateOp::kGe, 1, cores + 1);
  report.AddGate("holds", 1, GateOp::kGe, 1);
  EXPECT_EQ(report.ExitCode(), 0);
  const std::string text = report.ToJson().Dump();
  const std::string expected = R"("min_cores": )" + std::to_string(cores + 1) +
                               R"(, "enforced": false, "pass": false})";
  EXPECT_EQ(Count(text, expected), 1u) << text;
  EXPECT_EQ(Count(text, R"("enforced": true, "pass": true})"), 1u) << text;
}

TEST(Report, OneFailingEnforcedGateFailsTheRun) {
  Report report("t", /*hardware_threads=*/4);
  report.AddGate("a", 1, GateOp::kEq, 1);
  report.AddGate("b", 2.9, GateOp::kGe, 3, 4);
  report.AddGate("c", 0, GateOp::kEq, 0);
  EXPECT_EQ(report.ExitCode(), 1);
}

TEST(Report, DuplicateGateNameIsRejected) {
  Report report("t", /*hardware_threads=*/1);
  EXPECT_TRUE(report.AddGate("same", 1, GateOp::kGe, 0));
  EXPECT_FALSE(report.AddGate("same", 2, GateOp::kGe, 0));
  EXPECT_EQ(report.ExitCode(), 1);
  const std::string text = report.ToJson().Dump();
  EXPECT_EQ(Count(text, R"("name": "same")"), 1u) << text;
  EXPECT_EQ(Count(text, R"("value": 2)"), 0u) << text;
}

TEST(Json, EscapesQuotesBackslashesAndControlCharacters) {
  Json s(std::string("a\"b\\c\nd\x01\x1f"));
  EXPECT_EQ(s.Dump(), "\"a\\\"b\\\\c\\u000ad\\u0001\\u001f\"\n");
  Json object = Json::Object();
  object.Set("k\"ey", 1);
  EXPECT_EQ(object.Dump(), "{\"k\\\"ey\": 1}\n");
}

TEST(Json, NumbersRoundTripExactly) {
  EXPECT_EQ(Json(0.1).Dump(), "0.10000000000000001\n");
  EXPECT_EQ(Json(size_t{10000}).Dump(), "10000\n");
  EXPECT_EQ(Json(-2).Dump(), "-2\n");
}

TEST(Report, GoldenReport) {
  Report report("demo", /*hardware_threads=*/2);
  report.Set("file_mb", 4);
  Json tiers = Json::Array();
  tiers.Push(Json::Object().Set("n", 1).Set("ok", true));
  tiers.Push(Json::Object().Set("n", 2).Set("ok", false));
  report.Set("tiers", std::move(tiers));
  report.Set("label", "x");
  report.AddGate("speedup", 3.5, GateOp::kGe, 3);
  report.AddGate("scaling", 1.25, GateOp::kGe, 1.5, 4);
  EXPECT_EQ(report.ExitCode(), 0);
  EXPECT_EQ(report.ToJson().Dump(),
            R"({
  "bench": "demo",
  "schema_version": 2,
  "hardware_threads": 2,
  "file_mb": 4,
  "tiers": [
    {"n": 1, "ok": true},
    {"n": 2, "ok": false}
  ],
  "label": "x",
  "gates": [
    {"name": "speedup", "value": 3.5, "op": ">=", "bound": 3, "min_cores": 1, "enforced": true, "pass": true},
    {"name": "scaling", "value": 1.25, "op": ">=", "bound": 1.5, "min_cores": 4, "enforced": false, "pass": false}
  ]
}
)");
}

}  // namespace
}  // namespace discfs::bench
