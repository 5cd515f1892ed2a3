// Credentials×principals scaling of the access-check hot path (ours,
// motivated by the ROADMAP's "millions of users" target): how cache-miss
// query latency, warm-cache throughput, and invalidation scope behave as
// the credential set grows from 10 to 10k.
//
// Measured per size N (one credential per synthetic principal, all issued
// by the server key, flat delegation — the paper's common case):
//
//   * indexed_miss_us   — KeyNoteSession::Query (delegation-graph slice)
//   * fullscan_miss_us  — KeyNoteSession::QueryFullScan (pre-index cost)
//   * warm_hit_ops_per_s / warm_hit_rate — PolicyCache steady state
//   * survivor_hit_rate_after_submit — fraction of warm entries for
//     *unrelated* principals still hot after one credential submission
//     (the old design flushed everything: 0.0; scoped invalidation: 1.0)
//
// Output: human-readable table on stdout plus BENCH_policy.json (path from
// argv[1], default ./BENCH_policy.json; docs/BENCH_SCHEMAS.md). The index
// must agree with the full scan at every size.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/crypto/groups.h"
#include "src/discfs/policy_cache.h"
#include "src/keynote/assertion.h"
#include "src/keynote/session.h"
#include "src/util/prng.h"

namespace discfs {
namespace {

using bench::GateOp;
using bench::Json;
using keynote::AssertionBuilder;
using keynote::ComplianceQuery;
using keynote::KeyNoteSession;
using keynote::PermissionLattice;
using keynote::SignatureAlgorithm;

std::function<Bytes(size_t)> BenchRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LatencySummary {
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
};

LatencySummary Summarize(std::vector<double> samples_us) {
  LatencySummary s;
  if (samples_us.empty()) {
    return s;
  }
  std::sort(samples_us.begin(), samples_us.end());
  double sum = 0;
  for (double v : samples_us) {
    sum += v;
  }
  s.mean_us = sum / samples_us.size();
  s.p50_us = samples_us[samples_us.size() / 2];
  s.p99_us = samples_us[std::min(samples_us.size() - 1,
                                 samples_us.size() * 99 / 100)];
  return s;
}

std::string PrincipalName(size_t i) { return "user" + std::to_string(i); }

uint32_t HandleOf(size_t i) { return static_cast<uint32_t>(1000 + i); }

ComplianceQuery AccessQuery(const std::string& principal, uint32_t inode) {
  ComplianceQuery query;
  query.attributes = {{"app_domain", "DisCFS"},
                      {keynote::kHandleAttribute, std::to_string(inode)},
                      {"operation", "access"}};
  query.action_authorizers = {principal};
  return query;
}

struct SizeResult {
  size_t credentials = 0;
  double admit_s = 0;
  LatencySummary indexed_miss;
  LatencySummary fullscan_miss;
  double warm_hit_ops_per_s = 0;
  double warm_hit_rate = 0;
  double survivor_hit_rate = 0;
  size_t invalidated_principals = 0;
  bool indexed_matches_fullscan = true;
};

Result<SizeResult> RunSize(const DsaPrivateKey& server_key, size_t n,
                           Prng& prng) {
  SizeResult out;
  out.credentials = n;
  const std::string server_id = server_key.public_key().ToKeyNoteString();

  KeyNoteSession session(PermissionLattice::Get());
  RETURN_IF_ERROR(session.AddPolicyAssertion(
      "Authorizer: \"POLICY\"\n"
      "Licensees: \"" + server_id + "\"\n"
      "Conditions: app_domain == \"DisCFS\" -> \"RWX\";\n"));

  double t0 = NowSec();
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(
        std::string credential,
        AssertionBuilder()
            .SetAuthorizer(server_id)
            .SetLicensees("\"" + PrincipalName(i) + "\"")
            .SetConditions("(app_domain == \"DisCFS\") && (HANDLE == \"" +
                           std::to_string(HandleOf(i)) + "\") -> \"RWX\";")
            .Sign(server_key, SignatureAlgorithm::kDsaSha1));
    RETURN_IF_ERROR(session.AddCredential(credential).status());
  }
  out.admit_s = NowSec() - t0;

  // Sampled principals for the latency and cache phases.
  const size_t samples = std::min<size_t>(n, 64);
  std::vector<size_t> picked(samples);
  for (size_t s = 0; s < samples; ++s) {
    picked[s] = prng.NextBelow(n);
  }

  std::vector<double> indexed_us, fullscan_us;
  for (size_t idx : picked) {
    ComplianceQuery query = AccessQuery(PrincipalName(idx), HandleOf(idx));
    double a = NowSec();
    uint32_t indexed = session.Query(query);
    double b = NowSec();
    uint32_t full = session.QueryFullScan(query);
    double c = NowSec();
    indexed_us.push_back((b - a) * 1e6);
    fullscan_us.push_back((c - b) * 1e6);
    if (indexed != full) {
      out.indexed_matches_fullscan = false;
    }
  }
  out.indexed_miss = Summarize(std::move(indexed_us));
  out.fullscan_miss = Summarize(std::move(fullscan_us));

  // Warm-cache steady state: populate once, then hammer hits.
  PolicyCache cache(16384, /*ttl_seconds=*/1 << 30);
  for (size_t idx : picked) {
    std::string principal = PrincipalName(idx);
    uint32_t inode = HandleOf(idx);
    cache.Put(principal, inode, session.Query(AccessQuery(principal, inode)),
              /*now=*/0);
  }
  cache.ResetStats();
  const size_t rounds = 2000;
  double w0 = NowSec();
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t idx : picked) {
      (void)cache.Get(PrincipalName(idx), HandleOf(idx), /*now=*/1);
    }
  }
  double warm_s = NowSec() - w0;
  PolicyCache::Stats warm = cache.stats();
  out.warm_hit_ops_per_s = (rounds * samples) / warm_s;
  out.warm_hit_rate =
      static_cast<double>(warm.hits) / (warm.hits + warm.misses);

  // Credential churn: one new principal arrives; scoped invalidation must
  // leave every sampled (unrelated) principal's entry warm.
  ASSIGN_OR_RETURN(
      std::string churn_cred,
      AssertionBuilder()
          .SetAuthorizer(server_id)
          .SetLicensees("\"" + PrincipalName(n) + "\"")
          .SetConditions("(app_domain == \"DisCFS\") && (HANDLE == \"" +
                         std::to_string(HandleOf(n)) + "\") -> \"RWX\";")
          .Sign(server_key, SignatureAlgorithm::kDsaSha1));
  ASSIGN_OR_RETURN(std::string churn_id, session.AddCredential(churn_cred));
  std::vector<std::string> affected = session.AffectedRequesters(churn_id);
  for (const std::string& principal : affected) {
    cache.InvalidatePrincipal(principal);
  }
  out.invalidated_principals = affected.size();
  size_t survivors = 0;
  for (size_t idx : picked) {
    if (cache.Get(PrincipalName(idx), HandleOf(idx), /*now=*/1)
            .has_value()) {
      ++survivors;
    }
  }
  out.survivor_hit_rate = static_cast<double>(survivors) / samples;
  return out;
}

Json LatencyJson(const LatencySummary& l) {
  Json out = Json::Object();
  out.Set("mean", l.mean_us);
  out.Set("p50", l.p50_us);
  out.Set("p99", l.p99_us);
  return out;
}

Json TierJson(const SizeResult& r) {
  Json tier = Json::Object();
  tier.Set("credentials", r.credentials);
  tier.Set("principals", r.credentials);
  tier.Set("admit_s", r.admit_s);
  tier.Set("indexed_miss_us", LatencyJson(r.indexed_miss));
  tier.Set("fullscan_miss_us", LatencyJson(r.fullscan_miss));
  tier.Set("warm_hit_ops_per_s", r.warm_hit_ops_per_s);
  tier.Set("warm_hit_rate", r.warm_hit_rate);
  tier.Set("survivor_hit_rate_after_submit", r.survivor_hit_rate);
  tier.Set("invalidated_principals", r.invalidated_principals);
  tier.Set("indexed_matches_fullscan", r.indexed_matches_fullscan);
  return tier;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_policy.json";
  size_t max_credentials = 10000;
  if (argc > 2) {
    char* end = nullptr;
    max_credentials = std::strtoull(argv[2], &end, 10);
    if (end == argv[2] || *end != '\0') {
      std::fprintf(stderr, "usage: %s [out.json] [max_credentials]\n",
                   argv[0]);
      return 2;
    }
  }

  DsaPrivateKey server_key =
      DsaPrivateKey::Generate(Dsa512(), BenchRand(42));
  Prng prng(1234);

  std::printf("== Policy scaling: access-check cost vs credential count ==\n");
  std::printf("%-8s %12s %16s %16s %14s %10s\n", "creds", "admit (s)",
              "indexed p50 us", "fullscan p50 us", "warm ops/s",
              "survivors");

  Json tiers = Json::Array();
  size_t tier_count = 0, diverged = 0;
  double min_warm_ops = std::numeric_limits<double>::infinity();
  for (size_t n : {10u, 100u, 1000u, 10000u}) {
    if (n > max_credentials) {
      break;
    }
    auto result = RunSize(server_key, n, prng);
    if (!result.ok()) {
      std::fprintf(stderr, "size %zu failed: %s\n", n,
                   result.status().ToString().c_str());
      return 1;
    }
    const SizeResult& r = *result;
    std::printf("%-8zu %12.2f %16.2f %16.2f %14.0f %9.0f%%\n", n, r.admit_s,
                r.indexed_miss.p50_us, r.fullscan_miss.p50_us,
                r.warm_hit_ops_per_s, r.survivor_hit_rate * 100);
    std::fflush(stdout);
    tiers.Push(TierJson(r));
    ++tier_count;
    diverged += r.indexed_matches_fullscan ? 0 : 1;
    min_warm_ops = bench::GateMin(min_warm_ops, r.warm_hit_ops_per_s);
  }

  bench::Report report("policy_scaling");
  report.Set("results", std::move(tiers));
  report.AddGate("tiers", tier_count, GateOp::kGe, 1);
  report.AddGate("indexed_diverged_tiers", diverged, GateOp::kEq, 0);
  report.AddGate("min_warm_hit_ops_per_s", min_warm_ops, GateOp::kGt, 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
