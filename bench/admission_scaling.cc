// Admission fast-path scaling (PR 5): what a credential submit costs now
// that signature verification runs outside the server's exclusive lock,
// through the 64-bit Montgomery kernel with fixed-base combs and the
// verified-signature cache.
//
// Per credential-count tier:
//
//   * verify_ref_us  — single-thread DSA verify through the seed path
//     (two ModExpReference exponentiations + Knuth-division reductions)
//   * verify_fast_us — the shipping path (DsaVerifyContext: combs for g
//     and y over the group's Montgomery context, one shared chain)
//   * admit_per_s_{1,4,8}t — SubmitCredential throughput with that many
//     submitter threads against one server (fresh server per phase)
//   * sig_cache_hit_rate / resubmit_per_s — replayed submissions skipping
//     the modexp via the verified-signature cache
//
// Output: table on stdout + BENCH_admission.json (argv[1], default
// ./BENCH_admission.json; docs/BENCH_SCHEMAS.md); argv[2] caps the
// credential tiers.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/blockdev/blockdev.h"
#include "src/crypto/groups.h"
#include "src/discfs/action_env.h"
#include "src/discfs/credentials.h"
#include "src/discfs/server.h"
#include "src/ffs/ffs.h"
#include "src/util/prng.h"
#include "src/vfs/vfs.h"

namespace discfs {
namespace {

using bench::BenchRand;
using bench::GateOp;
using bench::Json;
using bench::LatencySummary;
using bench::NowSec;
using bench::Summarize;

// The seed-era DSA verify: both exponentiations through the reference
// (schoolbook multiply + Knuth division) path, reductions via DivMod.
bool ReferenceVerify(const DsaPublicKey& key, const Bytes& digest,
                     const DsaSignature& sig) {
  const BigNum& p = key.params().p;
  const BigNum& q = key.params().q;
  const BigNum& g = key.params().g;
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= q || sig.s >= q) {
    return false;
  }
  auto w_or = BigNum::ModInverse(sig.s, q);
  if (!w_or.ok()) {
    return false;
  }
  const BigNum& w = w_or.value();
  BigNum z = BigNum::FromBytes(digest);
  size_t qbits = q.BitLength();
  size_t zbits = digest.size() * 8;
  if (zbits > qbits) {
    z = BigNum::ShiftRight(z, zbits - qbits);
  }
  BigNum u1 = BigNum::DivMod(BigNum::Mul(z, w), q).second;
  BigNum u2 = BigNum::DivMod(BigNum::Mul(sig.r, w), q).second;
  BigNum gu1 = BigNum::ModExpReference(g, u1, p);
  BigNum yu2 = BigNum::ModExpReference(key.y(), u2, p);
  BigNum v =
      BigNum::DivMod(BigNum::DivMod(BigNum::Mul(gu1, yu2), p).second, q)
          .second;
  return BigNum::Compare(v, sig.r) == 0;
}

std::shared_ptr<FfsVfs> MakeVfs() {
  auto dev = std::make_shared<MemBlockDevice>(4096, 8192);
  auto fs = Ffs::Format(dev, FfsFormatOptions{1024});
  if (!fs.ok()) {
    std::fprintf(stderr, "ffs format failed: %s\n",
                 fs.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_shared<FfsVfs>(std::move(fs).value());
}

std::unique_ptr<DiscfsServer> MakeServer(const DsaPrivateKey& server_key) {
  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = BenchRand(7);
  auto server = DiscfsServer::Create(MakeVfs(), std::move(config));
  if (!server.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(server).value();
}

struct TierResult {
  size_t credentials = 0;
  LatencySummary verify_ref;
  LatencySummary verify_fast;
  double admit_per_s_1t = 0;
  double admit_per_s_4t = 0;
  double admit_per_s_8t = 0;
  double sig_cache_hit_rate = 0;
  double resubmit_per_s = 0;
};

// Runs `threads` submitters over disjoint slices of `creds` against a
// fresh server; returns admits/s over the whole batch.
double AdmitThroughput(const DsaPrivateKey& server_key,
                       const std::vector<std::string>& creds, size_t threads,
                       DiscfsServer** server_out = nullptr,
                       std::unique_ptr<DiscfsServer>* keep = nullptr) {
  std::unique_ptr<DiscfsServer> server = MakeServer(server_key);
  std::atomic<size_t> failures{0};
  double t0 = NowSec();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < creds.size(); i += threads) {
        if (!server->SubmitCredential(creds[i]).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  double elapsed = NowSec() - t0;
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %zu submissions failed\n", failures.load());
    std::exit(1);
  }
  if (server_out != nullptr && keep != nullptr) {
    *server_out = server.get();
    *keep = std::move(server);
  }
  return creds.size() / elapsed;
}

TierResult RunTier(const DsaPrivateKey& server_key, size_t n, Prng& prng) {
  TierResult out;
  out.credentials = n;
  const std::string server_id = server_key.public_key().ToKeyNoteString();

  // Pre-sign outside every timed region.
  std::vector<std::string> creds;
  creds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    CredentialOptions options;
    options.permissions = "RWX";
    options.comment = "c" + std::to_string(i);
    DsaPrivateKey subject =
        DsaPrivateKey::Generate(Dsa512(), BenchRand(1000 + i));
    auto cred = IssueCredential(server_key, subject.public_key(),
                                HandleString(static_cast<uint32_t>(100 + i)),
                                options);
    if (!cred.ok()) {
      std::fprintf(stderr, "issue failed: %s\n",
                   cred.status().ToString().c_str());
      std::exit(1);
    }
    creds.push_back(std::move(*cred));
  }

  // Single-thread verify latency, seed path vs shipping path, over the
  // same signatures.
  const size_t verify_samples = std::min<size_t>(n, 24);
  std::vector<double> ref_us, fast_us;
  for (size_t i = 0; i < verify_samples; ++i) {
    Bytes digest = prng.NextBytes(20);
    DsaSignature sig = server_key.Sign(digest);
    double a = NowSec();
    bool ref_ok = ReferenceVerify(server_key.public_key(), digest, sig);
    double b = NowSec();
    bool fast_ok = server_key.public_key().Verify(digest, sig);
    double c = NowSec();
    if (!ref_ok || !fast_ok) {
      std::fprintf(stderr, "FATAL: verify disagreement (ref=%d fast=%d)\n",
                   ref_ok, fast_ok);
      std::exit(1);
    }
    ref_us.push_back((b - a) * 1e6);
    fast_us.push_back((c - b) * 1e6);
  }
  out.verify_ref = Summarize(std::move(ref_us));
  out.verify_fast = Summarize(std::move(fast_us));

  // Admit throughput at 1/4/8 submitter threads. Fresh server per phase:
  // each phase verifies every signature from a cold signature cache.
  DiscfsServer* warm_server = nullptr;
  std::unique_ptr<DiscfsServer> keep;
  out.admit_per_s_1t =
      AdmitThroughput(server_key, creds, 1, &warm_server, &keep);
  out.admit_per_s_4t = AdmitThroughput(server_key, creds, 4);
  out.admit_per_s_8t = AdmitThroughput(server_key, creds, 8);

  // Replay: resubmit the full set against the server warmed by the
  // 1-thread phase; every verify should short-circuit in the cache.
  const auto before = warm_server->stats_snapshot().signatures;
  double r0 = NowSec();
  for (const std::string& cred : creds) {
    if (!warm_server->SubmitCredential(cred).ok()) {
      std::fprintf(stderr, "FATAL: resubmit failed\n");
      std::exit(1);
    }
  }
  double relapsed = NowSec() - r0;
  out.resubmit_per_s = n / relapsed;
  const auto after = warm_server->stats_snapshot().signatures;
  const uint64_t hits = after.hits - before.hits;
  const uint64_t misses = after.misses - before.misses;
  out.sig_cache_hit_rate =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses);
  return out;
}

Json LatencyJson(const LatencySummary& l) {
  Json out = Json::Object();
  out.Set("mean", l.mean);
  out.Set("p50", l.p50);
  out.Set("p99", l.p99);
  return out;
}

Json TierJson(const TierResult& r) {
  Json tier = Json::Object();
  tier.Set("credentials", r.credentials);
  tier.Set("verify_ref_us", LatencyJson(r.verify_ref));
  tier.Set("verify_fast_us", LatencyJson(r.verify_fast));
  tier.Set("admit_per_s_1t", r.admit_per_s_1t);
  tier.Set("admit_per_s_4t", r.admit_per_s_4t);
  tier.Set("admit_per_s_8t", r.admit_per_s_8t);
  tier.Set("sig_cache_hit_rate", r.sig_cache_hit_rate);
  tier.Set("resubmit_per_s", r.resubmit_per_s);
  return tier;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_admission.json";
  size_t max_credentials = 1024;
  if (argc > 2) {
    char* end = nullptr;
    max_credentials = std::strtoull(argv[2], &end, 10);
    if (end == argv[2] || *end != '\0') {
      std::fprintf(stderr, "usage: %s [out.json] [max_credentials]\n",
                   argv[0]);
      return 2;
    }
  }

  // 1024-bit group: the paper-era production size the motivation is about.
  DsaPrivateKey server_key =
      DsaPrivateKey::Generate(Dsa1024(), BenchRand(42));
  Prng prng(4242);

  std::printf("== Admission scaling: verify + submit cost ==\n");
  std::printf("%-8s %14s %14s %12s %12s %12s %10s %12s\n", "creds",
              "ref p50 us", "fast p50 us", "admit 1t/s", "admit 4t/s",
              "admit 8t/s", "hit rate", "resubmit/s");

  Json tiers = Json::Array();
  size_t tier_count = 0;
  double verify_speedup = std::numeric_limits<double>::infinity();
  double admit_scaling = 0;
  double min_admit_per_s = std::numeric_limits<double>::infinity();
  for (size_t n : {64u, 256u, 1024u}) {
    if (n > max_credentials) {
      break;
    }
    TierResult r = RunTier(server_key, n, prng);
    std::printf("%-8zu %14.1f %14.1f %12.0f %12.0f %12.0f %9.2f%% %12.0f\n",
                n, r.verify_ref.p50, r.verify_fast.p50,
                r.admit_per_s_1t, r.admit_per_s_4t, r.admit_per_s_8t,
                r.sig_cache_hit_rate * 100, r.resubmit_per_s);
    std::fflush(stdout);
    const double verify_ratio = r.verify_ref.mean / r.verify_fast.mean;
    verify_speedup = bench::GateMin(verify_speedup, verify_ratio);
    const double admit_ratio = r.admit_per_s_8t / r.admit_per_s_1t;
    admit_scaling = bench::GateMax(admit_scaling, admit_ratio);
    for (double rate : {r.admit_per_s_1t, r.admit_per_s_4t, r.admit_per_s_8t}) {
      min_admit_per_s = bench::GateMin(min_admit_per_s, rate);
    }
    min_admit_per_s = bench::GateMin(min_admit_per_s, r.resubmit_per_s);
    tiers.Push(TierJson(r));
    ++tier_count;
  }
  if (tier_count == 0) {
    std::fprintf(stderr, "no tiers ran (max_credentials too small)\n");
    return 2;
  }

  std::printf("verify speedup (worst tier): %.2fx\n", verify_speedup);
  std::printf("admit scaling 1->8 threads (best tier): %.2fx\n",
              admit_scaling);

  bench::Report report("admission_scaling");
  report.Set("verify_speedup", verify_speedup);
  report.Set("admit_scaling_1_to_8", admit_scaling);
  report.Set("results", std::move(tiers));
  // The comb verify must stay well ahead of the seed path.
  report.AddGate("verify_speedup", verify_speedup, GateOp::kGe, 2);
  // Verification runs outside the server lock, so admits scale with
  // submitter threads; CPU-bound work needs the cores to show it.
  report.AddGate("admit_scaling_1_to_8", admit_scaling, GateOp::kGe, 2, 4);
  report.AddGate("min_admit_per_s", min_admit_per_s, GateOp::kGt, 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
