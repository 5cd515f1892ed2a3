// Observability overhead gate (PR 9): the flight recorder stamps every
// RPC at five points and feeds per-proc histograms; this bench proves the
// instrumentation is affordable by driving the two hot paths it taxes —
// pipelined RPC (kServerInfo, window 64) and warm admission (resubmitting
// one credential, so verification is a signature-cache hit and the
// request cost is dominated by the cheap locked path) — against one
// DiscfsHost with the metrics registry alternately enabled and disabled.
//
// Rounds interleave enabled/disabled so drift (frequency scaling, page
// cache) hits both sides equally; the reported numbers are medians of
// kTrials rounds per side. A kServerStats scrape from the live host must
// then carry the per-proc span summaries the rounds generated.
//
// Output: table on stdout + BENCH_obs.json (argv[1], default
// ./BENCH_obs.json; docs/BENCH_SCHEMAS.md).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/blockdev/blockdev.h"
#include "src/crypto/groups.h"
#include "src/discfs/action_env.h"
#include "src/discfs/client.h"
#include "src/discfs/credentials.h"
#include "src/discfs/host.h"
#include "src/discfs/protocol.h"
#include "src/discfs/server.h"
#include "src/ffs/ffs.h"
#include "src/rpc/rpc.h"
#include "src/securechannel/channel.h"
#include "src/vfs/vfs.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

using bench::BenchRand;
using bench::GateOp;
using bench::Json;
using bench::NowSec;

constexpr size_t kTrials = 5;
constexpr size_t kWindow = 64;
constexpr size_t kPipelinedOpsPerRound = 4000;
constexpr size_t kAdmissionOpsPerRound = 400;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct PathResult {
  double enabled_ops_per_s = 0;
  double disabled_ops_per_s = 0;
  double overhead_pct = 0;
};

double OverheadPct(double enabled, double disabled) {
  if (disabled <= 0) {
    return 0;
  }
  return (disabled - enabled) / disabled * 100.0;
}

// Closed loop: keep kWindow kServerInfo calls outstanding on one secure
// RPC connection.
double PipelinedRound(RpcClient& rpc, size_t ops) {
  std::deque<std::future<Result<Bytes>>> window;
  size_t issued = 0, completed = 0;
  double start = NowSec();
  while (completed < ops) {
    while (issued < ops && window.size() < kWindow) {
      window.push_back(rpc.CallAsync(
          kDiscfsProgram, static_cast<uint32_t>(DiscfsProc::kServerInfo),
          Bytes()));
      ++issued;
    }
    Result<Bytes> reply = window.front().get();
    window.pop_front();
    if (!reply.ok()) {
      std::fprintf(stderr, "kServerInfo failed: %s\n",
                   reply.status().ToString().c_str());
      std::exit(1);
    }
    ++completed;
  }
  return static_cast<double>(ops) / (NowSec() - start);
}

// Serial resubmission of one already-installed credential: every call is
// a signature-cache hit ending in the locked duplicate check, the
// cheapest full-stack admission request.
double AdmissionRound(RpcClient& rpc, const Bytes& args, size_t ops) {
  double start = NowSec();
  for (size_t i = 0; i < ops; ++i) {
    Result<Bytes> reply = rpc.Call(
        kDiscfsProgram, static_cast<uint32_t>(DiscfsProc::kSubmitCredential),
        args);
    // The duplicate resubmit is refused; only transport failures are
    // bench errors.
    if (!reply.ok() && reply.status().code() != StatusCode::kPermissionDenied) {
      std::fprintf(stderr, "resubmit failed unexpectedly: %s\n",
                   reply.status().ToString().c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(ops) / (NowSec() - start);
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "./BENCH_obs.json";

  DsaPrivateKey admin = DsaPrivateKey::Generate(Dsa512(), BenchRand(1));
  DsaPrivateKey subject = DsaPrivateKey::Generate(Dsa512(), BenchRand(2));

  auto dev = std::make_shared<MemBlockDevice>(4096, 8192);
  auto fs = Ffs::Format(dev, FfsFormatOptions{1024});
  if (!fs.ok()) {
    std::fprintf(stderr, "format failed\n");
    return 1;
  }
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = admin;
  config.rand_bytes = BenchRand(99);
  auto host = DiscfsHost::Start(std::move(vfs), std::move(config));
  if (!host.ok()) {
    std::fprintf(stderr, "host start failed: %s\n",
                 host.status().ToString().c_str());
    return 1;
  }

  auto transport = TcpTransport::Connect("127.0.0.1", (*host)->port());
  if (!transport.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  ChannelIdentity identity{subject, BenchRand(10)};
  auto channel = SecureChannel::ClientHandshake(std::move(transport).value(),
                                                identity, admin.public_key());
  if (!channel.ok()) {
    std::fprintf(stderr, "handshake failed: %s\n",
                 channel.status().ToString().c_str());
    return 1;
  }
  RpcClient rpc(std::move(channel).value());

  // Install the credential once; every bench-loop resubmit is then a
  // warm signature-cache hit.
  CredentialOptions cred_options;
  cred_options.permissions = "RWX";
  auto cred = IssueCredential(admin, subject.public_key(), HandleString(1),
                              cred_options);
  if (!cred.ok()) {
    std::fprintf(stderr, "issue failed\n");
    return 1;
  }
  XdrWriter cred_writer;
  cred_writer.PutString(*cred);
  Bytes cred_args = cred_writer.Take();
  {
    Result<Bytes> installed = rpc.Call(
        kDiscfsProgram, static_cast<uint32_t>(DiscfsProc::kSubmitCredential),
        cred_args);
    if (!installed.ok()) {
      std::fprintf(stderr, "initial submit failed: %s\n",
                   installed.status().ToString().c_str());
      return 1;
    }
  }

  obs::MetricsRegistry& registry = (*host)->server().metrics();

  // Warmup (also fills the per-proc histogram map, so the measured
  // enabled rounds run the steady-state shared-lock probe).
  PipelinedRound(rpc, kPipelinedOpsPerRound / 4);
  AdmissionRound(rpc, cred_args, kAdmissionOpsPerRound / 4);

  std::vector<double> pipe_on, pipe_off, admit_on, admit_off;
  for (size_t trial = 0; trial < kTrials; ++trial) {
    registry.set_enabled(true);
    pipe_on.push_back(PipelinedRound(rpc, kPipelinedOpsPerRound));
    admit_on.push_back(AdmissionRound(rpc, cred_args, kAdmissionOpsPerRound));
    registry.set_enabled(false);
    pipe_off.push_back(PipelinedRound(rpc, kPipelinedOpsPerRound));
    admit_off.push_back(AdmissionRound(rpc, cred_args, kAdmissionOpsPerRound));
  }
  registry.set_enabled(true);

  PathResult pipelined;
  pipelined.enabled_ops_per_s = Median(pipe_on);
  pipelined.disabled_ops_per_s = Median(pipe_off);
  pipelined.overhead_pct = OverheadPct(pipelined.enabled_ops_per_s,
                                       pipelined.disabled_ops_per_s);
  PathResult admission;
  admission.enabled_ops_per_s = Median(admit_on);
  admission.disabled_ops_per_s = Median(admit_off);
  admission.overhead_pct = OverheadPct(admission.enabled_ops_per_s,
                                       admission.disabled_ops_per_s);

  // The scrape must work against the host the rounds just exercised and
  // reflect them (per-proc span summaries, non-zero call count).
  bool scrape_ok = false;
  {
    XdrWriter w;
    w.PutU32(0);
    Result<Bytes> reply = rpc.Call(
        kDiscfsProgram, static_cast<uint32_t>(DiscfsProc::kServerStats),
        w.Take());
    if (reply.ok()) {
      XdrReader r(*reply);
      auto text = r.GetString(1 << 24);
      scrape_ok = text.ok() &&
                  text->find("discfs_rpc_calls_total") != std::string::npos &&
                  text->find("discfs_rpc_span_ns{prog=\"200390\"") !=
                      std::string::npos;
    }
  }

  std::printf("%-16s %14s %14s %10s\n", "path", "enabled/s", "disabled/s",
              "ovh%");
  std::printf("%-16s %14.0f %14.0f %9.2f%%\n", "pipelined_rpc",
              pipelined.enabled_ops_per_s, pipelined.disabled_ops_per_s,
              pipelined.overhead_pct);
  std::printf("%-16s %14.0f %14.0f %9.2f%%\n", "warm_admission",
              admission.enabled_ops_per_s, admission.disabled_ops_per_s,
              admission.overhead_pct);
  std::printf("scrape_ok: %s\n", scrape_ok ? "yes" : "no");

  rpc.Close();

  auto path_json = [](const PathResult& r) {
    Json out = Json::Object();
    out.Set("enabled_ops_per_s", r.enabled_ops_per_s);
    out.Set("disabled_ops_per_s", r.disabled_ops_per_s);
    out.Set("overhead_pct", r.overhead_pct);
    return out;
  };
  double min_ops_per_s = std::numeric_limits<double>::infinity();
  for (const PathResult* path : {&pipelined, &admission}) {
    min_ops_per_s = bench::GateMin(min_ops_per_s, path->enabled_ops_per_s);
    min_ops_per_s = bench::GateMin(min_ops_per_s, path->disabled_ops_per_s);
  }
  bench::Report report("obs_overhead");
  report.Set("pipelined_rpc", path_json(pipelined));
  report.Set("warm_admission", path_json(admission));
  report.Set("scrape_ok", scrape_ok);
  // The recorder must stay cheap on both hot paths (medians of the
  // interleaved rounds), and a live scrape must see what it recorded.
  report.AddGate("pipelined_rpc.overhead_pct", pipelined.overhead_pct,
                 GateOp::kLe, 5);
  report.AddGate("warm_admission.overhead_pct", admission.overhead_pct,
                 GateOp::kLe, 5);
  report.AddGate("scrape_ok", scrape_ok ? 1 : 0, GateOp::kEq, 1);
  report.AddGate("min_ops_per_s", min_ops_per_s, GateOp::kGt, 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
