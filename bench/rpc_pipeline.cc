// Closed-loop pipelined RPC throughput across the full wire stack:
// TcpTransport -> SecureChannel -> RpcClient on the client, TcpListener ->
// ServerHandshake (on the worker pool) -> RpcConnection on a shared epoll
// EventLoop on the server. Both sides run the PR 3 event-driven runtime:
// one poller thread per side demuxes every connection, so the total thread
// count is O(workers + pollers + drivers) no matter how many connections a
// tier opens — which the connections sweep (64 and 256) proves by sampling
// /proc/self/status during each tier and gating on the delta.
//
// One handler (echo after a fixed simulated-I/O delay, the shape of a
// blocking NFS read) is measured at every {connections, in-flight} tier;
// with 1 in-flight the runtime degenerates to the old serial call loop, so
// the speedup column is pipelining's contribution alone.
//
// Output: human-readable table on stdout plus BENCH_rpc.json (path from
// argv[1], default ./BENCH_rpc.json; docs/BENCH_SCHEMAS.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/crypto/groups.h"
#include "src/net/event_loop.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"
#include "src/securechannel/channel.h"
#include "src/util/prng.h"
#include "src/util/worker_pool.h"

namespace discfs {
namespace {

using bench::GateOp;
using bench::Json;

constexpr uint32_t kProg = 7;
constexpr uint32_t kProcEcho = 1;
// Long enough that the blocking-I/O phase dominates the per-op CPU cost
// (crypto + syscalls), which is what pipelining can overlap; the CPU
// phase serializes on small machines regardless of in-flight depth.
constexpr auto kSimulatedIo = std::chrono::microseconds(400);

std::function<Bytes(size_t)> BenchRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Threads currently in this process (the whole bench runs in one process,
// so this covers server poller + workers + client poller + drivers).
size_t CurrentThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::atoll(line.c_str() + 8));
    }
  }
  return 0;
}

struct LatencySummary {
  double p50_us = 0;
  double p99_us = 0;
};

LatencySummary Summarize(std::vector<double> samples_us) {
  LatencySummary s;
  if (samples_us.empty()) {
    return s;
  }
  std::sort(samples_us.begin(), samples_us.end());
  s.p50_us = samples_us[samples_us.size() / 2];
  s.p99_us = samples_us[std::min(samples_us.size() - 1,
                                 samples_us.size() * 99 / 100)];
  return s;
}

// Server: accepts until the listener closes; every connection handshakes
// on the shared pool and is then served from one EventLoop, like
// DiscfsHost.
class BenchServer {
 public:
  explicit BenchServer(size_t workers, size_t max_inflight)
      : key_(DsaPrivateKey::Generate(Dsa512(), BenchRand(1))),
        pool_(workers) {
    dispatcher_.Register(kProg, kProcEcho,
                         [](const Bytes& args, const RpcContext&) {
                           std::this_thread::sleep_for(kSimulatedIo);
                           return Result<Bytes>(args);
                         });
    options_.loop = &loop_;
    options_.pool = &pool_;
    options_.max_inflight = max_inflight;
    auto listener = TcpListener::Listen(0);
    if (!listener.ok()) {
      std::fprintf(stderr, "listen failed: %s\n",
                   listener.status().ToString().c_str());
      std::abort();
    }
    listener_ = std::move(listener).value();
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~BenchServer() {
    listener_->Shutdown();
    accept_thread_.join();
    std::vector<std::shared_ptr<RpcConnection>> conns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns.swap(conns_);
    }
    for (auto& conn : conns) {
      conn->Abort();
    }
    pool_.Shutdown();
  }

  uint16_t port() const { return listener_->port(); }
  const DsaPublicKey& public_key() const { return key_.public_key(); }

 private:
  void AcceptLoop() {
    uint64_t seed = 100;
    while (true) {
      auto conn = listener_->Accept();
      if (!conn.ok()) {
        return;
      }
      auto transport = std::make_shared<std::unique_ptr<TcpTransport>>(
          std::move(conn).value());
      pool_.Submit([this, transport, seed] {
        ChannelIdentity identity{key_, BenchRand(seed)};
        auto channel = SecureChannel::ServerHandshake(std::move(*transport),
                                                      identity);
        if (!channel.ok()) {
          return;
        }
        RpcContext ctx;
        ctx.peer_key = (*channel)->peer_key();
        auto served = RpcConnection::Start(
            &dispatcher_, std::move(channel).value(), std::move(ctx),
            options_);
        if (served.ok()) {
          std::lock_guard<std::mutex> lock(mu_);
          conns_.push_back(std::move(served).value());
        }
      });
      ++seed;
    }
  }

  DsaPrivateKey key_;
  RpcDispatcher dispatcher_;
  EventLoop loop_;
  WorkerPool pool_;
  RpcConnection::Options options_;
  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<std::shared_ptr<RpcConnection>> conns_;
};

struct TierResult {
  size_t connections = 0;
  size_t inflight = 0;
  size_t ops = 0;
  double ops_per_s = 0;
  size_t threads = 0;  // peak process thread count observed mid-tier
  LatencySummary latency;
};

// One connection's closed loop: keep `inflight` CallAsyncs outstanding by
// issuing a new call as the oldest completes. Latency is issue -> resolve
// of the oldest call, which upper-bounds per-op service time.
void RunConnection(RpcClient& client, size_t inflight, size_t ops,
                   std::vector<double>& latencies_us,
                   std::atomic<bool>& failed) {
  struct Pending {
    std::future<Result<Bytes>> future;
    double issued_at;
  };
  std::deque<Pending> window;
  Bytes payload(64, 0xa5);
  size_t issued = 0, completed = 0;
  latencies_us.reserve(ops);
  while (completed < ops) {
    while (issued < ops && window.size() < inflight) {
      window.push_back({client.CallAsync(kProg, kProcEcho, payload), NowSec()});
      ++issued;
    }
    Pending oldest = std::move(window.front());
    window.pop_front();
    Result<Bytes> result = oldest.future.get();
    latencies_us.push_back((NowSec() - oldest.issued_at) * 1e6);
    if (!result.ok() || *result != payload) {
      failed.store(true);
      return;
    }
    ++completed;
  }
}

// Batch closed loop over a group of connections: one driver keeps
// `inflight` calls outstanding on each of its clients, collecting a full
// window per client per round. Used by the connections sweep so the driver
// count stays fixed (8) while connections scale — keeping the bench's own
// thread usage flat, so the /proc sample measures the runtime, not the
// harness.
void RunConnectionGroup(const std::vector<RpcClient*>& clients,
                        size_t inflight, size_t rounds,
                        std::vector<double>& latencies_us,
                        std::atomic<bool>& failed) {
  struct Pending {
    std::future<Result<Bytes>> future;
    double issued_at;
  };
  Bytes payload(64, 0xa5);
  latencies_us.reserve(clients.size() * inflight * rounds);
  std::vector<Pending> window;
  window.reserve(clients.size() * inflight);
  for (size_t round = 0; round < rounds; ++round) {
    window.clear();
    for (RpcClient* client : clients) {
      for (size_t i = 0; i < inflight; ++i) {
        window.push_back(
            {client->CallAsync(kProg, kProcEcho, payload), NowSec()});
      }
    }
    for (Pending& pending : window) {
      Result<Bytes> result = pending.future.get();
      latencies_us.push_back((NowSec() - pending.issued_at) * 1e6);
      if (!result.ok() || *result != payload) {
        failed.store(true);
        return;
      }
    }
  }
}

TierResult RunTier(BenchServer& server, const DsaPrivateKey& client_key,
                   size_t connections, size_t inflight) {
  TierResult tier;
  tier.connections = connections;
  tier.inflight = inflight;
  // Scale work with concurrency so every tier runs long enough to measure
  // without the serial tiers dominating wall-clock.
  const bool sweep = connections > 16;
  const size_t rounds = sweep ? (connections >= 256 ? 5 : 6) : 0;
  const size_t ops_per_conn =
      sweep ? rounds * inflight
            : std::min<size_t>(2000, std::max<size_t>(400, 100 * inflight));
  tier.ops = ops_per_conn * connections;

  // All clients demux on one shared poller — the client-side half of the
  // flat-thread story.
  EventLoop client_loop;
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (size_t c = 0; c < connections; ++c) {
    auto transport = TcpTransport::Connect("127.0.0.1", server.port());
    if (!transport.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   transport.status().ToString().c_str());
      std::abort();
    }
    ChannelIdentity identity{client_key, BenchRand(300 + c)};
    auto channel = SecureChannel::ClientHandshake(
        std::move(transport).value(), identity, server.public_key());
    if (!channel.ok()) {
      std::fprintf(stderr, "handshake failed: %s\n",
                   channel.status().ToString().c_str());
      std::abort();
    }
    clients.push_back(std::make_unique<RpcClient>(std::move(channel).value(),
                                                  &client_loop));
  }

  const size_t drivers = sweep ? 8 : connections;
  std::vector<std::vector<double>> latencies(drivers);
  std::atomic<bool> failed{false};
  std::atomic<bool> tier_done{false};
  double t0 = NowSec();
  std::vector<std::thread> driver_threads;
  for (size_t d = 0; d < drivers; ++d) {
    driver_threads.emplace_back([&, d] {
      if (!sweep) {
        RunConnection(*clients[d], inflight, ops_per_conn, latencies[d],
                      failed);
        return;
      }
      std::vector<RpcClient*> group;
      for (size_t c = d; c < connections; c += drivers) {
        group.push_back(clients[c].get());
      }
      RunConnectionGroup(group, inflight, rounds, latencies[d], failed);
    });
  }
  // Sample the process thread count mid-tier (a few times, keep the max)
  // from a helper so the sampling cadence never pads the measured wall
  // time of short tiers: this is the number the connections sweep gates
  // on.
  std::atomic<size_t> peak_threads{0};
  std::thread sampler([&] {
    do {
      size_t now = CurrentThreadCount();
      size_t prev = peak_threads.load();
      while (now > prev && !peak_threads.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } while (!tier_done.load());
  });
  for (std::thread& t : driver_threads) {
    t.join();
  }
  double elapsed = NowSec() - t0;
  tier_done.store(true);
  sampler.join();
  tier.threads = peak_threads.load();
  if (failed.load()) {
    std::fprintf(stderr, "tier conns=%zu inflight=%zu: call failed\n",
                 connections, inflight);
    std::abort();
  }
  for (auto& client : clients) {
    client->Close();
  }
  clients.clear();  // unregister from client_loop before it dies

  std::vector<double> all;
  for (const auto& per_driver : latencies) {
    all.insert(all.end(), per_driver.begin(), per_driver.end());
  }
  tier.ops_per_s = tier.ops / elapsed;
  tier.latency = Summarize(std::move(all));
  return tier;
}

Json TierJson(const TierResult& r) {
  Json tier = Json::Object();
  tier.Set("connections", r.connections);
  tier.Set("inflight", r.inflight);
  tier.Set("ops", r.ops);
  tier.Set("ops_per_s", r.ops_per_s);
  tier.Set("p50_us", r.latency.p50_us);
  tier.Set("p99_us", r.latency.p99_us);
  tier.Set("threads", r.threads);
  return tier;
}

int Run(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_rpc.json";

  // Workers spend most of each request blocked in (simulated) I/O, so the
  // pool is sized for overlap, not for cores — same reasoning as any
  // blocking-file-server thread pool.
  const size_t workers = 16;
  BenchServer server(workers, /*max_inflight=*/64);
  // One client identity shared by every connection: the sweep measures the
  // runtime, not 256 key generations.
  DsaPrivateKey client_key = DsaPrivateKey::Generate(Dsa512(), BenchRand(200));

  std::printf("== RPC pipelining: closed-loop throughput (handler = echo "
              "after %lldus simulated I/O, %zu workers, event-loop "
              "runtime) ==\n",
              static_cast<long long>(kSimulatedIo.count()), workers);
  std::printf("%-6s %-9s %10s %12s %10s %10s %8s\n", "conns", "inflight",
              "ops", "ops/s", "p50 us", "p99 us", "threads");

  struct TierSpec {
    size_t connections;
    size_t inflight;
  };
  // The {1,4,16} x {1,8,64} grid matches PR 2 for comparability; the 64-
  // and 256-connection tiers are the PR 3 sweep proving thread flatness.
  const std::vector<TierSpec> specs = {
      {1, 1},  {1, 8},  {1, 64},  {4, 1},  {4, 8},  {4, 64},
      {16, 1}, {16, 8}, {16, 64}, {64, 16}, {256, 8},
  };

  Json tiers = Json::Array();
  double serial_1conn = 0, pipelined_1conn = 0;
  double min_ops_per_s = std::numeric_limits<double>::infinity();
  size_t threads_64 = 0, threads_256 = 0;
  size_t min_threads = std::numeric_limits<size_t>::max();
  for (const TierSpec& spec : specs) {
    TierResult tier = RunTier(server, client_key, spec.connections,
                              spec.inflight);
    std::printf("%-6zu %-9zu %10zu %12.0f %10.1f %10.1f %8zu\n",
                tier.connections, tier.inflight, tier.ops, tier.ops_per_s,
                tier.latency.p50_us, tier.latency.p99_us, tier.threads);
    std::fflush(stdout);
    if (spec.connections == 1 && spec.inflight == 1) {
      serial_1conn = tier.ops_per_s;
    }
    if (spec.connections == 1 && spec.inflight == 64) {
      pipelined_1conn = tier.ops_per_s;
    }
    if (spec.connections == 64) {
      threads_64 = tier.threads;
    }
    if (spec.connections == 256) {
      threads_256 = tier.threads;
    }
    min_ops_per_s = bench::GateMin(min_ops_per_s, tier.ops_per_s);
    min_threads = std::min(min_threads, tier.threads);
    tiers.Push(TierJson(tier));
  }

  double speedup = serial_1conn > 0 ? pipelined_1conn / serial_1conn : 0;
  long thread_delta = static_cast<long>(threads_256) -
                      static_cast<long>(threads_64);
  std::printf("pipelining speedup (1 conn, 64 in-flight vs 1): %.1fx\n",
              speedup);
  std::printf("threads at 64 conns: %zu, at 256 conns: %zu (delta %ld; "
              "192 extra connections, both sides)\n",
              threads_64, threads_256, thread_delta);

  bench::Report report("rpc_pipeline");
  report.Set("handler_simulated_io_us", kSimulatedIo.count());
  report.Set("pipeline_speedup_1conn", speedup);
  report.Set("thread_delta_64_to_256", thread_delta);
  report.Set("results", std::move(tiers));
  // Pipelining must pull its weight, and 192 additional connections must
  // not add threads (a handful of slack covers transient reap/spawn
  // noise): the event-loop runtime's core promise.
  report.AddGate("pipeline_speedup_1conn", speedup, GateOp::kGe, 3);
  report.AddGate("thread_delta_64_to_256", thread_delta, GateOp::kLe, 8);
  report.AddGate("min_ops_per_s", min_ops_per_s, GateOp::kGt, 0);
  report.AddGate("min_threads", min_threads, GateOp::kGt, 0);
  return report.Write(out_path);
}

}  // namespace
}  // namespace discfs

int main(int argc, char** argv) { return discfs::Run(argc, argv); }
