// Graceful overload (PR 10): policy-aware shedding (data sheds first,
// control last), deadline propagation (the server drops expired work at
// dequeue, a blocking call stops waiting at its deadline, and no client
// thread keeps time), and handshake hardening (a slowloris flood of
// half-open connections cannot pin workers and is reaped by timeout).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/blockdev/blockdev.h"
#include "src/crypto/groups.h"
#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/ffs/ffs.h"
#include "src/net/event_loop.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"
#include "src/util/prng.h"
#include "src/util/worker_pool.h"
#include "src/vfs/vfs.h"

namespace discfs {
namespace {

using namespace std::chrono_literals;

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

bool WaitFor(const std::function<bool()>& cond,
             std::chrono::milliseconds limit = 10s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(2ms);
  }
  return cond();
}

// The registry exports exactly the recorder's count, as Prometheus text
// and as JSON.
void ExpectExported(const obs::MetricsRegistry& registry,
                    const std::string& name, const std::string& labels,
                    uint64_t value) {
  const std::string text = registry.PrometheusText();
  const std::string sample = name + (labels.empty() ? "" : "{" + labels + "}") +
                             " " + std::to_string(value) + "\n";
  EXPECT_NE(text.find(sample), std::string::npos) << sample << text;
  std::string escaped;
  for (char c : labels) {
    escaped += c == '"' ? std::string("\\\"") : std::string(1, c);
  }
  const std::string json = registry.Json();
  const std::string record = "{\"name\": \"" + name + "\", \"labels\": \"" +
                             escaped + "\", \"value\": " +
                             std::to_string(value) + "}";
  EXPECT_NE(json.find(record), std::string::npos) << record << json;
}

// One connection with all three priority tiers registered on the same
// blocking handler, so the test controls pool depth exactly.
struct TieredServer {
  static constexpr uint32_t kData = 1;
  static constexpr uint32_t kNamespace = 2;
  static constexpr uint32_t kControl = 3;

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  RpcDispatcher dispatcher;
  // The one count of sheds and expiries (declared before the pool and
  // loop, so it outlives every task that records into it).
  obs::MetricsRegistry registry;
  obs::RpcRecorder recorder{&registry};
  WorkerPool pool{1};  // one worker: a single blocked handler saturates it
  EventLoop loop;

  TieredServer() {
    auto handler = [this](const Bytes& args, const RpcContext&)
        -> Result<Bytes> {
      entered.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, 10s, [this] { return release; });
      return args;
    };
    dispatcher.Register(1, kData, handler);
    dispatcher.Register(1, kNamespace, handler);
    dispatcher.Register(1, kControl, handler);
    dispatcher.SetPriority(1, kData, RpcPriority::kData);
    dispatcher.SetPriority(1, kControl, RpcPriority::kControl);
    // kNamespace stays at the default middle tier.
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
};

// Under pressure the tiers shed in strict order: data bounces at a
// quarter of the limit while namespace and control are still admitted;
// namespace bounces at half of it while control rides to the hard limit;
// control is only rejected at admission_queue_limit itself.
TEST(Overload, WatermarksShedDataFirstControlLast) {
  TieredServer server;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(transport.ok());
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  RpcConnection::Options options;
  options.loop = &server.loop;
  options.pool = &server.pool;
  options.max_inflight = 64;
  options.admission_queue_limit = 4;  // data sheds at 1, namespace at 2
  options.recorder = &server.recorder;
  auto served = RpcConnection::Start(&server.dispatcher,
                                     std::move(accepted).value(), RpcContext{},
                                     options);
  ASSERT_TRUE(served.ok()) << served.status();

  RpcClient client(std::move(transport).value());

  // Occupy the single worker, then build pool depth one request at a time.
  auto running = client.CallAsync(1, TieredServer::kControl, Bytes{0});
  ASSERT_TRUE(WaitFor([&] { return server.entered.load() == 1; }));

  auto data_ok = client.CallAsync(1, TieredServer::kData, Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return server.pool.queue_depth() == 1; }));

  // Depth 1 = the data watermark: data sheds, namespace still admitted.
  auto data_shed = client.CallAsync(1, TieredServer::kData, Bytes{2});
  ASSERT_EQ(data_shed.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(data_shed.get().status().code(), StatusCode::kResourceExhausted);

  auto ns_ok = client.CallAsync(1, TieredServer::kNamespace, Bytes{3});
  ASSERT_TRUE(WaitFor([&] { return server.pool.queue_depth() == 2; }));

  // Depth 2 = the namespace watermark: namespace sheds, control admitted.
  auto ns_shed = client.CallAsync(1, TieredServer::kNamespace, Bytes{4});
  ASSERT_EQ(ns_shed.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(ns_shed.get().status().code(), StatusCode::kResourceExhausted);

  auto control_ok1 = client.CallAsync(1, TieredServer::kControl, Bytes{5});
  ASSERT_TRUE(WaitFor([&] { return server.pool.queue_depth() == 3; }));
  auto control_ok2 = client.CallAsync(1, TieredServer::kControl, Bytes{6});
  ASSERT_TRUE(WaitFor([&] { return server.pool.queue_depth() == 4; }));

  // Depth 4 = the hard admission limit: even control is rejected now.
  auto control_shed = client.CallAsync(1, TieredServer::kControl, Bytes{7});
  ASSERT_EQ(control_shed.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(control_shed.get().status().code(),
            StatusCode::kResourceExhausted);

  // One shed per class, counted by the recorder and exported with the
  // class as a label.
  const char* kClassNames[] = {"control", "namespace", "data"};  // by class
  for (RpcPriority priority :
       {RpcPriority::kData, RpcPriority::kNamespace, RpcPriority::kControl}) {
    const size_t c = static_cast<size_t>(priority);
    EXPECT_EQ(server.recorder.shed_total(c), 1u);
    ExpectExported(server.registry, "discfs_rpc_shed_total",
                   std::string("class=\"") + kClassNames[c] + "\"", 1);
  }

  // Every admitted request completes once the worker frees up.
  server.Release();
  for (auto* future : {&running, &data_ok, &ns_ok, &control_ok1,
                       &control_ok2}) {
    ASSERT_EQ(future->wait_for(10s), std::future_status::ready);
    EXPECT_TRUE(future->get().ok());
  }
  EXPECT_EQ(server.entered.load(), 5);  // the three sheds never executed

  client.Close();
  ASSERT_TRUE(WaitFor([&] { return (*served)->closed(); }));
}

// A request whose deadline passes while it waits in the pool queue is
// answered DEADLINE_EXCEEDED at dequeue without executing the handler —
// the caller already gave up, so burning a worker would only add load
// exactly when the server has none to spare.
TEST(Overload, ExpiredRequestsDropAtDequeueWithoutExecuting) {
  TieredServer server;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(transport.ok());
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  RpcConnection::Options options;
  options.loop = &server.loop;
  options.pool = &server.pool;
  options.recorder = &server.recorder;
  auto served = RpcConnection::Start(&server.dispatcher,
                                     std::move(accepted).value(), RpcContext{},
                                     options);
  ASSERT_TRUE(served.ok()) << served.status();

  RpcClient client(std::move(transport).value());

  // Pin the worker, then queue a call with a budget that expires while it
  // waits behind the blocked handler.
  auto running = client.CallAsync(1, TieredServer::kNamespace, Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return server.entered.load() == 1; }));
  auto doomed = client.CallAsync(1, TieredServer::kNamespace, Bytes{2}, 100);
  ASSERT_TRUE(WaitFor([&] { return server.pool.queue_depth() == 1; }));
  std::this_thread::sleep_for(250ms);  // the queued budget expires

  server.Release();
  ASSERT_EQ(doomed.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(doomed.get().status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(running.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(running.get().ok());

  // The drop happened server-side, at dequeue, without dispatch.
  ASSERT_TRUE(WaitFor([&] { return server.recorder.expired_total() == 1; }));
  ExpectExported(server.registry, "discfs_rpc_expired_total", "", 1);
  EXPECT_EQ(server.entered.load(), 1);

  client.Close();
  ASSERT_TRUE(WaitFor([&] { return (*served)->closed(); }));
}

// One served connection on a TieredServer (no admission bound).
struct ServedClient {
  std::shared_ptr<RpcConnection> served;
  std::unique_ptr<RpcClient> client;  // demuxes on its own thread
};

ServedClient Serve(TieredServer& server) {
  ServedClient out;
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok());
  auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  EXPECT_TRUE(transport.ok());
  auto accepted = (*listener)->Accept();
  EXPECT_TRUE(accepted.ok());
  RpcConnection::Options options;
  options.loop = &server.loop;
  options.pool = &server.pool;
  auto served = RpcConnection::Start(&server.dispatcher,
                                     std::move(accepted).value(), RpcContext{},
                                     options);
  EXPECT_TRUE(served.ok()) << served.status();
  out.served = std::move(served).value();
  out.client = std::make_unique<RpcClient>(std::move(transport).value());
  return out;
}

// A blocking call with a deadline against a stalled server resolves
// promptly with DEADLINE_EXCEEDED instead of blocking forever. It
// withdraws its call, so the late reply is dropped as stale and the next
// call gets its own reply.
TEST(Overload, DeadlineCallFailsFastOnStalledServer) {
  TieredServer server;
  ServedClient conn = Serve(server);
  RpcClient& client = *conn.client;

  // The handler parks on the cv: without a deadline this call would block
  // until the 10s handler guard, with one it resolves at ~150ms.
  auto start = std::chrono::steady_clock::now();
  auto stalled = client.Call(1, TieredServer::kNamespace, Bytes{1}, 150);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(stalled.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 5s) << "deadline did not cut the stalled call short";
  EXPECT_EQ(client.inflight(), 0u);

  // The connection itself is still healthy: release the handler, and a
  // fresh call completes normally. The single worker answers the stalled
  // call first, so its late reply reaches the client before this one's.
  server.Release();
  auto next = client.Call(1, TieredServer::kNamespace, Bytes{3});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, Bytes{3});
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(server.entered.load(), 2);

  client.Close();
  ASSERT_TRUE(WaitFor([&] { return conn.served->closed(); }));
}

// An async call's deadline rides only in the frame: a handler that
// answers OK after the budget ran out, but was dequeued in time, leaves
// that OK in the future. No client-side timer overrides the server.
TEST(Overload, AsyncDeadlineKeepsTheServersLateAnswer) {
  TieredServer server;
  ServedClient conn = Serve(server);

  auto late = conn.client->CallAsync(1, TieredServer::kNamespace, Bytes{7}, 50);
  ASSERT_TRUE(WaitFor([&] { return server.entered.load() == 1; }));
  std::this_thread::sleep_for(150ms);  // answers 150 ms after dequeue
  server.Release();
  ASSERT_EQ(late.wait_for(10s), std::future_status::ready);
  Result<Bytes> reply = late.get();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, Bytes{7});
  EXPECT_EQ(server.recorder.expired_total(), 0u);

  conn.client->Close();
  ASSERT_TRUE(WaitFor([&] { return conn.served->closed(); }));
}

size_t ThreadCount() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

// Calls with deadlines start no thread: the client keeps no timer.
TEST(Overload, DeadlineCallsStartNoThread) {
  TieredServer server;
  server.Release();  // handlers answer at once
  ServedClient conn = Serve(server);
  ASSERT_TRUE(conn.client->Call(1, TieredServer::kNamespace, Bytes{0}).ok());

  const size_t threads = ThreadCount();
  for (uint8_t i = 0; i < 100; ++i) {
    auto reply = conn.client->Call(1, TieredServer::kNamespace, Bytes{i},
                                   /*deadline_ms=*/1000);
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, Bytes{i});
  }
  EXPECT_EQ(ThreadCount(), threads);

  conn.client->Close();
  ASSERT_TRUE(WaitFor([&] { return conn.served->closed(); }));
}

std::shared_ptr<FfsVfs> MakeVfs() {
  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  EXPECT_TRUE(fs.ok()) << fs.status();
  return std::make_shared<FfsVfs>(std::move(fs).value());
}

// The slowloris scenario: a flood of connections that never speak leaves
// every half-open handshake parked on the event loop — the worker pool
// stays idle, a legitimate client still completes its handshake, and the
// per-connection timeout reaps the flood.
TEST(Overload, SlowlorisFloodCannotPinWorkersAndIsReaped) {
  constexpr int kFlood = 64;
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey user_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));

  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(3);
  DiscfsHostOptions host_options;
  host_options.worker_threads = 2;
  host_options.handshake_timeout_ms = 400;
  auto host = DiscfsHost::Start(MakeVfs(), std::move(config), 0,
                                host_options);
  ASSERT_TRUE(host.ok()) << host.status();

  // Open the flood and keep the sockets alive, sending nothing.
  std::vector<std::unique_ptr<TcpTransport>> flood;
  for (int i = 0; i < kFlood; ++i) {
    auto conn = TcpTransport::Connect("127.0.0.1", (*host)->port());
    ASSERT_TRUE(conn.ok()) << i << ": " << conn.status();
    flood.push_back(std::move(conn).value());
  }
  ASSERT_TRUE(WaitFor([&] {
    return (*host)->handshake_stats().half_open == kFlood;
  })) << "flood connections never reached the handshake reactor";

  // Every flooded connection is half-open on the loop; no worker is
  // executing or queued on its behalf.
  EXPECT_EQ((*host)->inflight(), 0u);
  EXPECT_EQ((*host)->queue_depth(), 0u);
  EXPECT_EQ((*host)->active_connections(), 0u);

  // A legitimate client handshakes through the standing flood.
  ChannelIdentity user_id{user_key, TestRand(4)};
  auto client = DiscfsClient::Connect("127.0.0.1", (*host)->port(), user_id,
                                      server_key.public_key());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE((*client)->ServerInfo().ok());
  (*client)->Close();

  // The timeout reaps the whole flood; none of them ever completed.
  ASSERT_TRUE(WaitFor([&] {
    return (*host)->handshake_stats().half_open == 0;
  })) << "half-open handshakes were never reaped";
  HandshakeReactor::Stats stats = (*host)->handshake_stats();
  EXPECT_EQ(stats.timed_out, static_cast<uint64_t>(kFlood));
  EXPECT_EQ(stats.completed, 1u);  // the legitimate client only

  // The host still serves fresh clients after the purge.
  auto again = DiscfsClient::Connect("127.0.0.1", (*host)->port(), user_id,
                                     server_key.public_key());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE((*again)->ServerInfo().ok());
  (*again)->Close();
}

// A peer that has not authenticated cannot make the host buffer a large
// frame: one that declares more than any handshake message fails the
// handshake from its length header, long before the handshake timeout.
TEST(Overload, OversizedHandshakeFrameFailsFromItsHeader) {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(3);
  DiscfsHostOptions host_options;
  host_options.worker_threads = 2;
  host_options.handshake_timeout_ms = 30'000;  // reaping plays no part here
  auto host = DiscfsHost::Start(MakeVfs(), std::move(config), 0,
                                host_options);
  ASSERT_TRUE(host.ok()) << host.status();

  auto conn = TcpTransport::Connect("127.0.0.1", (*host)->port());
  ASSERT_TRUE(conn.ok()) << conn.status();
  ASSERT_TRUE(WaitFor([&] {
    return (*host)->handshake_stats().half_open == 1;
  }));
  const uint64_t failed = (*host)->handshake_stats().failed;

  // A 1 MiB "ClientHello", of which the first 64 KiB arrive. The host may
  // drop the connection before all of them are sent.
  constexpr uint32_t kDeclared = 1u << 20;
  Bytes partial(4 + 64 * 1024, 0x5A);
  for (size_t k = 0; k < 4; ++k) {
    partial[k] = static_cast<uint8_t>(kDeclared >> (8 * (3 - k)));
  }
  (void)::send((*conn)->PollFd(), partial.data(), partial.size(),
               MSG_NOSIGNAL);
  EXPECT_TRUE(WaitFor(
      [&] {
        HandshakeReactor::Stats stats = (*host)->handshake_stats();
        return stats.failed == failed + 1 && stats.half_open == 0;
      },
      1s))
      << "the oversized frame held its half-open handshake";
}

// At the half-open cap the oldest handshake is evicted in favor of the new
// arrival, so a flood larger than the table still cannot lock out a fresh
// legitimate client — newest wins.
TEST(Overload, HalfOpenCapEvictsOldestNotNewest) {
  constexpr size_t kCap = 4;
  constexpr int kFlood = 8;
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey user_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));

  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(3);
  DiscfsHostOptions host_options;
  host_options.worker_threads = 2;
  host_options.handshake_timeout_ms = 30'000;  // reaping plays no part here
  host_options.max_half_open_handshakes = kCap;
  auto host = DiscfsHost::Start(MakeVfs(), std::move(config), 0,
                                host_options);
  ASSERT_TRUE(host.ok()) << host.status();

  std::vector<std::unique_ptr<TcpTransport>> flood;
  for (int i = 0; i < kFlood; ++i) {
    auto conn = TcpTransport::Connect("127.0.0.1", (*host)->port());
    ASSERT_TRUE(conn.ok());
    flood.push_back(std::move(conn).value());
  }
  ASSERT_TRUE(WaitFor([&] {
    return (*host)->handshake_stats().evicted >= kFlood - kCap;
  })) << "cap never evicted the oldest half-open handshakes";
  EXPECT_LE((*host)->handshake_stats().half_open, kCap);

  // The newest arrival — the real client — evicts a squatter and lands.
  ChannelIdentity user_id{user_key, TestRand(4)};
  auto client = DiscfsClient::Connect("127.0.0.1", (*host)->port(), user_id,
                                      server_key.public_key());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE((*client)->ServerInfo().ok());
  (*client)->Close();
  EXPECT_EQ((*host)->handshake_stats().completed, 1u);
}

}  // namespace
}  // namespace discfs
