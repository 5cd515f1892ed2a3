// Pipelined RPC runtime (PR 2): xid demux, out-of-order replies, worker
// pool dispatch, fail-fast teardown, and the transport plumbing that makes
// it safe (Shutdown unblocking Recv, configurable bind address).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/crypto/groups.h"
#include "src/discfs/client.h"
#include "src/discfs/host.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"
#include "src/securechannel/channel.h"
#include "src/util/prng.h"
#include "src/util/worker_pool.h"
#include "tests/loop_server.h"

namespace discfs {
namespace {

using namespace std::chrono_literals;

std::function<Bytes(size_t)> TestRand(uint64_t seed) {
  auto prng = std::make_shared<Prng>(seed);
  return [prng](size_t n) { return prng->NextBytes(n); };
}

// ----- worker pool -----

TEST(WorkerPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    WorkerPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Shutdown();  // drains the queue before joining
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPool, CountersSettleToZero) {
  WorkerPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Shutdown();
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.in_flight(), 0u);
}

TEST(WorkerPool, SubmitAfterShutdownRunsInline) {
  WorkerPool pool(2);
  pool.Shutdown();
  bool ran = false;
  pool.Submit([&ran] { ran = true; });
  EXPECT_TRUE(ran);  // executed synchronously, never dropped
}

// ----- transport teardown + bind address -----

TEST(Tcp, ShutdownUnblocksBlockedRecv) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE(conn.ok());
    (void)(*conn)->Recv();  // blocks until the client hangs up
  });
  auto client = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());

  std::promise<Status> recv_result;
  std::thread receiver([&] {
    recv_result.set_value((*client)->Recv().status());
  });
  std::this_thread::sleep_for(50ms);  // let the receiver block in recv(2)
  (*client)->Shutdown();

  auto future = recv_result.get_future();
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready)
      << "Shutdown did not unblock Recv";
  EXPECT_FALSE(future.get().ok());
  receiver.join();
  (*client)->Close();
  server.join();
}

TEST(Tcp, ListenerHonorsBindAddress) {
  // INADDR_ANY accepts loopback connections too.
  auto any = TcpListener::Listen(0, "0.0.0.0");
  ASSERT_TRUE(any.ok()) << any.status();
  std::thread server([&] {
    auto conn = (*any)->Accept();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->Send(ToBytes("hi")).ok());
  });
  auto client = TcpTransport::Connect("127.0.0.1", (*any)->port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_EQ(ToString((*client)->Recv().value()), "hi");
  server.join();

  auto bad = TcpListener::Listen(0, "not-an-address");
  EXPECT_FALSE(bad.ok());
}

// ----- pipelined RPC over one secure channel -----

struct SecurePair {
  std::unique_ptr<SecureChannel> client;
  std::unique_ptr<SecureChannel> server;
};

SecurePair MakeSecurePair() {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey client_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));
  auto transports = InProcTransport::CreatePair();
  ChannelIdentity client_id{client_key, TestRand(10)};
  ChannelIdentity server_id{server_key, TestRand(11)};
  Result<std::unique_ptr<SecureChannel>> server_result =
      UnavailableError("not run");
  std::thread server_thread([&] {
    server_result =
        SecureChannel::ServerHandshake(std::move(transports.b), server_id);
  });
  auto client_result = SecureChannel::ClientHandshake(
      std::move(transports.a), client_id, std::nullopt);
  server_thread.join();
  SecurePair pair;
  EXPECT_TRUE(client_result.ok());
  EXPECT_TRUE(server_result.ok());
  pair.client = std::move(client_result).value();
  pair.server = std::move(server_result).value();
  return pair;
}

// N concurrent CallAsyncs on one channel; handlers rendezvous (so a serial
// server would time out, proving requests really overlap) and then finish
// in REVERSE request order, so replies hit the wire out of order and only
// xid demux can match them back up.
TEST(RpcPipeline, CallAsyncDemuxesOutOfOrderReplies) {
  constexpr int kCalls = 8;
  SecurePair pair = MakeSecurePair();

  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  int turn = kCalls - 1;  // released highest-id first

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes& args, const RpcContext&)
                                -> Result<Bytes> {
    int id = args.empty() ? -1 : args[0];
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, 10s, [&] { return arrived == kCalls; })) {
      return DeadlineExceededError(
          "pipelining stalled: requests never overlapped");
    }
    if (!cv.wait_for(lock, 10s, [&] { return turn == id; })) {
      return DeadlineExceededError("release order stalled");
    }
    --turn;
    cv.notify_all();
    return Bytes{static_cast<uint8_t>(id), static_cast<uint8_t>(id * 2 + 1)};
  });

  static_assert(kCalls <= LoopServer::kWorkers, "handlers must overlap");
  LoopServer server(dispatcher, std::move(pair.server));

  RpcClient client(std::move(pair.client));
  std::vector<std::future<Result<Bytes>>> futures;
  for (int i = 0; i < kCalls; ++i) {
    futures.push_back(client.CallAsync(1, 1, Bytes{static_cast<uint8_t>(i)}));
  }
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_EQ(futures[i].wait_for(30s), std::future_status::ready) << i;
    Result<Bytes> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << i << ": " << result.status();
    // Each future resolved with ITS reply, not just any reply.
    ASSERT_EQ(result->size(), 2u);
    EXPECT_EQ((*result)[0], i);
    EXPECT_EQ((*result)[1], i * 2 + 1);
  }
  EXPECT_EQ(client.inflight(), 0u);
  client.Close();
  EXPECT_TRUE(server.WaitClosed());
}

// Concurrent blocking Calls share one connection and pipeline through it.
TEST(RpcPipeline, ConcurrentBlockingCallsShareOneConnection) {
  auto transports = InProcTransport::CreatePair();
  RpcDispatcher dispatcher;
  dispatcher.Register(1, 7, [](const Bytes& args, const RpcContext&) {
    Bytes out = args;
    std::reverse(out.begin(), out.end());
    return Result<Bytes>(out);
  });
  LoopServer server(dispatcher, std::move(transports.b));

  RpcClient client(std::move(transports.a));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Bytes payload{static_cast<uint8_t>(t), static_cast<uint8_t>(i)};
        auto result = client.Call(1, 7, payload);
        std::reverse(payload.begin(), payload.end());
        if (!result.ok() || *result != payload) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  client.Close();
  EXPECT_TRUE(server.WaitClosed());
}

// Close during an in-flight call resolves the call promptly with an error
// instead of hanging until the handler finishes.
TEST(RpcPipeline, CloseDuringInflightCallFailsFast) {
  auto transports = InProcTransport::CreatePair();

  std::mutex mu;
  std::condition_variable cv;
  bool handler_entered = false;
  bool release_handler = false;

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes&, const RpcContext&)
                                -> Result<Bytes> {
    std::unique_lock<std::mutex> lock(mu);
    handler_entered = true;
    cv.notify_all();
    cv.wait_for(lock, 10s, [&] { return release_handler; });
    return Bytes();
  });
  LoopServer server(dispatcher, std::move(transports.b));

  RpcClient client(std::move(transports.a));
  std::future<Result<Bytes>> future = client.CallAsync(1, 1, Bytes());
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return handler_entered; }));
  }
  client.Close();
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready)
      << "Close left the in-flight call hanging";
  EXPECT_FALSE(future.get().ok());
  // Calls after Close fail immediately too.
  EXPECT_FALSE(client.Call(1, 1, Bytes()).ok());

  {
    std::lock_guard<std::mutex> lock(mu);
    release_handler = true;
  }
  cv.notify_all();
  // The released handler's reply has no reader; the connection still
  // winds down on its own.
  EXPECT_TRUE(server.WaitClosed());
}

// ----- host: shared pool + connection-thread reaping -----

TEST(RpcPipeline, HostReapsConnectionsAndServesPipelined) {
  DsaPrivateKey server_key = DsaPrivateKey::Generate(Dsa512(), TestRand(1));
  DsaPrivateKey user_key = DsaPrivateKey::Generate(Dsa512(), TestRand(2));

  auto dev = std::make_shared<MemBlockDevice>(4096, 4096);
  auto fs = Ffs::Format(dev, FfsFormatOptions{512});
  ASSERT_TRUE(fs.ok());
  auto vfs = std::make_shared<FfsVfs>(std::move(fs).value());

  DiscfsServerConfig config;
  config.server_key = server_key;
  config.rand_bytes = TestRand(3);
  DiscfsHostOptions host_options;
  host_options.worker_threads = 4;
  host_options.max_inflight_per_conn = 16;
  auto host = DiscfsHost::Start(vfs, std::move(config), 0, host_options);
  ASSERT_TRUE(host.ok()) << host.status();
  EXPECT_EQ((*host)->worker_threads(), 4u);

  ChannelIdentity user_id{user_key, TestRand(4)};
  for (int round = 0; round < 3; ++round) {
    auto client = DiscfsClient::Connect("127.0.0.1", (*host)->port(), user_id,
                                        server_key.public_key());
    ASSERT_TRUE(client.ok()) << client.status();
    auto info = (*client)->ServerInfo();
    ASSERT_TRUE(info.ok()) << info.status();
    (*client)->Close();
  }

  // Served connections wind down: the loop unregisters each one when its
  // peer closes, and the pool idles at zero. A connection can finish a
  // hair before its worker task's epilogue returns to the pool, so wait
  // for all three gauges together.
  auto deadline = std::chrono::steady_clock::now() + 10s;
  while (((*host)->active_connections() != 0 || (*host)->inflight() != 0 ||
          (*host)->queue_depth() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ((*host)->active_connections(), 0u);
  EXPECT_EQ((*host)->inflight(), 0u);
  EXPECT_EQ((*host)->queue_depth(), 0u);

  // The host still accepts fresh connections after reaping.
  auto again = DiscfsClient::Connect("127.0.0.1", (*host)->port(), user_id,
                                     server_key.public_key());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE((*again)->ServerInfo().ok());
  (*again)->Close();
}

}  // namespace
}  // namespace discfs
