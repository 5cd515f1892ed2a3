// Event-loop runtime (PR 3): reactor readiness dispatch, eventfd wakeup,
// unregister-during-dispatch safety, loop-demuxed RPC clients, bounded
// per-connection send queues (backpressure), and the global admission
// bound. The RpcConnection tests drive a real TCP socket because the
// event-driven server path requires a pollable fd.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/transport.h"
#include "src/rpc/rpc.h"
#include "src/util/worker_pool.h"
#include "src/wire/xdr.h"

namespace discfs {
namespace {

using namespace std::chrono_literals;

bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds timeout = 5s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ----- reactor -----

TEST(EventLoop, ReadinessCallbackFires) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop;

  std::atomic<int> fired{0};
  Bytes seen;
  std::mutex mu;
  ASSERT_TRUE(loop.Register(fds[0], /*want_read=*/true, /*want_write=*/false,
                            [&](uint32_t events) {
                              EXPECT_TRUE(events & EventLoop::kReadable);
                              uint8_t buf[16];
                              ssize_t n = ::read(fds[0], buf, sizeof(buf));
                              std::lock_guard<std::mutex> lock(mu);
                              if (n > 0) {
                                seen.insert(seen.end(), buf, buf + n);
                              }
                              fired.fetch_add(1);
                            })
                  .ok());
  EXPECT_EQ(loop.registered(), 1u);

  ASSERT_EQ(::write(fds[1], "hi", 2), 2);
  ASSERT_TRUE(WaitFor([&] { return fired.load() >= 1; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(ToString(seen), "hi");
  }

  loop.Unregister(fds[0]);
  EXPECT_EQ(loop.registered(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, PostWakesIdlePoller) {
  EventLoop loop;
  // Let the poller reach its idle epoll_wait; the eventfd wakeup must get
  // it back out without any fd activity.
  std::this_thread::sleep_for(20ms);
  std::promise<std::thread::id> ran;
  auto future = ran.get_future();
  loop.Post([&] { ran.set_value(std::this_thread::get_id()); });
  ASSERT_EQ(future.wait_for(2s), std::future_status::ready)
      << "eventfd wakeup did not unblock the idle poller";
  EXPECT_NE(future.get(), std::this_thread::get_id());  // ran on the loop
}

TEST(EventLoop, PostedTasksRunInOrder) {
  EventLoop loop;
  std::vector<int> order;
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 8; ++i) {
    loop.Post([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return order.size() == 8u; }));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventLoop, UnregisterWaitsOutInFlightDispatch) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop;

  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  ASSERT_TRUE(loop.Register(fds[0], true, false,
                            [&](uint32_t) {
                              uint8_t buf[8];
                              (void)::read(fds[0], buf, sizeof(buf));
                              entered.store(true);
                              std::this_thread::sleep_for(100ms);
                              finished.store(true);
                            })
                  .ok());
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_TRUE(WaitFor([&] { return entered.load(); }));

  // The callback is mid-flight; Unregister must not return until it is
  // done, so the caller can free whatever the callback touches.
  loop.Unregister(fds[0]);
  EXPECT_TRUE(finished.load());

  // And it never runs again, even with fresh readiness.
  entered.store(false);
  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(entered.load());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, CallbackMayUnregisterItself) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EventLoop loop;

  std::atomic<int> fired{0};
  ASSERT_TRUE(loop.Register(fds[0], true, false,
                            [&](uint32_t) {
                              uint8_t buf[8];
                              (void)::read(fds[0], buf, sizeof(buf));
                              fired.fetch_add(1);
                              loop.Unregister(fds[0]);  // from the loop thread
                            })
                  .ok());
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  ASSERT_TRUE(WaitFor([&] { return fired.load() == 1; }));
  EXPECT_EQ(loop.registered(), 0u);

  ASSERT_EQ(::write(fds[1], "y", 1), 1);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(fired.load(), 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ----- RPC clients sharing one loop -----

TEST(EventLoopRpc, ManyClientsShareOnePollerThread) {
  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [](const Bytes& args, const RpcContext&) {
    Bytes out = args;
    out.push_back(0x5a);
    return Result<Bytes>(out);
  });
  WorkerPool pool(2);
  EventLoop server_loop;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  RpcConnection::Options server_options;
  server_options.loop = &server_loop;
  server_options.pool = &pool;
  std::vector<std::shared_ptr<RpcConnection>> server_conns;
  std::thread acceptor([&] {
    while (true) {
      auto conn = (*listener)->Accept();
      if (!conn.ok()) {
        return;
      }
      auto served = RpcConnection::Start(&dispatcher, std::move(conn).value(),
                                         RpcContext{}, server_options);
      ASSERT_TRUE(served.ok()) << served.status();
      server_conns.push_back(std::move(served).value());
    }
  });

  constexpr int kClients = 8;
  EventLoop client_loop;
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
    ASSERT_TRUE(transport.ok()) << transport.status();
    clients.push_back(std::make_unique<RpcClient>(
        std::move(transport).value(), &client_loop));
  }
  // All clients demux on the shared poller: issue interleaved async calls
  // and check every future resolves with its own payload.
  std::vector<std::future<Result<Bytes>>> futures;
  for (int round = 0; round < 10; ++round) {
    for (int c = 0; c < kClients; ++c) {
      futures.push_back(clients[c]->CallAsync(
          1, 1, Bytes{static_cast<uint8_t>(c), static_cast<uint8_t>(round)}));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(30s), std::future_status::ready) << i;
    Result<Bytes> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->size(), 3u);
    EXPECT_EQ((*result)[0], static_cast<uint8_t>((i % kClients)));
    EXPECT_EQ((*result)[2], 0x5a);
  }

  for (auto& client : clients) {
    client->Close();
  }
  clients.clear();  // unregisters from client_loop before it dies
  (*listener)->Shutdown();
  acceptor.join();
  ASSERT_TRUE(WaitFor([&] {
    for (const auto& conn : server_conns) {
      if (!conn->closed()) {
        return false;
      }
    }
    return true;
  })) << "server connections did not wind down after client close";
}

// ----- send-queue backpressure -----

// Raw frame helpers: drive the server with a hand-rolled client so the
// test controls exactly when replies are read off the socket.
Bytes EncodeCallFrame(uint32_t xid, uint32_t prog, uint32_t proc,
                      const Bytes& args) {
  XdrWriter w;
  w.PutU32(xid);
  w.PutU32(0);  // type = call
  w.PutU32(prog);
  w.PutU32(proc);
  w.PutOpaque(args);
  return w.Take();
}

struct DecodedReply {
  uint32_t xid = 0;
  uint32_t status_code = 0;
  Bytes body;
};

DecodedReply DecodeReplyFrame(const Bytes& frame) {
  XdrReader r(frame);
  DecodedReply reply;
  reply.xid = r.GetU32().value_or(0);
  (void)r.GetU32();  // type
  reply.status_code = r.GetU32().value_or(1);
  reply.body = r.GetOpaque().value_or(Bytes());
  return reply;
}

TEST(EventLoopRpc, SendQueueOverflowAppliesBackpressure) {
  constexpr size_t kQueueLimit = 2;
  constexpr int kRequests = 16;
  // Big enough that a handful of replies overflow the kernel socket
  // buffers, forcing partial non-blocking writes and a full send queue.
  constexpr size_t kReplySize = 256 * 1024;

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes& args, const RpcContext&) {
    Bytes out(kReplySize, args.empty() ? 0 : args[0]);
    return Result<Bytes>(out);
  });
  WorkerPool pool(4);
  EventLoop loop;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  auto client = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  RpcConnection::Options options;
  options.loop = &loop;
  options.pool = &pool;
  options.max_inflight = kRequests;  // backpressure comes from the queue
  options.send_queue_limit = kQueueLimit;
  auto served = RpcConnection::Start(&dispatcher, std::move(accepted).value(),
                                     RpcContext{}, options);
  ASSERT_TRUE(served.ok()) << served.status();

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE((*client)
                    ->Send(EncodeCallFrame(100 + i, 1, 1,
                                           Bytes{static_cast<uint8_t>(i)}))
                    .ok());
  }
  // Let the server chew while the client refuses to read: replies must
  // pile into the bounded queue and block workers, never grow past the
  // limit.
  std::this_thread::sleep_for(300ms);

  std::vector<bool> got(kRequests, false);
  for (int i = 0; i < kRequests; ++i) {
    auto frame = (*client)->Recv();
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status();
    DecodedReply reply = DecodeReplyFrame(*frame);
    ASSERT_EQ(reply.status_code, 0u) << ToString(reply.body);
    ASSERT_GE(reply.xid, 100u);
    ASSERT_LT(reply.xid, 100u + kRequests);
    EXPECT_FALSE(got[reply.xid - 100]) << "duplicate reply";
    got[reply.xid - 100] = true;
    ASSERT_EQ(reply.body.size(), kReplySize);
    EXPECT_EQ(reply.body[0], static_cast<uint8_t>(reply.xid - 100));
  }
  EXPECT_LE((*served)->send_queue_peak(), kQueueLimit)
      << "send queue grew past its bound";

  (*client)->Close();
  ASSERT_TRUE(WaitFor([&] { return (*served)->closed(); }));
}

// ----- global admission bound -----

TEST(EventLoopRpc, AdmissionBoundBusyRejectsWhenPoolSaturated) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes& args, const RpcContext&)
                                -> Result<Bytes> {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, 10s, [&] { return release; });
    return args;
  });
  // Counts the busy rejects; outlives the pool and loop that use it.
  obs::MetricsRegistry registry;
  obs::RpcRecorder recorder(&registry);
  WorkerPool pool(1);  // one worker: a single blocked handler saturates it
  EventLoop loop;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  auto transport = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(transport.ok());
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  RpcConnection::Options options;
  options.loop = &loop;
  options.pool = &pool;
  options.max_inflight = 64;
  options.admission_queue_limit = 1;
  options.recorder = &recorder;
  auto served = RpcConnection::Start(&dispatcher, std::move(accepted).value(),
                                     RpcContext{}, options);
  ASSERT_TRUE(served.ok()) << served.status();

  RpcClient client(std::move(transport).value());

  // First request occupies the worker...
  auto first = client.CallAsync(1, 1, Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));
  // ...second sits in the pool queue (depth 1 = at the admission limit)...
  auto second = client.CallAsync(1, 1, Bytes{2});
  ASSERT_TRUE(WaitFor([&] { return pool.queue_depth() == 1; }));
  // ...so every further request must bounce with RESOURCE_EXHAUSTED
  // without ever reaching the pool.
  std::vector<std::future<Result<Bytes>>> rejected;
  for (int i = 0; i < 4; ++i) {
    rejected.push_back(client.CallAsync(1, 1, Bytes{3}));
  }
  for (auto& future : rejected) {
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    Result<Bytes> result = future.get();
    ASSERT_FALSE(result.ok()) << "admission bound admitted a 7th request";
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  // A proc with no priority set is in the namespace class.
  EXPECT_EQ(recorder.shed_total(static_cast<size_t>(RpcPriority::kNamespace)),
            4u);
  EXPECT_EQ(entered.load(), 1);  // rejects never touched the pool

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The admitted requests complete normally once the pool frees up.
  ASSERT_EQ(first.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(first.get().ok());
  ASSERT_EQ(second.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(second.get().ok());

  client.Close();
  ASSERT_TRUE(WaitFor([&] { return (*served)->closed(); }));
}

// A busy-reject storm must not grow the send queue without bound: once
// the queue hits its limit, reads pause, and the drain restarts them as
// it frees space — so a hostile flooder costs bounded memory.
TEST(EventLoopRpc, BusyRejectStormIsBounded) {
  constexpr size_t kQueueLimit = 4;
  constexpr int kFlood = 198;

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes& args, const RpcContext&)
                                -> Result<Bytes> {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, 10s, [&] { return release; });
    return args;
  });
  WorkerPool pool(1);
  EventLoop loop;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  auto client = TcpTransport::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  RpcConnection::Options options;
  options.loop = &loop;
  options.pool = &pool;
  options.max_inflight = 64;
  options.send_queue_limit = kQueueLimit;
  options.admission_queue_limit = 1;
  auto served = RpcConnection::Start(&dispatcher, std::move(accepted).value(),
                                     RpcContext{}, options);
  ASSERT_TRUE(served.ok()) << served.status();

  // Saturate the pool deterministically, then flood without reading.
  ASSERT_TRUE((*client)->Send(EncodeCallFrame(1, 1, 1, Bytes{1})).ok());
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 1; }));
  ASSERT_TRUE((*client)->Send(EncodeCallFrame(2, 1, 1, Bytes{2})).ok());
  ASSERT_TRUE(WaitFor([&] { return pool.queue_depth() == 1; }));
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(
        (*client)->Send(EncodeCallFrame(100 + i, 1, 1, Bytes{3})).ok());
  }
  std::this_thread::sleep_for(200ms);
  EXPECT_LE((*served)->send_queue_peak(), kQueueLimit)
      << "reject storm grew the send queue past its bound";

  // Reading drains the queue; the drain restarts paused reads, so every
  // flooded request eventually gets its busy reply.
  int busy = 0;
  for (int i = 0; i < kFlood; ++i) {
    auto frame = (*client)->Recv();
    ASSERT_TRUE(frame.ok()) << i << ": " << frame.status();
    DecodedReply reply = DecodeReplyFrame(*frame);
    if (reply.status_code ==
        static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
      ++busy;
    }
  }
  EXPECT_EQ(busy, kFlood);
  EXPECT_EQ(entered.load(), 1);  // the flood never reached the pool

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The two admitted requests complete.
  for (int i = 0; i < 2; ++i) {
    auto frame = (*client)->Recv();
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(DecodeReplyFrame(*frame).status_code, 0u);
  }
  (*client)->Close();
  ASSERT_TRUE(WaitFor([&] { return (*served)->closed(); }));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
         ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

// EPOLLHUP/EPOLLERR are delivered even with a zero interest mask. A
// connection whose reads are paused (in-flight cap) must consume a peer
// RST by tearing the socket down — not spin the shared poller until the
// blocked handlers finish.
TEST(EventLoopRpc, PeerResetWhilePausedDoesNotSpinPoller) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};

  RpcDispatcher dispatcher;
  dispatcher.Register(1, 1, [&](const Bytes& args, const RpcContext&)
                                -> Result<Bytes> {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, 10s, [&] { return release; });
    return args;
  });
  WorkerPool pool(2);
  EventLoop loop;
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  // Raw client socket so the test can force an RST (SO_LINGER 0 + close).
  int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(cfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*listener)->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto accepted = (*listener)->Accept();
  ASSERT_TRUE(accepted.ok());

  RpcConnection::Options options;
  options.loop = &loop;
  options.pool = &pool;
  options.max_inflight = 2;  // both requests in flight => reads pause
  auto served = RpcConnection::Start(&dispatcher, std::move(accepted).value(),
                                     RpcContext{}, options);
  ASSERT_TRUE(served.ok()) << served.status();

  auto send_frame = [&](const Bytes& frame) {
    uint8_t hdr[4] = {static_cast<uint8_t>(frame.size() >> 24),
                      static_cast<uint8_t>(frame.size() >> 16),
                      static_cast<uint8_t>(frame.size() >> 8),
                      static_cast<uint8_t>(frame.size())};
    ASSERT_EQ(::send(cfd, hdr, 4, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(cfd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  };
  send_frame(EncodeCallFrame(1, 1, 1, Bytes{1}));
  send_frame(EncodeCallFrame(2, 1, 1, Bytes{2}));
  ASSERT_TRUE(WaitFor([&] { return entered.load() == 2; }));

  // Hard reset: both handlers are still parked, reads are paused.
  linger hard{1, 0};
  ASSERT_EQ(::setsockopt(cfd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard)), 0);
  ::close(cfd);

  // A spinning poller would burn ~0.4s of CPU here; a quiesced one burns
  // almost nothing (the handlers sleep on a condvar).
  std::this_thread::sleep_for(50ms);  // let the RST arrive
  double cpu0 = ProcessCpuSeconds();
  std::this_thread::sleep_for(400ms);
  double cpu_burned = ProcessCpuSeconds() - cpu0;
  EXPECT_LT(cpu_burned, 0.2)
      << "poller spun on an unconsumed EPOLLHUP for a paused connection";

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(WaitFor([&] { return (*served)->closed(); }));
  // The loop is still responsive afterwards.
  std::promise<void> alive;
  loop.Post([&] { alive.set_value(); });
  ASSERT_EQ(alive.get_future().wait_for(2s), std::future_status::ready);
}

}  // namespace
}  // namespace discfs
