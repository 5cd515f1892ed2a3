// Test helper: serves one stream with RpcConnection on a private EventLoop
// and WorkerPool — the runtime every host uses — so unit tests exercise
// the production server path rather than a test-only one.
#ifndef DISCFS_TESTS_LOOP_SERVER_H_
#define DISCFS_TESTS_LOOP_SERVER_H_

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "src/net/event_loop.h"
#include "src/rpc/rpc.h"
#include "src/util/worker_pool.h"

namespace discfs {

class LoopServer {
 public:
  // Enough workers for every handler a test holds at a rendezvous.
  static constexpr size_t kWorkers = 8;

  // `stream` must have a pollable fd (a TcpTransport, an InProcTransport
  // end, or a SecureChannel over one).
  LoopServer(const RpcDispatcher& dispatcher, std::unique_ptr<MsgStream> stream,
             RpcContext ctx = {})
      : pool_(kWorkers) {
    RpcConnection::Options options;
    options.loop = &loop_;
    options.pool = &pool_;
    auto conn = RpcConnection::Start(&dispatcher, std::move(stream),
                                     std::move(ctx), options);
    EXPECT_TRUE(conn.ok()) << conn.status();
    if (conn.ok()) {
      conn_ = std::move(conn).value();
    }
  }

  ~LoopServer() {
    if (conn_ != nullptr) {
      conn_->Abort();
    }
    pool_.Shutdown();  // handlers still running finish; replies are dropped
  }

  LoopServer(const LoopServer&) = delete;
  LoopServer& operator=(const LoopServer&) = delete;

  // True once the connection has wound down on its own (the peer hung up
  // and every accepted request was answered or dropped).
  bool WaitClosed(
      std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (conn_ != nullptr && !conn_->closed()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return conn_ != nullptr;
  }

 private:
  EventLoop loop_;
  WorkerPool pool_;
  std::shared_ptr<RpcConnection> conn_;
};

}  // namespace discfs

#endif  // DISCFS_TESTS_LOOP_SERVER_H_
