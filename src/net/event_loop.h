// Shared epoll-driven event loop (a small Reactor).
//
// One poller thread owns an epoll instance; any number of fds register a
// callback and are dispatched level-triggered readability/writability from
// that single thread. This is what lets N RPC clients share one demux
// thread and a host serve every accepted connection without a
// thread-per-connection recv loop: total runtime threads stay
// O(workers + 1 poller) instead of O(connections).
//
// Contract:
//  - Callbacks run on the poller thread and must not block (no blocking
//    reads/writes, no waiting on worker results). Hand blocking work to a
//    WorkerPool and come back via Post().
//  - Register/ModifyInterest/Unregister/Post are safe from any thread.
//  - Unregister guarantees the fd's callback is not running and will never
//    run again once it returns (it waits out an in-flight dispatch unless
//    called from the poller thread itself, where that is already true).
//  - A cross-thread wakeup (Post, Stop) goes through an eventfd, so an
//    idle poller blocked in epoll_wait reacts immediately.
#ifndef DISCFS_SRC_NET_EVENT_LOOP_H_
#define DISCFS_SRC_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/util/status.h"

namespace discfs {

class EventLoop {
 public:
  // Bitmask passed to callbacks.
  static constexpr uint32_t kReadable = 1u << 0;
  static constexpr uint32_t kWritable = 1u << 1;
  static constexpr uint32_t kError = 1u << 2;

  using Callback = std::function<void(uint32_t events)>;
  using Task = std::function<void()>;

  // Creates the epoll/eventfd pair and starts the poller thread.
  EventLoop();
  // Stops the poller, joins it, and drops any tasks still queued for Post
  // (their closures are destroyed, not run). Callers must unregister or
  // otherwise retire users of the loop first.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` level-triggered. `cb` receives kReadable/kWritable (and
  // kError on EPOLLERR/EPOLLHUP, always paired with kReadable so read paths
  // observe the failure through their normal receive call).
  Status Register(int fd, bool want_read, bool want_write, Callback cb);

  // Changes the interest set of a registered fd.
  Status ModifyInterest(int fd, bool want_read, bool want_write);

  // Removes `fd`. After this returns, the callback is not executing and
  // will never execute again. Idempotent; callable from callbacks.
  void Unregister(int fd);

  // Runs `task` on the poller thread soon (FIFO with other posted tasks).
  // Tasks posted after the loop stopped are destroyed without running.
  void Post(Task task);

  // Runs `task` on the poller thread once `delay_ms` milliseconds have
  // passed (never earlier; possibly a little later if the loop is busy
  // dispatching). Safe from any thread. There is no cancellation handle:
  // callers that may outlive the interest capture shared state and check
  // a flag when the timer fires. Timers that have not fired when the
  // loop stops are destroyed without running, like posted tasks.
  void RunAfter(uint64_t delay_ms, Task task);

  // True when called from the poller thread (i.e. from a callback/task).
  bool InLoopThread() const;

  // Registered fds, excluding the internal wakeup eventfd.
  size_t registered() const;

  // Callback dispatches since construction (observability gauge).
  uint64_t dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  void PollLoop();
  void RunPostedTasks();
  void RunDueTimers();
  // epoll_wait timeout until the earliest armed timer, in ms (-1 = none).
  int TimerWaitMs();
  uint32_t EpollMask(bool want_read, bool want_write) const;

  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  std::thread poller_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<int, std::shared_ptr<Callback>> handlers_;
  std::deque<Task> tasks_;
  // Earliest-first timer queue; fired between epoll batches.
  std::multimap<std::chrono::steady_clock::time_point, Task> timers_;
  int dispatching_fd_ = -1;  // fd whose callback is currently running
  bool stopping_ = false;
  std::atomic<uint64_t> dispatched_{0};
};

}  // namespace discfs

#endif  // DISCFS_SRC_NET_EVENT_LOOP_H_
