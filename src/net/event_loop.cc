#include "src/net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/util/strings.h"

namespace discfs {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wakeup_fd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeup_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev);
  }
  poller_ = std::thread([this] { PollLoop(); });
}

EventLoop::~EventLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  uint64_t one = 1;
  ssize_t ignored = ::write(wakeup_fd_, &one, sizeof(one));
  (void)ignored;
  if (poller_.joinable()) {
    poller_.join();
  }
  {
    // Drop (destroy) tasks and timers that never ran; their captures
    // release here.
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.clear();
    timers_.clear();
    handlers_.clear();
  }
  if (wakeup_fd_ >= 0) {
    ::close(wakeup_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

uint32_t EventLoop::EpollMask(bool want_read, bool want_write) const {
  uint32_t mask = 0;
  if (want_read) {
    mask |= EPOLLIN | EPOLLRDHUP;
  }
  if (want_write) {
    mask |= EPOLLOUT;
  }
  return mask;
}

Status EventLoop::Register(int fd, bool want_read, bool want_write,
                           Callback cb) {
  if (fd < 0) {
    return InvalidArgumentError("cannot register negative fd");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return FailedPreconditionError("event loop is stopping");
    }
    if (handlers_.count(fd) != 0) {
      return AlreadyExistsError(StrPrintf("fd %d already registered", fd));
    }
    handlers_[fd] = std::make_shared<Callback>(std::move(cb));
  }
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    handlers_.erase(fd);
    return UnavailableError(
        StrPrintf("epoll_ctl(ADD, %d) failed: %s", fd, strerror(errno)));
  }
  return OkStatus();
}

Status EventLoop::ModifyInterest(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return UnavailableError(
        StrPrintf("epoll_ctl(MOD, %d) failed: %s", fd, strerror(errno)));
  }
  return OkStatus();
}

void EventLoop::Unregister(int fd) {
  epoll_event ev{};  // ignored for DEL, but pre-2.6.9 kernels want non-null
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
  std::unique_lock<std::mutex> lock(mu_);
  handlers_.erase(fd);
  if (!InLoopThread()) {
    // An event for `fd` may already be mid-dispatch; wait it out so the
    // caller can safely destroy whatever the callback touches. From the
    // poller thread itself this cannot happen (we ARE the dispatcher).
    cv_.wait(lock, [&] { return dispatching_fd_ != fd; });
  }
}

void EventLoop::RunAfter(uint64_t delay_ms, Task task) {
  auto when = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(delay_ms);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;  // dropped; the loop is going away
    }
    timers_.emplace(when, std::move(task));
  }
  // Wake the poller so it recomputes its wait timeout against the new
  // earliest deadline.
  uint64_t one = 1;
  ssize_t ignored = ::write(wakeup_fd_, &one, sizeof(one));
  (void)ignored;
}

void EventLoop::Post(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;  // dropped; the loop is going away
    }
    tasks_.push_back(std::move(task));
  }
  uint64_t one = 1;
  ssize_t ignored = ::write(wakeup_fd_, &one, sizeof(one));
  (void)ignored;
}

bool EventLoop::InLoopThread() const {
  return std::this_thread::get_id() == poller_.get_id();
}

size_t EventLoop::registered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handlers_.size();
}

void EventLoop::RunPostedTasks() {
  std::deque<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks.swap(tasks_);
  }
  for (Task& task : tasks) {
    task();
  }
}

int EventLoop::TimerWaitMs() {
  std::lock_guard<std::mutex> lock(mu_);
  if (timers_.empty()) {
    return -1;  // block until an fd event or a wakeup
  }
  auto now = std::chrono::steady_clock::now();
  auto first = timers_.begin()->first;
  if (first <= now) {
    return 0;
  }
  // Round up so the wait never wakes a hair before the deadline and spins.
  auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
                   first - now + std::chrono::milliseconds(1))
                   .count();
  constexpr int64_t kMaxWaitMs = 60'000;
  return static_cast<int>(delta < kMaxWaitMs ? delta : kMaxWaitMs);
}

void EventLoop::RunDueTimers() {
  std::vector<Task> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto now = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.begin()->first <= now) {
      due.push_back(std::move(timers_.begin()->second));
      timers_.erase(timers_.begin());
    }
  }
  for (Task& task : due) {
    task();
  }
}

void EventLoop::PollLoop() {
  std::vector<epoll_event> events(64);
  while (true) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), TimerWaitMs());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // epoll fd gone; loop is being torn down
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
    }
    RunDueTimers();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == wakeup_fd_) {
        uint64_t drained;
        while (::read(wakeup_fd_, &drained, sizeof(drained)) > 0) {
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (stopping_) {
            return;
          }
        }
        RunPostedTasks();
        continue;
      }
      uint32_t mask = 0;
      if (ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        mask |= kReadable;
      }
      if (ev.events & EPOLLOUT) {
        mask |= kWritable;
      }
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        mask |= kError;
      }
      std::shared_ptr<Callback> cb;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = handlers_.find(ev.data.fd);
        if (it == handlers_.end()) {
          continue;  // unregistered between epoll_wait and dispatch
        }
        cb = it->second;
        dispatching_fd_ = ev.data.fd;
      }
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      (*cb)(mask);
      {
        std::lock_guard<std::mutex> lock(mu_);
        dispatching_fd_ = -1;
      }
      cv_.notify_all();
    }
  }
}

}  // namespace discfs
