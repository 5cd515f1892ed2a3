#include "src/net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/util/strings.h"

namespace discfs {
namespace {

// Gathered send of the whole iovec, restarting on EINTR and resuming after
// partial writes. sendmsg (not writev) so MSG_NOSIGNAL suppresses SIGPIPE
// when the peer has already gone away.
Status SendAllVec(int fd, struct iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return UnavailableError(StrPrintf("send failed: %s", strerror(errno)));
    }
    size_t left = static_cast<size_t>(n);
    while (iovcnt > 0 && left >= iov[0].iov_len) {
      left -= iov[0].iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov[0].iov_base = static_cast<uint8_t*>(iov[0].iov_base) + left;
      iov[0].iov_len -= left;
    }
  }
  return OkStatus();
}

constexpr size_t kRecvChunk = 64 * 1024;

// Waits until `fd` reports `events`, restarting on EINTR against the
// remaining budget so a signal storm cannot extend the deadline. False,
// with errno set (ETIMEDOUT once the deadline passes), when it is not
// ready in time.
bool PollUntil(int fd, short events,
               std::chrono::steady_clock::time_point deadline) {
  while (true) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    int wait_ms = left.count() > 0 ? static_cast<int>(left.count()) : 0;
    pollfd pfd{fd, events, 0};
    int ready = ::poll(&pfd, 1, wait_ms);
    if (ready > 0) {
      return true;
    }
    if (ready == 0) {
      errno = ETIMEDOUT;
      return false;
    }
    if (errno != EINTR) {
      return false;
    }
  }
}

}  // namespace

// -------------------------------------------------------------------- TCP

TcpTransport::~TcpTransport() { Close(); }

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    const std::string& host, uint16_t port, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError("socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad address: " + host);
  }
  auto fail = [&](const char* what) {
    Status status = UnavailableError(StrPrintf(
        "%s %s:%u failed: %s", what, host.c_str(), port, strerror(errno)));
    ::close(fd);
    return status;
  };
  if (timeout_ms < 0) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return fail("connect to");
    }
  } else {
    // Bounded connect: non-blocking connect + poll, then restore the
    // blocking flags the rest of the transport expects.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return fail("fcntl for connect to");
    }
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      return fail("connect to");
    }
    if (rc != 0) {
      if (!PollUntil(fd, POLLOUT,
                     std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms))) {
        return fail("connect to");
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        errno = err;
        return fail("connect to");
      }
    }
    if (::fcntl(fd, F_SETFL, flags) != 0) {
      return fail("fcntl for connect to");
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpTransport>(fd);
}

Status TcpTransport::Send(const Bytes& message) {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    return UnavailableError("transport closed");
  }
  if (message.size() > kMaxFrame) {
    return InvalidArgumentError("frame too large");
  }
  uint8_t hdr[4];
  uint32_t len = static_cast<uint32_t>(message.size());
  hdr[0] = static_cast<uint8_t>(len >> 24);
  hdr[1] = static_cast<uint8_t>(len >> 16);
  hdr[2] = static_cast<uint8_t>(len >> 8);
  hdr[3] = static_cast<uint8_t>(len);
  // Header and payload go out in one gathered syscall: fewer syscalls per
  // frame and no header-only segment when Nagle is off.
  struct iovec iov[2];
  iov[0].iov_base = hdr;
  iov[0].iov_len = sizeof(hdr);
  iov[1].iov_base = const_cast<uint8_t*>(message.data());
  iov[1].iov_len = message.size();
  return SendAllVec(fd, iov, message.empty() ? 1 : 2);
}

Result<bool> TcpTransport::FillRecvBuffer(int fd, bool nonblocking) {
  // Compact once the consumed prefix dominates, so the buffer does not
  // creep upward across long-lived connections.
  if (rpos_ > 0 && (rpos_ == rbuf_.size() || rpos_ >= kRecvChunk)) {
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + rpos_);
    rpos_ = 0;
  }
  // Read into scratch and append only what arrived: growing rbuf_ first
  // would zero-initialize the whole chunk on every call (including EAGAIN
  // probes), which dominates small-message receive cost.
  uint8_t scratch[kRecvChunk];
  while (true) {
    ssize_t n = ::recv(fd, scratch, sizeof(scratch),
                       nonblocking ? MSG_DONTWAIT : 0);
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), scratch, scratch + n);
      return true;
    }
    if (n == 0) {
      return UnavailableError("peer closed connection");
    }
    if (errno == EINTR) {
      continue;
    }
    if (nonblocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return false;
    }
    return UnavailableError(StrPrintf("recv failed: %s", strerror(errno)));
  }
}

Result<bool> TcpTransport::ExtractFrame(Bytes* out) {
  size_t avail = rbuf_.size() - rpos_;
  if (avail < 4) {
    return false;
  }
  const uint8_t* hdr = rbuf_.data() + rpos_;
  uint32_t len = (static_cast<uint32_t>(hdr[0]) << 24) |
                 (static_cast<uint32_t>(hdr[1]) << 16) |
                 (static_cast<uint32_t>(hdr[2]) << 8) |
                 static_cast<uint32_t>(hdr[3]);
  if (len > max_frame_) {
    return DataLossError("oversized frame");
  }
  if (avail < 4 + static_cast<size_t>(len)) {
    return false;
  }
  out->assign(rbuf_.begin() + rpos_ + 4, rbuf_.begin() + rpos_ + 4 + len);
  rpos_ += 4 + len;
  return true;
}

Result<Bytes> TcpTransport::Recv() {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(recv_timeout_ms_);
  while (true) {
    int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) {
      return UnavailableError("transport closed");
    }
    Bytes out;
    ASSIGN_OR_RETURN(bool have, ExtractFrame(&out));
    if (have) {
      return out;
    }
    if (recv_timeout_ms_ > 0 && !PollUntil(fd, POLLIN, deadline)) {
      return errno == ETIMEDOUT
                 ? DeadlineExceededError("recv timed out")
                 : UnavailableError(StrPrintf("poll failed: %s",
                                              strerror(errno)));
    }
    ASSIGN_OR_RETURN(bool appended, FillRecvBuffer(fd, /*nonblocking=*/false));
    (void)appended;  // blocking fill always appends or errors
  }
}

Result<std::optional<Bytes>> TcpTransport::TryRecv() {
  while (true) {
    int fd = fd_.load(std::memory_order_acquire);
    if (fd < 0) {
      return UnavailableError("transport closed");
    }
    Bytes out;
    ASSIGN_OR_RETURN(bool have, ExtractFrame(&out));
    if (have) {
      return std::optional<Bytes>(std::move(out));
    }
    ASSIGN_OR_RETURN(bool progressed, FillRecvBuffer(fd, /*nonblocking=*/true));
    if (!progressed) {
      return std::optional<Bytes>();  // socket drained; poll and retry
    }
  }
}

Result<bool> TcpTransport::SendNonBlocking(const Bytes& message) {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    return UnavailableError("transport closed");
  }
  if (message.size() > kMaxFrame) {
    return InvalidArgumentError("frame too large");
  }
  uint8_t hdr[4];
  uint32_t len = static_cast<uint32_t>(message.size());
  hdr[0] = static_cast<uint8_t>(len >> 24);
  hdr[1] = static_cast<uint8_t>(len >> 16);
  hdr[2] = static_cast<uint8_t>(len >> 8);
  hdr[3] = static_cast<uint8_t>(len);
  if (opos_ == obuf_.size()) {
    // Fast path: nothing buffered — try one gathered non-blocking sendmsg
    // and only buffer the remainder the kernel did not take.
    obuf_.clear();
    opos_ = 0;
    struct iovec iov[2];
    iov[0].iov_base = hdr;
    iov[0].iov_len = sizeof(hdr);
    iov[1].iov_base = const_cast<uint8_t*>(message.data());
    iov[1].iov_len = message.size();
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = message.empty() ? 1 : 2;
    ssize_t n;
    do {
      n = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return UnavailableError(StrPrintf("send failed: %s", strerror(errno)));
    }
    size_t sent = n > 0 ? static_cast<size_t>(n) : 0;
    size_t total = sizeof(hdr) + message.size();
    if (sent == total) {
      return true;
    }
    if (sent < sizeof(hdr)) {
      obuf_.insert(obuf_.end(), hdr + sent, hdr + sizeof(hdr));
      obuf_.insert(obuf_.end(), message.begin(), message.end());
    } else {
      obuf_.insert(obuf_.end(), message.begin() + (sent - sizeof(hdr)),
                   message.end());
    }
    return false;
  }
  // Output already pending: preserve frame order by appending behind it.
  obuf_.insert(obuf_.end(), hdr, hdr + sizeof(hdr));
  obuf_.insert(obuf_.end(), message.begin(), message.end());
  return FlushSend();
}

Result<bool> TcpTransport::FlushSend() {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    return UnavailableError("transport closed");
  }
  while (opos_ < obuf_.size()) {
    ssize_t n = ::send(fd, obuf_.data() + opos_, obuf_.size() - opos_,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return false;
      }
      return UnavailableError(StrPrintf("send failed: %s", strerror(errno)));
    }
    opos_ += static_cast<size_t>(n);
  }
  obuf_.clear();
  opos_ = 0;
  return true;
}

void TcpTransport::Shutdown() {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

void TcpTransport::Close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

TcpListener::~TcpListener() { Close(); }

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(
    uint16_t port, const std::string& bind_addr) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError("socket() failed");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (bind_addr.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("bad bind address: " + bind_addr);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return UnavailableError(StrPrintf("bind failed: %s", strerror(errno)));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return UnavailableError("listen failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return UnavailableError("getsockname failed");
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

Result<std::unique_ptr<TcpTransport>> TcpListener::Accept() {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    return UnavailableError("listener closed");
  }
  int client;
  do {
    client = ::accept(fd, nullptr, nullptr);
  } while (client < 0 && errno == EINTR);
  if (client < 0) {
    return UnavailableError(StrPrintf("accept failed: %s", strerror(errno)));
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpTransport>(client);
}

void TcpListener::Shutdown() {
  int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
  }
}

void TcpListener::Close() {
  int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

// ----------------------------------------------------------------- in-proc

InProcTransport::Pair InProcTransport::CreatePair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    std::fprintf(stderr, "InProcTransport: socketpair failed: %s\n",
                 strerror(errno));
    std::abort();
  }
  Pair pair;
  pair.a = std::make_unique<TcpTransport>(fds[0]);
  pair.b = std::make_unique<TcpTransport>(fds[1]);
  return pair;
}

}  // namespace discfs
