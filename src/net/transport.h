// Message-oriented reliable byte transports.
//
// MsgStream is the interface the RPC layer speaks: whole-message send and
// blocking receive. TcpTransport implements it directly, over TCP or, for
// in-process peers, over one end of a socketpair. SecureChannel wraps any
// transport and also implements it, so swapping "plain NFS" (CFS-NE
// baseline) for "NFS over IPsec" (DisCFS) is a one-line change in the
// stack — matching the paper's layering.
//
// Threading contract: one thread may sit in Recv while another thread calls
// Send — the RPC demux loop depends on that split. Shutdown may be called
// from any thread and reliably unblocks a Recv in progress; Close
// additionally releases resources and must not race a blocked Recv (callers
// Shutdown first, join the receiver, then Close/destroy).
//
// Event-loop integration: streams backed by a kernel fd also expose a
// non-blocking face — PollFd() for epoll registration, TryRecv() to drain
// whatever is already available, and SendNonBlocking()/FlushSend() so a
// single writer (the loop) can push output without ever parking in
// sendmsg(2). The blocking and non-blocking receive paths share one
// reassembly buffer, so a connection may handshake with blocking Recv and
// then hand the same stream to an event loop. At most one thread may use
// the receive side at a time, and at most one the non-blocking send side.
#ifndef DISCFS_SRC_NET_TRANSPORT_H_
#define DISCFS_SRC_NET_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs {

class MsgStream {
 public:
  virtual ~MsgStream() = default;

  virtual Status Send(const Bytes& message) = 0;
  // Blocks until a message arrives. Returns UNAVAILABLE once the peer has
  // closed and all buffered messages are drained.
  virtual Result<Bytes> Recv() = 0;
  virtual void Close() = 0;
  // Tears down the stream's data flow without releasing resources: any
  // blocked Recv (and subsequent calls) fail with UNAVAILABLE. Safe to call
  // concurrently with Send/Recv; defaults to Close for transports whose
  // Close already has that property.
  virtual void Shutdown() { Close(); }

  // --- non-blocking face (event-loop integration) ---
  // Kernel fd to poll for readiness, or -1 when the stream hides it (the
  // link shaper, timing wrappers, test doubles). Server connections
  // require one; an RpcClient over such a stream demuxes on a thread.
  virtual int PollFd() const { return -1; }
  // Never blocks. Returns a complete message when one can be assembled
  // from buffered + immediately-available bytes, std::nullopt when the
  // stream is merely drained (poll for readability and retry), and an
  // error once the stream is broken or the peer is gone.
  virtual Result<std::optional<Bytes>> TryRecv() {
    return UnimplementedError("TryRecv unsupported on this stream");
  }
  // Attempts to send without blocking. Returns true when the message (and
  // any previously buffered output) fully reached the kernel, false when
  // output remains buffered — poll for writability and call FlushSend().
  // The message is accepted (owned by the stream) in both non-error cases.
  // Default: blocking Send, which trivially satisfies the contract.
  virtual Result<bool> SendNonBlocking(const Bytes& message) {
    RETURN_IF_ERROR(Send(message));
    return true;
  }
  // Pushes previously buffered output toward the kernel without blocking;
  // true once nothing remains buffered.
  virtual Result<bool> FlushSend() { return true; }
};

// TCP transport with u32 length-prefixed framing.
class TcpTransport : public MsgStream {
 public:
  ~TcpTransport() override;

  // timeout_ms < 0 blocks until the kernel gives up (the classic
  // behavior); >= 0 bounds the connect itself, so callers with their own
  // retry loops (the coherence fabric's peer senders) stay responsive to
  // shutdown even when a peer is blackholed rather than refusing.
  static Result<std::unique_ptr<TcpTransport>> Connect(
      const std::string& host, uint16_t port, int timeout_ms = -1);

  Status Send(const Bytes& message) override;
  Result<Bytes> Recv() override;
  void Close() override;
  // shutdown(2) both directions but keeps the descriptor open, so a Recv
  // blocked in recv(2) returns instead of racing a close(2)/fd-reuse.
  void Shutdown() override;

  int PollFd() const override { return fd_.load(std::memory_order_acquire); }
  Result<std::optional<Bytes>> TryRecv() override;
  Result<bool> SendNonBlocking(const Bytes& message) override;
  Result<bool> FlushSend() override;

  // Takes ownership of a connected socket (used by the listener).
  explicit TcpTransport(int fd) : fd_(fd) {}

 private:
  // Appends available bytes to rbuf_; MSG_DONTWAIT when `nonblocking`.
  // Returns false on EAGAIN (nonblocking only), UNAVAILABLE on EOF/error.
  Result<bool> FillRecvBuffer(int fd, bool nonblocking);
  // Extracts one complete length-prefixed frame from rbuf_ if present.
  Result<bool> ExtractFrame(Bytes* out);

  std::atomic<int> fd_{-1};
  // Receive reassembly buffer (single receiving thread at a time).
  Bytes rbuf_;
  size_t rpos_ = 0;  // consumed prefix of rbuf_
  // Output not yet accepted by the kernel (single non-blocking sender).
  Bytes obuf_;
  size_t opos_ = 0;  // consumed prefix of obuf_
};

class TcpListener {
 public:
  ~TcpListener();

  // Binds to bind_addr:port; port 0 picks a free port (see port()). The
  // default bind address stays loopback for tests and local benches; pass
  // "0.0.0.0" (or a specific interface address) to serve remote peers.
  static Result<std::unique_ptr<TcpListener>> Listen(
      uint16_t port, const std::string& bind_addr = "127.0.0.1");

  Result<std::unique_ptr<TcpTransport>> Accept();
  uint16_t port() const { return port_; }
  // Unblocks a blocked Accept (which then returns an error) while keeping
  // the descriptor alive; any-thread-safe, like TcpTransport::Shutdown.
  void Shutdown();
  void Close();

 private:
  TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
};

// In-process transport pair: the two ends of one AF_UNIX stream
// socketpair, each a TcpTransport. In-process peers (unit tests, the
// benchmark's channel replay) get the same framing, pollable fd and
// non-blocking face as a TCP connection, so they are served by the same
// loop-driven runtime. The kernel buffers a bounded amount per direction:
// a single thread may send a few hundred KiB ahead of its own Recv, not
// an unbounded backlog.
struct InProcTransport {
  struct Pair {
    std::unique_ptr<TcpTransport> a;
    std::unique_ptr<TcpTransport> b;
  };
  // Aborts when socketpair(2) fails (descriptor exhaustion).
  static Pair CreatePair();
};

}  // namespace discfs

#endif  // DISCFS_SRC_NET_TRANSPORT_H_
