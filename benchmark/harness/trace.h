// Tracing for the benchmark's per-layer pass. Spans are recorded from the
// benchmark's own code, around the calls it makes into each layer:
//   - every client call (one span per RPC, on the client thread),
//   - every Vfs call the NFS server makes (a Vfs wrapper handed to
//     DiscfsHost::Start, on the server's worker threads).
// Each client call runs under obs::TraceScope(obs::MintTraceId()), so the
// RPC trailer carries the id to the server, which installs it around the
// handler; the Vfs spans read it back with obs::CurrentTraceId(). Parents
// come from a thread-local span stack. Device I/O (a BlockDevice wrapper
// under Ffs::Format) issued inside a Vfs call is charged to the innermost
// open span on that thread, as a count and a time, rather than kept as
// spans of its own: a cache miss with readahead and write-back issues a
// dozen device calls, and storing each would overflow the buffers. Device
// I/O outside any Vfs call (the cache flusher, Sync) is background work:
// it is timed but not charged to a span. Spans live in preallocated
// per-thread buffers and are only read after the traced pass has
// quiesced.
#ifndef DISCFS_BENCHMARK_HARNESS_TRACE_H_
#define DISCFS_BENCHMARK_HARNESS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/blockdev/blockdev.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/vfs/vfs.h"

namespace discfs::bm {

// The client procedures the workloads issue.
enum class Op : uint8_t {
  kRead,
  kWrite,
  kLookup,
  kReadDir,
  kGetAttr,
  kSetAttr,
  kCreate,
  kMkdir,
  kGetRoot,
  kSubmitBatch,
  kRemoveCred,
  kSubmitCred,
  kCreateCred,
  kMkdirCred,
  kCount,
};
inline constexpr size_t kOpCount = static_cast<size_t>(Op::kCount);
const char* OpName(Op op);
uint32_t OpProg(Op op);
uint32_t OpProc(Op op);

// Vfs entry points, as the server's NFS layer calls them.
enum class VfsOp : uint8_t {
  kGetAttr,
  kSetAttr,
  kLookup,
  kCreate,
  kMkdir,
  kSymlink,
  kReadLink,
  kLink,
  kRemove,
  kRmdir,
  kRename,
  kRead,
  kWrite,
  kReadDir,
  kStatFs,
  kCount,
};
inline constexpr size_t kVfsOpCount = static_cast<size_t>(VfsOp::kCount);
const char* VfsOpName(VfsOp op);

// Span names: one per client Op, then one per VfsOp.
uint16_t CallSpanName(Op op);
uint16_t VfsSpanName(VfsOp op);
inline constexpr uint16_t kSpanNameCount =
    static_cast<uint16_t>(kOpCount + kVfsOpCount);
std::string SpanNameString(uint16_t name);
bool IsCallSpan(uint16_t name);
bool IsVfsSpan(uint16_t name);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t trace_id = 0;
  uint64_t device_ns = 0;  // device I/O charged to this span
  uint32_t device_ops = 0;
  int32_t parent = -1;  // index into the collected vector; -1 = root
  uint16_t name = 0;
  uint16_t thread = 0;
  uint64_t duration() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

class Tracer {
 public:
  static Tracer& Get();

  void Arm(bool on) { armed_.store(on, std::memory_order_release); }
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // Opens a span on the calling thread; returns a token for End (negative
  // when disarmed or the thread's buffer is full).
  int32_t Begin(uint16_t name);
  void End(int32_t token);
  // Records a finished root span (pipelined calls complete on the thread
  // that observes them, not inside a scope).
  void Record(uint16_t name, uint64_t start_ns, uint64_t end_ns,
              uint64_t trace_id);
  // Charges one device I/O to the calling thread's innermost open span.
  void ChargeDevice(uint64_t ns);

  // Every thread's spans, with parents rewritten as indices into the
  // returned vector. Call only while no thread is recording.
  std::vector<Span> Collect() const;
  uint64_t dropped() const;
  // Empties every buffer (between passes).
  void Clear();

 private:
  struct ThreadBuffer;
  ThreadBuffer* Local();

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

class SpanScope {
 public:
  explicit SpanScope(uint16_t name) : token_(Tracer::Get().Begin(name)) {}
  ~SpanScope() { Tracer::Get().End(token_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int32_t token_;
};

// Runs one client call. When the tracer is armed the call gets a fresh
// trace id and a client span; otherwise it is a plain call.
template <typename F>
auto TracedCall(Op op, F&& call) -> decltype(call()) {
  if (!Tracer::Get().armed()) {
    return call();
  }
  obs::TraceScope trace(obs::MintTraceId());
  SpanScope span(CallSpanName(op));
  return call();
}

// True while the calling thread is inside a Vfs call of a TimingVfs.
bool InVfsCall();

// Vfs wrapper that spans every call (see the header comment).
class TimingVfs : public Vfs {
 public:
  explicit TimingVfs(std::shared_ptr<Vfs> inner) : inner_(std::move(inner)) {}

  InodeNum root() const override { return inner_->root(); }
  Result<InodeAttr> GetAttr(InodeNum inode) override;
  Status SetAttr(InodeNum inode, const SetAttrRequest& request) override;
  Result<InodeAttr> Lookup(InodeNum dir, const std::string& name) override;
  Result<InodeAttr> Create(InodeNum dir, const std::string& name,
                           uint32_t mode) override;
  Result<InodeAttr> Mkdir(InodeNum dir, const std::string& name,
                          uint32_t mode) override;
  Result<InodeAttr> Symlink(InodeNum dir, const std::string& name,
                            const std::string& target) override;
  Result<std::string> ReadLink(InodeNum inode) override;
  Status Link(InodeNum dir, const std::string& name, InodeNum target) override;
  Status Remove(InodeNum dir, const std::string& name) override;
  Status Rmdir(InodeNum dir, const std::string& name) override;
  Status Rename(InodeNum from_dir, const std::string& from_name,
                InodeNum to_dir, const std::string& to_name) override;
  Result<size_t> Read(InodeNum inode, uint64_t offset, size_t len,
                      uint8_t* out) override;
  Result<size_t> Write(InodeNum inode, uint64_t offset, const uint8_t* data,
                       size_t len) override;
  Result<std::vector<DirEntry>> ReadDir(InodeNum dir) override;
  Result<StatFsInfo> StatFs() override;

 private:
  std::shared_ptr<Vfs> inner_;
};

// Device time split by who waited for it: foreground (inside a Vfs call,
// including the inline readahead and eviction write-backs it triggers) and
// background (the cache flusher). Counted only while the tracer is armed.
struct DeviceTimes {
  std::atomic<uint64_t> fg_ns{0};
  std::atomic<uint64_t> bg_ns{0};
};

class TimingDevice : public BlockDevice {
 public:
  explicit TimingDevice(std::shared_ptr<BlockDevice> inner)
      : inner_(std::move(inner)) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status Read(uint64_t block, uint8_t* buf) override;
  Status Write(uint64_t block, const uint8_t* buf) override;
  const BlockDeviceStats& stats() const override { return inner_->stats(); }

  const DeviceTimes& times() const { return times_; }

 private:
  Status Timed(bool write, uint64_t block, uint8_t* read_buf,
               const uint8_t* write_buf);

  std::shared_ptr<BlockDevice> inner_;
  DeviceTimes times_;
};

// What the client side of the wire did while the tracer was armed.
struct NetCounters {
  std::atomic<uint64_t> sends{0};
  std::atomic<uint64_t> send_ns{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> bytes_in{0};

  // Record sizes seen on the wire (both directions), kept for the
  // secure-channel replay.
  void NoteSize(size_t n);
  std::vector<uint32_t> sizes() const;
  void Reset();

 private:
  static constexpr size_t kMaxSizes = 4096;
  mutable std::mutex mu_;
  std::vector<uint32_t> sizes_;  // guarded by mu_
};

// MsgStream under a client's secure channel: times sends and counts bytes.
// A DisCFS client's RPC stream is blocking (a demux thread sits in Recv),
// so only the blocking face is wrapped.
class TimingStream : public MsgStream {
 public:
  TimingStream(std::unique_ptr<MsgStream> inner, NetCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Status Send(const Bytes& message) override;
  Result<Bytes> Recv() override;
  void Close() override { inner_->Close(); }
  void Shutdown() override { inner_->Shutdown(); }

 private:
  std::unique_ptr<MsgStream> inner_;
  NetCounters* counters_;
};

// Writes spans as JSON: {"names": [...], "fields": [...], "spans":
// [[name, start_ns, end_ns, parent, trace_id, thread, device_ops,
// device_ns], ...]} with times relative to the first span.
Status WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace discfs::bm

#endif  // DISCFS_BENCHMARK_HARNESS_TRACE_H_
