#include "benchmark/harness/trace.h"

#include <algorithm>
#include <cstdio>

#include "benchmark/harness/common.h"
#include "src/discfs/protocol.h"
#include "src/nfs/protocol.h"

namespace discfs::bm {
namespace {

struct OpInfo {
  const char* name;
  uint32_t prog;
  uint32_t proc;
};

constexpr OpInfo kOps[kOpCount] = {
    {"read", kNfsProgram, static_cast<uint32_t>(NfsProc::kRead)},
    {"write", kNfsProgram, static_cast<uint32_t>(NfsProc::kWrite)},
    {"lookup", kNfsProgram, static_cast<uint32_t>(NfsProc::kLookup)},
    {"readdir", kNfsProgram, static_cast<uint32_t>(NfsProc::kReadDir)},
    {"getattr", kNfsProgram, static_cast<uint32_t>(NfsProc::kGetAttr)},
    {"setattr", kNfsProgram, static_cast<uint32_t>(NfsProc::kSetAttr)},
    {"create", kNfsProgram, static_cast<uint32_t>(NfsProc::kCreate)},
    {"mkdir", kNfsProgram, static_cast<uint32_t>(NfsProc::kMkdir)},
    {"getroot", kNfsProgram, static_cast<uint32_t>(NfsProc::kGetRoot)},
    {"submit_batch", kDiscfsProgram,
     static_cast<uint32_t>(DiscfsProc::kSubmitCredentialBatch)},
    {"remove_cred", kDiscfsProgram,
     static_cast<uint32_t>(DiscfsProc::kRemoveCredential)},
    {"submit_cred", kDiscfsProgram,
     static_cast<uint32_t>(DiscfsProc::kSubmitCredential)},
    {"create_cred", kDiscfsProgram,
     static_cast<uint32_t>(DiscfsProc::kCreateReturnsCred)},
    {"mkdir_cred", kDiscfsProgram,
     static_cast<uint32_t>(DiscfsProc::kMkdirReturnsCred)},
};

constexpr const char* kVfsOpNames[kVfsOpCount] = {
    "getattr", "setattr", "lookup", "create",  "mkdir",
    "symlink", "readlink", "link",  "remove",  "rmdir",
    "rename",  "read",    "write",  "readdir", "statfs"};

// Spans kept per thread; a thread that fills its buffer drops the rest
// (counted in Tracer::dropped()).
constexpr size_t kSpansPerThread = 1 << 17;

thread_local int t_vfs_depth = 0;

class VfsScope {
 public:
  explicit VfsScope(VfsOp op) : span_(VfsSpanName(op)) { ++t_vfs_depth; }
  ~VfsScope() { --t_vfs_depth; }
  VfsScope(const VfsScope&) = delete;
  VfsScope& operator=(const VfsScope&) = delete;

 private:
  SpanScope span_;
};

}  // namespace

const char* OpName(Op op) { return kOps[static_cast<size_t>(op)].name; }
uint32_t OpProg(Op op) { return kOps[static_cast<size_t>(op)].prog; }
uint32_t OpProc(Op op) { return kOps[static_cast<size_t>(op)].proc; }

const char* VfsOpName(VfsOp op) {
  return kVfsOpNames[static_cast<size_t>(op)];
}

uint16_t CallSpanName(Op op) { return static_cast<uint16_t>(op); }
uint16_t VfsSpanName(VfsOp op) {
  return static_cast<uint16_t>(kOpCount + static_cast<size_t>(op));
}
bool IsCallSpan(uint16_t name) { return name < kOpCount; }
bool IsVfsSpan(uint16_t name) {
  return name >= kOpCount && name < kSpanNameCount;
}

std::string SpanNameString(uint16_t name) {
  if (IsCallSpan(name)) {
    return std::string("call.") + OpName(static_cast<Op>(name));
  }
  return std::string("vfs.") + VfsOpName(static_cast<VfsOp>(name - kOpCount));
}

struct Tracer::ThreadBuffer {
  std::mutex mu;
  std::vector<Span> spans;     // guarded by mu; parent = local index
  std::vector<int32_t> stack;  // guarded by mu; open spans
  uint16_t id = 0;
  uint64_t dropped = 0;  // guarded by mu
};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
                                         // outlive static destruction
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  static thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(kSpansPerThread);
    std::lock_guard<std::mutex> lock(mu_);
    buffer->id = static_cast<uint16_t>(buffers_.size());
    local = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return local;
}

int32_t Tracer::Begin(uint16_t name) {
  if (!armed()) {
    return -1;
  }
  ThreadBuffer* buf = Local();
  uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->spans.size() >= kSpansPerThread) {
    ++buf->dropped;
    return -1;
  }
  Span span;
  span.start_ns = now;
  span.trace_id = obs::CurrentTraceId();
  span.parent = buf->stack.empty() ? -1 : buf->stack.back();
  span.name = name;
  span.thread = buf->id;
  int32_t index = static_cast<int32_t>(buf->spans.size());
  buf->spans.push_back(span);
  buf->stack.push_back(index);
  return index;
}

void Tracer::End(int32_t token) {
  if (token < 0) {
    return;
  }
  ThreadBuffer* buf = Local();
  uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(buf->mu);
  if (static_cast<size_t>(token) < buf->spans.size()) {
    buf->spans[token].end_ns = now;
  }
  if (!buf->stack.empty()) {
    buf->stack.pop_back();
  }
}

void Tracer::Record(uint16_t name, uint64_t start_ns, uint64_t end_ns,
                    uint64_t trace_id) {
  if (!armed()) {
    return;
  }
  ThreadBuffer* buf = Local();
  std::lock_guard<std::mutex> lock(buf->mu);
  if (buf->spans.size() >= kSpansPerThread) {
    ++buf->dropped;
    return;
  }
  Span span;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.trace_id = trace_id;
  span.name = name;
  span.thread = buf->id;
  buf->spans.push_back(span);
}

void Tracer::ChargeDevice(uint64_t ns) {
  ThreadBuffer* buf = Local();
  std::lock_guard<std::mutex> lock(buf->mu);
  if (!buf->stack.empty()) {
    Span& span = buf->spans[buf->stack.back()];
    span.device_ns += ns;
    span.device_ops++;
  }
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    int32_t offset = static_cast<int32_t>(out.size());
    for (Span span : buf->spans) {
      if (span.parent >= 0) {
        span.parent += offset;
      }
      out.push_back(span);
    }
  }
  return out;
}

uint64_t Tracer::dropped() const {
  uint64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->spans.clear();
    buf->stack.clear();
    buf->dropped = 0;
  }
}

bool InVfsCall() { return t_vfs_depth > 0; }

Result<InodeAttr> TimingVfs::GetAttr(InodeNum inode) {
  VfsScope scope(VfsOp::kGetAttr);
  return inner_->GetAttr(inode);
}

Status TimingVfs::SetAttr(InodeNum inode, const SetAttrRequest& request) {
  VfsScope scope(VfsOp::kSetAttr);
  return inner_->SetAttr(inode, request);
}

Result<InodeAttr> TimingVfs::Lookup(InodeNum dir, const std::string& name) {
  VfsScope scope(VfsOp::kLookup);
  return inner_->Lookup(dir, name);
}

Result<InodeAttr> TimingVfs::Create(InodeNum dir, const std::string& name,
                                    uint32_t mode) {
  VfsScope scope(VfsOp::kCreate);
  return inner_->Create(dir, name, mode);
}

Result<InodeAttr> TimingVfs::Mkdir(InodeNum dir, const std::string& name,
                                   uint32_t mode) {
  VfsScope scope(VfsOp::kMkdir);
  return inner_->Mkdir(dir, name, mode);
}

Result<InodeAttr> TimingVfs::Symlink(InodeNum dir, const std::string& name,
                                     const std::string& target) {
  VfsScope scope(VfsOp::kSymlink);
  return inner_->Symlink(dir, name, target);
}

Result<std::string> TimingVfs::ReadLink(InodeNum inode) {
  VfsScope scope(VfsOp::kReadLink);
  return inner_->ReadLink(inode);
}

Status TimingVfs::Link(InodeNum dir, const std::string& name,
                       InodeNum target) {
  VfsScope scope(VfsOp::kLink);
  return inner_->Link(dir, name, target);
}

Status TimingVfs::Remove(InodeNum dir, const std::string& name) {
  VfsScope scope(VfsOp::kRemove);
  return inner_->Remove(dir, name);
}

Status TimingVfs::Rmdir(InodeNum dir, const std::string& name) {
  VfsScope scope(VfsOp::kRmdir);
  return inner_->Rmdir(dir, name);
}

Status TimingVfs::Rename(InodeNum from_dir, const std::string& from_name,
                         InodeNum to_dir, const std::string& to_name) {
  VfsScope scope(VfsOp::kRename);
  return inner_->Rename(from_dir, from_name, to_dir, to_name);
}

Result<size_t> TimingVfs::Read(InodeNum inode, uint64_t offset, size_t len,
                               uint8_t* out) {
  VfsScope scope(VfsOp::kRead);
  return inner_->Read(inode, offset, len, out);
}

Result<size_t> TimingVfs::Write(InodeNum inode, uint64_t offset,
                                const uint8_t* data, size_t len) {
  VfsScope scope(VfsOp::kWrite);
  return inner_->Write(inode, offset, data, len);
}

Result<std::vector<DirEntry>> TimingVfs::ReadDir(InodeNum dir) {
  VfsScope scope(VfsOp::kReadDir);
  return inner_->ReadDir(dir);
}

Result<StatFsInfo> TimingVfs::StatFs() {
  VfsScope scope(VfsOp::kStatFs);
  return inner_->StatFs();
}

Status TimingDevice::Read(uint64_t block, uint8_t* buf) {
  return Timed(/*write=*/false, block, buf, nullptr);
}

Status TimingDevice::Write(uint64_t block, const uint8_t* buf) {
  return Timed(/*write=*/true, block, nullptr, buf);
}

Status TimingDevice::Timed(bool write, uint64_t block, uint8_t* read_buf,
                           const uint8_t* write_buf) {
  auto io = [&] {
    return write ? inner_->Write(block, write_buf)
                 : inner_->Read(block, read_buf);
  };
  if (!Tracer::Get().armed()) {
    return io();
  }
  uint64_t start = NowNs();
  Status st = io();
  uint64_t ns = NowNs() - start;
  if (InVfsCall()) {
    times_.fg_ns.fetch_add(ns, std::memory_order_relaxed);
    Tracer::Get().ChargeDevice(ns);
  } else {
    times_.bg_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  return st;
}

void NetCounters::NoteSize(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sizes_.size() < kMaxSizes) {
    sizes_.push_back(static_cast<uint32_t>(n));
  }
}

std::vector<uint32_t> NetCounters::sizes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sizes_;
}

void NetCounters::Reset() {
  sends.store(0);
  send_ns.store(0);
  bytes_out.store(0);
  bytes_in.store(0);
  std::lock_guard<std::mutex> lock(mu_);
  sizes_.clear();
}

Status TimingStream::Send(const Bytes& message) {
  if (!Tracer::Get().armed()) {
    return inner_->Send(message);
  }
  uint64_t start = NowNs();
  Status st = inner_->Send(message);
  counters_->send_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
  counters_->sends.fetch_add(1, std::memory_order_relaxed);
  counters_->bytes_out.fetch_add(message.size(), std::memory_order_relaxed);
  counters_->NoteSize(message.size());
  return st;
}

Result<Bytes> TimingStream::Recv() {
  Result<Bytes> message = inner_->Recv();
  if (message.ok() && Tracer::Get().armed()) {
    counters_->bytes_in.fetch_add(message->size(), std::memory_order_relaxed);
    counters_->NoteSize(message->size());
  }
  return message;
}

Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return IoError("cannot write " + path);
  }
  uint64_t base = ~0ull;
  for (const Span& s : spans) {
    base = std::min(base, s.start_ns);
  }
  std::fprintf(f, "{\"names\": [");
  for (uint16_t n = 0; n < kSpanNameCount; ++n) {
    std::fprintf(f, "%s\"%s\"", n == 0 ? "" : ", ", SpanNameString(n).c_str());
  }
  std::fprintf(f, "],\n\"fields\": [\"name\", \"start_ns\", \"end_ns\", "
                  "\"parent\", \"trace_id\", \"thread\", \"device_ops\", "
                  "\"device_ns\"],\n\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    uint64_t end = s.end_ns >= s.start_ns ? s.end_ns : s.start_ns;
    std::fprintf(f, "[%u,%llu,%llu,%d,%llu,%u,%u,%llu]%s\n", s.name,
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(end - base), s.parent,
                 static_cast<unsigned long long>(s.trace_id), s.thread,
                 s.device_ops, static_cast<unsigned long long>(s.device_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  bool ok = std::fclose(f) == 0;
  return ok ? OkStatus() : IoError("short write to " + path);
}

}  // namespace discfs::bm
