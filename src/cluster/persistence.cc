#include "src/cluster/persistence.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "src/cluster/protocol.h"
#include "src/util/strings.h"
#include "src/wire/xdr.h"

namespace discfs::cluster {
namespace {

constexpr uint32_t kRecordMagic = 0x43524A31;    // "CRJ1"
constexpr uint32_t kSnapshotMagic = 0x43534E31;  // "CSN1"
// v2: SequencedEvent grew an unconditional trace_id field (PR 9). Old
// journals/snapshots fail the version check and are treated as absent
// state — the node starts a fresh incarnation and peers flush once, the
// same recovery path as a corrupt journal.
constexpr uint32_t kFormatVersion = 2;
// The header record's origin field; never a valid node id (ids are
// KeyNote key strings).
constexpr char kHeaderOrigin[] = "\x01journal-header";
constexpr size_t kMaxFramePayload = 1 << 24;

const char* JournalName() { return "journal.log"; }
const char* SnapshotName() { return "snapshot.bin"; }
const char* CleanMarkerName() { return "clean"; }

std::string PathJoin(const std::string& dir, const char* name) {
  return dir + "/" + name;
}

// CRC-32 (IEEE 802.3, reflected), table-driven — the journal's per-frame
// corruption check. No external deps on purpose.
uint32_t Crc32(const uint8_t* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void PutU32Be(Bytes& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v));
}

uint32_t GetU32Be(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

// Frame = magic ‖ payload_len ‖ crc32(payload) ‖ payload.
void AppendFrame(Bytes& out, uint32_t magic, const Bytes& payload) {
  PutU32Be(out, magic);
  PutU32Be(out, static_cast<uint32_t>(payload.size()));
  PutU32Be(out, Crc32(payload.data(), payload.size()));
  Append(out, payload);
}

// Parses one frame at `pos`; returns false (without advancing) when the
// remaining bytes do not hold a complete, checksummed frame — the torn or
// corrupt tail recovery truncates at.
bool ReadFrame(const Bytes& data, size_t* pos, uint32_t expected_magic,
               Bytes* payload) {
  if (data.size() - *pos < 12) {
    return false;
  }
  const uint8_t* p = data.data() + *pos;
  if (GetU32Be(p) != expected_magic) {
    return false;
  }
  uint32_t len = GetU32Be(p + 4);
  uint32_t crc = GetU32Be(p + 8);
  if (len > kMaxFramePayload || data.size() - *pos - 12 < len) {
    return false;
  }
  if (Crc32(p + 12, len) != crc) {
    return false;
  }
  payload->assign(p + 12, p + 12 + len);
  *pos += 12 + static_cast<size_t>(len);
  return true;
}

Bytes EncodeRecordPayload(const CoherenceStore::Record& record) {
  XdrWriter w;
  w.PutString(record.origin);
  w.PutU64(record.incarnation);
  EncodeSequencedEvent(w, record.entry);
  return w.Take();
}

Result<CoherenceStore::Record> DecodeRecordPayload(const Bytes& payload) {
  XdrReader r(payload);
  CoherenceStore::Record record;
  ASSIGN_OR_RETURN(record.origin, r.GetString());
  ASSIGN_OR_RETURN(record.incarnation, r.GetU64());
  ASSIGN_OR_RETURN(record.entry, DecodeSequencedEvent(r));
  return record;
}

Bytes EncodeHeaderPayload(FsyncPolicy fsync) {
  XdrWriter w;
  w.PutString(kHeaderOrigin);
  w.PutU32(kFormatVersion);
  w.PutU32(static_cast<uint32_t>(fsync));
  return w.Take();
}

Result<Bytes> ReadWholeFile(const std::string& path, bool* exists) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    *exists = errno != ENOENT;
    if (errno == ENOENT) {
      return Bytes();
    }
    return UnavailableError(
        StrPrintf("open %s: %s", path.c_str(), strerror(errno)));
  }
  *exists = true;
  Bytes out;
  uint8_t buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      return UnavailableError(
          StrPrintf("read %s: %s", path.c_str(), strerror(errno)));
    }
    if (n == 0) {
      break;
    }
    Append(out, buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

// write-to-temp, optional fsync, rename: readers see either the old file
// or the complete new one, never a partial write.
Status ReplaceFile(const std::string& path, const Bytes& data, bool sync) {
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return UnavailableError(
        StrPrintf("open %s: %s", tmp.c_str(), strerror(errno)));
  }
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return UnavailableError(
          StrPrintf("write %s: %s", tmp.c_str(), strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return UnavailableError(StrPrintf("fsync %s: %s", tmp.c_str(),
                                      strerror(errno)));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return UnavailableError(
        StrPrintf("close %s: %s", tmp.c_str(), strerror(errno)));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return UnavailableError(StrPrintf("rename %s -> %s: %s", tmp.c_str(),
                                      path.c_str(), strerror(errno)));
  }
  return OkStatus();
}

}  // namespace

CoherenceStore::CoherenceStore(Options options)
    : options_(std::move(options)) {}

CoherenceStore::~CoherenceStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
}

Result<std::unique_ptr<CoherenceStore>> CoherenceStore::Open(
    Options options, Recovered* recovered) {
  *recovered = Recovered{};
  if (options.dir.empty() || options.node_id.empty()) {
    return InvalidArgumentError("coherence store needs a dir and node id");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return UnavailableError(StrPrintf("mkdir %s: %s", options.dir.c_str(),
                                      strerror(errno)));
  }
  auto store =
      std::unique_ptr<CoherenceStore>(new CoherenceStore(std::move(options)));
  const Options& opts = store->options_;

  // The marker is consumed whether or not it was honored: this run is now
  // live, and only its own shutdown snapshot may re-assert cleanliness.
  std::string marker = PathJoin(opts.dir, CleanMarkerName());
  bool had_marker = ::unlink(marker.c_str()) == 0;

  // --- snapshot ---
  bool snap_exists = false;
  ASSIGN_OR_RETURN(Bytes snap,
                   ReadWholeFile(PathJoin(opts.dir, SnapshotName()),
                                 &snap_exists));
  bool snap_ok = false;
  if (!snap.empty()) {
    size_t pos = 0;
    Bytes payload;
    if (ReadFrame(snap, &pos, kSnapshotMagic, &payload)) {
      XdrReader r(payload);
      auto version = r.GetU32();
      if (version.ok() && *version == kFormatVersion) {
        auto inc = r.GetU64();
        auto head = r.GetU64();
        auto count = r.GetU32();
        snap_ok = inc.ok() && head.ok() && count.ok();
        if (snap_ok) {
          recovered->incarnation = *inc;
          recovered->head_seq = *head;
          for (uint32_t i = 0; snap_ok && i < *count; ++i) {
            auto origin = r.GetString();
            auto oinc = r.GetU64();
            auto cursor = r.GetU64();
            snap_ok = origin.ok() && oinc.ok() && cursor.ok();
            if (snap_ok) {
              recovered->cursors[*origin] = RecoveredOrigin{*oinc, *cursor};
            }
          }
          auto state = r.GetOpaque();
          snap_ok = snap_ok && state.ok();
          if (snap_ok) {
            recovered->server_state = std::move(state).value();
          }
        }
      }
    }
    if (!snap_ok) {
      *recovered = Recovered{};  // a corrupt snapshot recovers nothing
    }
  }

  // --- journal ---
  bool journal_exists = false;
  ASSIGN_OR_RETURN(Bytes journal,
                   ReadWholeFile(PathJoin(opts.dir, JournalName()),
                                 &journal_exists));
  size_t pos = 0;
  bool saw_header = false;
  Bytes payload;
  while (ReadFrame(journal, &pos, kRecordMagic, &payload)) {
    // The header frame shares the record magic but not the record layout
    // (origin ‖ version ‖ fsync policy), so classify by origin before
    // attempting the record decode.
    XdrReader peek(payload);
    auto origin = peek.GetString();
    if (!origin.ok()) {
      break;  // structurally valid frame, bad payload: truncate here
    }
    if (*origin == kHeaderOrigin) {
      if (!saw_header) {
        saw_header = true;
        auto version = peek.GetU32();
        auto fsync = peek.GetU32();
        recovered->durable_journal =
            version.ok() && *version == kFormatVersion && fsync.ok() &&
            *fsync == static_cast<uint32_t>(FsyncPolicy::kAlways);
      }
      continue;
    }
    auto record = DecodeRecordPayload(payload);
    if (!record.ok()) {
      break;
    }
    recovered->records.push_back(std::move(record).value());
  }
  recovered->torn_tail = pos < journal.size();

  // Own records extend the recoverable head past the snapshot.
  for (const Record& record : recovered->records) {
    if (record.origin == opts.node_id) {
      if (recovered->incarnation == 0) {
        recovered->incarnation = record.incarnation;
      }
      if (record.entry.seq > recovered->head_seq) {
        recovered->head_seq = record.entry.seq;
      }
    }
  }

  recovered->had_state =
      snap_ok || !recovered->records.empty() || recovered->torn_tail;
  recovered->clean = had_marker && snap_ok && !recovered->torn_tail;

  {
    std::lock_guard<std::mutex> lock(store->mu_);
    RETURN_IF_ERROR(store->OpenJournalLocked(/*truncate=*/false));
    if (!journal_exists || !saw_header || recovered->torn_tail) {
      // Fresh journal, pre-v1 file, or a torn tail: rewrite so appends
      // never land after garbage. The recovered prefix is re-framed.
      Bytes fresh;
      AppendFrame(fresh, kRecordMagic, EncodeHeaderPayload(opts.fsync));
      for (const Record& record : recovered->records) {
        AppendFrame(fresh, kRecordMagic, EncodeRecordPayload(record));
      }
      RETURN_IF_ERROR(ReplaceFile(PathJoin(opts.dir, JournalName()), fresh,
                                  opts.fsync == FsyncPolicy::kAlways));
      RETURN_IF_ERROR(store->OpenJournalLocked(/*truncate=*/false));
    }
  }
  return store;
}

Status CoherenceStore::OpenJournalLocked(bool truncate) {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
  if (truncate) {
    flags |= O_TRUNC;
  }
  std::string path = PathJoin(options_.dir, JournalName());
  journal_fd_ = ::open(path.c_str(), flags, 0644);
  if (journal_fd_ < 0) {
    return UnavailableError(
        StrPrintf("open %s: %s", path.c_str(), strerror(errno)));
  }
  return OkStatus();
}

Status CoherenceStore::FlushLocked(const Bytes& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(journal_fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      return UnavailableError(
          StrPrintf("journal write: %s", strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  if (options_.fsync == FsyncPolicy::kAlways && ::fsync(journal_fd_) != 0) {
    return UnavailableError(StrPrintf("journal fsync: %s", strerror(errno)));
  }
  return OkStatus();
}

Status CoherenceStore::Append(const Record& record) {
  Bytes frame;
  AppendFrame(frame, kRecordMagic, EncodeRecordPayload(record));
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked(frame);
}

Status CoherenceStore::AppendBatch(const std::vector<Record>& records) {
  if (records.empty()) {
    return OkStatus();
  }
  Bytes frames;
  for (const Record& record : records) {
    AppendFrame(frames, kRecordMagic, EncodeRecordPayload(record));
  }
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked(frames);
}

Status CoherenceStore::WriteSnapshot(
    const SnapshotData& data, const std::vector<SequencedEvent>& own_tail,
    bool clean) {
  XdrWriter w;
  w.PutU32(kFormatVersion);
  w.PutU64(data.incarnation);
  w.PutU64(data.head_seq);
  w.PutU32(static_cast<uint32_t>(data.cursors.size()));
  for (const auto& [origin, state] : data.cursors) {
    w.PutString(origin);
    w.PutU64(state.incarnation);
    w.PutU64(state.cursor);
  }
  w.PutOpaque(data.server_state);
  Bytes snapshot;
  AppendFrame(snapshot, kSnapshotMagic, w.Take());

  Bytes journal;
  AppendFrame(journal, kRecordMagic, EncodeHeaderPayload(options_.fsync));
  size_t first = own_tail.size() > options_.own_retain
                     ? own_tail.size() - options_.own_retain
                     : 0;
  Record record;
  record.origin = options_.node_id;
  record.incarnation = data.incarnation;
  for (size_t i = first; i < own_tail.size(); ++i) {
    record.entry = own_tail[i];
    AppendFrame(journal, kRecordMagic, EncodeRecordPayload(record));
  }

  const bool sync = clean || options_.fsync == FsyncPolicy::kAlways;
  std::lock_guard<std::mutex> lock(mu_);
  // Snapshot before journal rewrite (see header comment on crash safety).
  RETURN_IF_ERROR(
      ReplaceFile(PathJoin(options_.dir, SnapshotName()), snapshot, sync));
  RETURN_IF_ERROR(
      ReplaceFile(PathJoin(options_.dir, JournalName()), journal, sync));
  RETURN_IF_ERROR(OpenJournalLocked(/*truncate=*/false));
  ++snapshots_written_;
  if (clean) {
    RETURN_IF_ERROR(ReplaceFile(PathJoin(options_.dir, CleanMarkerName()),
                                ToBytes("clean\n"), sync));
  }
  return OkStatus();
}

Status CoherenceStore::ResetFresh() {
  std::lock_guard<std::mutex> lock(mu_);
  ::unlink(PathJoin(options_.dir, SnapshotName()).c_str());
  ::unlink(PathJoin(options_.dir, CleanMarkerName()).c_str());
  Bytes journal;
  AppendFrame(journal, kRecordMagic, EncodeHeaderPayload(options_.fsync));
  RETURN_IF_ERROR(ReplaceFile(PathJoin(options_.dir, JournalName()), journal,
                              options_.fsync == FsyncPolicy::kAlways));
  return OpenJournalLocked(/*truncate=*/false);
}

uint64_t CoherenceStore::snapshots_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_written_;
}

}  // namespace discfs::cluster
