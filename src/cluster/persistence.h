// Durable storage for the coherence fabric (PR 6): an append-only journal
// of every churn event this node published or applied, plus an atomically
// replaced snapshot of the derived state (per-origin receive cursors and
// the server's serialized revocation entries). A restarted server replays
// journal + snapshot and resumes its sequence space under the *same*
// incarnation id, so peers keep their cursors and nothing cluster-wide is
// flushed; only genuinely lost state (an unclean crash without a durable
// journal) draws a fresh incarnation and falls back to PR 4's
// reset-and-flush semantics.
//
// On-disk layout (all under one per-node directory):
//
//   journal.log   framed records, append-only. Starts with a header
//                 record naming the fsync policy it was written under;
//                 every record carries a CRC32 and a torn/corrupt tail is
//                 truncated at recovery (corruption-tolerant: everything
//                 before the first bad frame is kept).
//   snapshot.bin  one framed blob: incarnation, own head, per-origin
//                 {incarnation, cursor}, opaque server state. Replaced by
//                 write-to-temp + rename, never updated in place.
//   clean         marker written after the final shutdown snapshot;
//                 consumed (deleted) at open. Present = the previous run
//                 shut down cleanly and snapshot+journal are complete.
//
// Incarnation retention rule: a recovered incarnation is kept when the
// previous run shut down cleanly, or when the journal was written under
// FsyncPolicy::kAlways (records are durable before events become visible
// to peer senders, so a torn final record was never pushed and truncating
// it is safe). Otherwise pushed events may be lost from the journal and
// resuming the old sequence space could silently reuse sequence numbers a
// peer already deduplicates — the fabric draws a fresh incarnation
// instead, which peers detect via Hello. Local replay (revocation
// mirroring, cursor restore) happens in every case; only the outbound
// sequence space is sacrificed.
#ifndef DISCFS_SRC_CLUSTER_PERSISTENCE_H_
#define DISCFS_SRC_CLUSTER_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/event.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace discfs::cluster {

enum class FsyncPolicy : uint32_t {
  // write() only: state survives process death (page cache), not power
  // loss. Unclean crashes lose the incarnation (peers flush once).
  kNone = 0,
  // fsync after every journal append and every snapshot/marker replace:
  // unclean crashes still recover by replay under the same incarnation.
  kAlways = 1,
};

class CoherenceStore {
 public:
  struct Options {
    std::string dir;      // created if missing
    std::string node_id;  // own origin stamp (classifies journal records)
    FsyncPolicy fsync = FsyncPolicy::kNone;
    // Own-origin records retained across a journal rewrite; mirrors the
    // in-memory log capacity so a recovered log can replay as deep.
    size_t own_retain = 4096;
  };

  // One journal entry: the event plus who assigned its sequence number.
  struct Record {
    std::string origin;
    uint64_t incarnation = 0;
    SequencedEvent entry;
  };

  struct RecoveredOrigin {
    uint64_t incarnation = 0;
    uint64_t cursor = 0;
  };

  struct Recovered {
    bool had_state = false;  // any usable snapshot or journal record
    bool clean = false;      // previous run wrote the shutdown marker
    bool torn_tail = false;  // journal truncated at a corrupt frame
    // The journal header says records were fsynced before use.
    bool durable_journal = false;
    uint64_t incarnation = 0;  // 0 = nothing recovered
    uint64_t head_seq = 0;     // max(snapshot head, last own record seq)
    Bytes server_state;        // snapshot's opaque blob (revocations)
    // Per-origin cursors as of the snapshot; journal replay extends them.
    std::unordered_map<std::string, RecoveredOrigin> cursors;
    // Every journal record after the snapshot, in journaled order.
    std::vector<Record> records;

    // Whether the outbound sequence space may resume under the recovered
    // incarnation (see the retention rule above).
    bool keep_incarnation() const {
      return incarnation != 0 && (clean || durable_journal);
    }
  };

  struct SnapshotData {
    uint64_t incarnation = 0;
    uint64_t head_seq = 0;
    std::unordered_map<std::string, RecoveredOrigin> cursors;
    Bytes server_state;
  };

  // Opens (creating the directory if needed), recovers whatever is on
  // disk into *recovered, consumes the clean marker, and leaves the
  // journal open for appending.
  static Result<std::unique_ptr<CoherenceStore>> Open(Options options,
                                                      Recovered* recovered);
  ~CoherenceStore();

  CoherenceStore(const CoherenceStore&) = delete;
  CoherenceStore& operator=(const CoherenceStore&) = delete;

  // Appends records to the journal (one write, one fsync under kAlways).
  // Thread-safe; callers must externally order records of one origin.
  Status Append(const Record& record);
  Status AppendBatch(const std::vector<Record>& records);

  // Atomically replaces the snapshot, then rewrites the journal down to
  // the retained own-origin tail (remote records before the snapshot's
  // cursors are superseded by it). Write order — snapshot first, journal
  // second — makes a crash between the two renames safe: recovery replays
  // the stale journal against the newer snapshot, which only re-applies
  // idempotent effects and never regresses a cursor. `clean` additionally
  // writes the shutdown marker (final snapshot only).
  Status WriteSnapshot(const SnapshotData& data,
                       const std::vector<SequencedEvent>& own_tail,
                       bool clean);

  // Discards recovered state on disk (fresh-incarnation start): truncates
  // the journal and removes the snapshot. Recovered contents already read
  // stay valid in memory.
  Status ResetFresh();

  uint64_t snapshots_written() const;
  const std::string& dir() const { return options_.dir; }

 private:
  explicit CoherenceStore(Options options);

  Status OpenJournalLocked(bool truncate);
  Status FlushLocked(const Bytes& data);

  const Options options_;
  mutable std::mutex mu_;
  int journal_fd_ = -1;                // guarded by mu_
  uint64_t snapshots_written_ = 0;     // guarded by mu_
};

}  // namespace discfs::cluster

#endif  // DISCFS_SRC_CLUSTER_PERSISTENCE_H_
