// Sharded LRU set of signatures that have already verified, keyed by
// H(authorizer key ‖ message digest ‖ signature). A hit proves the exact
// same (key, digest, sig) triple passed a full DSA verify earlier, so a
// re-submitted or replayed credential skips the double-exponentiation
// entirely. Only *successful* verifies are inserted: a bit-flipped
// signature or digest hashes to a different key, misses, and takes the
// full (failing) verify path — the cache can never turn a rejection into
// an acceptance.
//
// The set is a ShardedLru (src/util/lru.h) of ShardCount(capacity, 32)
// shards, so it is internally synchronized: admission calls
// Contains/Insert with no outer lock held.
#ifndef DISCFS_SRC_KEYNOTE_SIGCACHE_H_
#define DISCFS_SRC_KEYNOTE_SIGCACHE_H_

#include <cstdint>
#include <string>

#include "src/util/bytes.h"
#include "src/util/lru.h"

namespace discfs::keynote {

class VerifiedSignatureCache {
 public:
  using Stats = LruStats;

  // capacity 0 disables caching (every Contains misses, Insert drops).
  explicit VerifiedSignatureCache(size_t capacity);

  // Digest of one verification instance: SHA-256 over the authorizer key
  // string, a digest of the credential content (canonical, so equivalent
  // re-serializations share a key), and the signature encoding
  // (length-delimited, so no concatenation ambiguity).
  static Bytes MakeKey(const std::string& authorizer, const Bytes& digest,
                       const std::string& signature);

  // True (and refreshes LRU position) when this exact triple verified
  // before. Counts a hit or miss.
  bool Contains(const Bytes& key);

  // Records a successful verification. Idempotent.
  void Insert(const Bytes& key);

  size_t size() const { return entries_.size(); }
  size_t shard_count() const { return entries_.shard_count(); }
  Stats stats() const { return entries_.stats(); }

 private:
  ShardedLru<std::string, bool> entries_;  // the value is unused
};

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_SIGCACHE_H_
