// Sharded LRU set of signatures that have already verified, keyed by
// H(authorizer key ‖ message digest ‖ signature). A hit proves the exact
// same (key, digest, sig) triple passed a full DSA verify earlier, so a
// re-submitted or replayed credential skips the double-exponentiation
// entirely. Only *successful* verifies are inserted: a bit-flipped
// signature or digest hashes to a different key, misses, and takes the
// full (failing) verify path — the cache can never turn a rejection into
// an acceptance.
//
// Shard design follows PolicyCache: entries hash over N mutex+LRU shards
// (~32 entries/shard, power of two, at most 16 shards; 1 shard for small
// capacities so exact LRU semantics hold). All methods are internally
// synchronized — admission calls Contains/Insert with no outer lock held.
#ifndef DISCFS_SRC_KEYNOTE_SIGCACHE_H_
#define DISCFS_SRC_KEYNOTE_SIGCACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/bytes.h"

namespace discfs::keynote {

class VerifiedSignatureCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  // capacity 0 disables caching (every Contains misses, Insert drops).
  // The shard count derives from the capacity.
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

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  Stats stats() const;  // aggregated over shards

 private:
  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<std::string>::iterator> entries;
    Stats stats;
  };

  Shard& ShardFor(const std::string& key);

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_SIGCACHE_H_
