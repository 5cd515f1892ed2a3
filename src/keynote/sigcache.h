// Sharded LRU set of credentials whose signatures have already verified,
// keyed by Assertion::digest(): the SHA-256 of the canonical text followed
// by the signature value, computed once at parse (its first 16 hex digits
// are Assertion::Id()). A hit proves a credential with the same canonical
// content and this exact signature passed a full DSA verify earlier, so a
// re-submitted or replayed credential skips the exponentiations entirely.
// Only *successful* verifies are inserted: a bit-flipped signature or body
// hashes to a different key, misses, and takes the full (failing) verify
// path, so the cache can never turn a rejection into an acceptance.
//
// The plain concatenation cannot make two credentials share a key. Every
// canonical text ends in a newline, no verified signature contains one,
// and VerifySignature checks the algorithm prefix before the lookup. If
// two (canonical, signature) pairs concatenated to the same bytes with
// different canonical texts, the shorter text would be a prefix of the
// longer, so the signature paired with it would begin with the rest of the
// longer text, newline included. That signature never verified, so it is
// not the cached one; and as the looked-up one, the text before its last
// ':' is not an algorithm prefix, so it is rejected before the lookup.
//
// The set is a ShardedLru (src/util/lru.h) of ShardCount(capacity, 32)
// shards with a fixed 32-byte key, so it is internally synchronized and a
// lookup allocates nothing: admission calls Contains/Insert with no outer
// lock held.
#ifndef DISCFS_SRC_KEYNOTE_SIGCACHE_H_
#define DISCFS_SRC_KEYNOTE_SIGCACHE_H_

#include <cstdint>

#include "src/crypto/sha.h"
#include "src/util/lru.h"

namespace discfs::keynote {

class VerifiedSignatureCache {
 public:
  using Stats = LruStats;

  // capacity 0 disables caching (every Contains misses, Insert drops).
  explicit VerifiedSignatureCache(size_t capacity);

  // True (and refreshes LRU position) when the credential with this
  // digest verified before. Counts a hit or miss.
  bool Contains(const Sha256Digest& key);

  // Records a successful verification. Idempotent.
  void Insert(const Sha256Digest& key);

  size_t size() const { return entries_.size(); }
  size_t shard_count() const { return entries_.shard_count(); }
  Stats stats() const { return entries_.stats(); }

 private:
  ShardedLru<Sha256Digest, bool, Sha256Digest::Hash>
      entries_;  // the value is unused
};

}  // namespace discfs::keynote

#endif  // DISCFS_SRC_KEYNOTE_SIGCACHE_H_
