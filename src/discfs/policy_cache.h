// Sharded LRU cache of policy-evaluation results ("a cache of requested
// operations and policy results", paper §5). Keyed by (requester key id,
// file handle); the cached value is the full RWX mask the requester holds
// on that handle, so any needed-permission test is a subset check.
//
// Scaling properties (the access-check hot path runs under a shared lock,
// so the cache synchronizes itself):
//
//  * Sharding — entries live in a ShardedLru (src/util/lru.h) of
//    ShardCount(capacity, 32) shards, so concurrent lookups from
//    different connections do not serialize on one lock, and small caches
//    keep exact global LRU order.
//  * Generation stamps — every entry records the generation counter of its
//    requester principal at insertion. Credential churn bumps only the
//    generations of principals reachable from the changed credential's
//    delegation chain (see DelegationIndex::AffectedRequesters); stale
//    entries are dropped lazily on their next lookup, and unaffected
//    entries survive. Generations are exact per-principal counters in a
//    mutex-striped table (PR 6; previously a fixed array of atomics
//    indexed by principal hash, where a slot collision could invalidate a
//    bystander's entries). The table bounds tracked principals per stripe
//    by rebasing: the stripe forgets its counters and raises the floor
//    above every generation it ever issued, so old stamps read as stale —
//    pure over-invalidation, never a stale grant.
//  * TTL — entries expire because conditions can be time-dependent
//    (time-of-day policies); expired entries are erased on lookup so they
//    do not pin capacity until eviction.
//
// InvalidateAll (policy change — rare) eagerly clears every shard.
#ifndef DISCFS_SRC_DISCFS_POLICY_CACHE_H_
#define DISCFS_SRC_DISCFS_POLICY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/util/lru.h"

namespace discfs {

class PolicyCache {
 public:
  struct Stats : LruStats {
    uint64_t invalidations = 0;  // entries dropped by flush or churn
  };

  // Invalidation telemetry (PR 4): how generation bumps reach this cache.
  // Benches and tests observe invalidation *scope* through this instead
  // of inferring it from hit rates.
  struct CoherenceStats {
    uint64_t local_bumps = 0;   // bumps from this server's own churn
    uint64_t remote_bumps = 0;  // bumps applied from peer coherence events
    // Stripe rebases: a gen stripe hit its tracked-principal bound and
    // over-invalidated everything it covered (bounded memory, not a
    // correctness event).
    uint64_t generation_rebases = 0;
  };

  // capacity 0 disables caching entirely (every query recomputes).
  PolicyCache(size_t capacity, int64_t ttl_seconds);

  // Returns the cached permission mask, or nullopt on miss, expiry, or a
  // stale generation (the latter two erase the entry).
  std::optional<uint32_t> Get(const std::string& key_id, uint32_t inode,
                              int64_t now);

  void Put(const std::string& key_id, uint32_t inode, uint32_t mask,
           int64_t now);

  // Flush everything (local policy changed).
  void InvalidateAll();

  // Invalidates every entry cached for `key_id` (lazily, via its
  // generation counter). Lock-free. Safe concurrently with Get; a Put
  // stamps the generation current at Put time, so the caller must ensure
  // no compute-then-Put cycle straddles an invalidation (DiscfsServer does:
  // queries Put under the shared lock, invalidation runs exclusive).
  // `remote` marks a bump driven by a peer server's coherence event
  // rather than local churn; coherence_stats() counts the two apart.
  void InvalidatePrincipal(const std::string& key_id, bool remote = false);

  // Resident entries; may transiently count generation-stale entries that
  // have not been touched since their principal was invalidated.
  size_t size() const { return entries_.size(); }
  size_t shard_count() const { return entries_.shard_count(); }
  Stats stats() const;
  CoherenceStats coherence_stats() const;

 private:
  struct Key {
    std::string key_id;
    uint32_t inode;
    bool operator==(const Key& o) const {
      return inode == o.inode && key_id == o.key_id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<std::string>()(k.key_id) * 1000003u + k.inode;
    }
  };
  struct Entry {
    uint32_t mask;
    int64_t expires_at;
    uint64_t generation;  // the principal's generation at Put time
  };

  // Exact per-principal generation counters, striped to keep bump/lookup
  // contention off a single lock. `base` is the generation reported for
  // any principal the stripe does not track; rebasing (at the tracked
  // bound) raises it above `high`, the highest generation ever issued, so
  // every outstanding stamp in the stripe goes stale at once.
  struct GenStripe {
    mutable std::mutex mu;
    std::unordered_map<std::string, uint64_t> gens;
    uint64_t base = 0;  // guarded by mu
    uint64_t high = 0;  // guarded by mu
  };

  static constexpr size_t kGenStripes = 16;
  // Principals tracked per stripe before a rebase; bounds generation-table
  // memory regardless of how many distinct principals a server ever sees.
  static constexpr size_t kMaxTrackedPerStripe = 4096;

  GenStripe& StripeFor(const std::string& key_id);
  // The principal's current generation (its stripe's base if untracked).
  uint64_t CurrentGen(const std::string& key_id);

  ShardedLru<Key, Entry, KeyHash> entries_;
  int64_t ttl_seconds_;
  std::unique_ptr<GenStripe[]> gen_stripes_;
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> local_bumps_{0};
  std::atomic<uint64_t> remote_bumps_{0};
  std::atomic<uint64_t> generation_rebases_{0};
};

}  // namespace discfs

#endif  // DISCFS_SRC_DISCFS_POLICY_CACHE_H_
