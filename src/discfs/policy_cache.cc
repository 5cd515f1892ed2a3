#include "src/discfs/policy_cache.h"

namespace discfs {
namespace {

// Entries per policy-cache shard, at least.
constexpr size_t kMinPerShard = 32;

}  // namespace

PolicyCache::PolicyCache(size_t capacity, int64_t ttl_seconds)
    : entries_(capacity, kMinPerShard),
      ttl_seconds_(ttl_seconds),
      gen_stripes_(new GenStripe[kGenStripes]) {}

PolicyCache::GenStripe& PolicyCache::StripeFor(const std::string& key_id) {
  return gen_stripes_[std::hash<std::string>()(key_id) % kGenStripes];
}

uint64_t PolicyCache::CurrentGen(const std::string& key_id) {
  GenStripe& stripe = StripeFor(key_id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.gens.find(key_id);
  return it != stripe.gens.end() ? it->second : stripe.base;
}

std::optional<uint32_t> PolicyCache::Get(const std::string& key_id,
                                         uint32_t inode, int64_t now) {
  std::optional<uint32_t> mask;
  entries_.Find(Key{key_id, inode}, [&](const Entry& entry) {
    // Under the shard lock. Lock order: shard lock before stripe.mu. A
    // bump takes only the stripe lock, so there is no cycle.
    if (entry.generation != CurrentGen(key_id)) {
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (now >= entry.expires_at) {
      return false;
    }
    mask = entry.mask;
    return true;
  });
  return mask;
}

void PolicyCache::Put(const std::string& key_id, uint32_t inode,
                      uint32_t mask, int64_t now) {
  uint64_t gen = CurrentGen(key_id);
  entries_.Put(Key{key_id, inode}, Entry{mask, now + ttl_seconds_, gen});
}

void PolicyCache::InvalidateAll() {
  invalidations_.fetch_add(entries_.Clear(), std::memory_order_relaxed);
}

void PolicyCache::InvalidatePrincipal(const std::string& key_id,
                                      bool remote) {
  (remote ? remote_bumps_ : local_bumps_)
      .fetch_add(1, std::memory_order_relaxed);
  GenStripe& stripe = StripeFor(key_id);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.gens.find(key_id);
  if (it == stripe.gens.end() && stripe.gens.size() >= kMaxTrackedPerStripe) {
    // Rebase rather than evict-to-base: dropping a tracked principal back
    // to `base` could *lower* its current generation onto a value an old
    // cache entry was stamped with, serving a stale grant. Raising the
    // floor above every generation the stripe ever issued makes all
    // outstanding stamps stale instead — over-invalidation, never
    // staleness.
    stripe.base = stripe.high + 1;
    stripe.high = stripe.base;
    stripe.gens.clear();
    generation_rebases_.fetch_add(1, std::memory_order_relaxed);
    it = stripe.gens.end();
  }
  uint64_t next = (it != stripe.gens.end() ? it->second : stripe.base) + 1;
  stripe.gens[key_id] = next;
  if (next > stripe.high) {
    stripe.high = next;
  }
}

PolicyCache::CoherenceStats PolicyCache::coherence_stats() const {
  CoherenceStats s;
  s.local_bumps = local_bumps_.load(std::memory_order_relaxed);
  s.remote_bumps = remote_bumps_.load(std::memory_order_relaxed);
  s.generation_rebases = generation_rebases_.load(std::memory_order_relaxed);
  return s;
}

PolicyCache::Stats PolicyCache::stats() const {
  return Stats{entries_.stats(),
               invalidations_.load(std::memory_order_relaxed)};
}

}  // namespace discfs
