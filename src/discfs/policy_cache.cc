#include "src/discfs/policy_cache.h"

namespace discfs {
namespace {

// Largest power of two <= x (x >= 1).
size_t FloorPow2(size_t x) {
  size_t p = 1;
  while (p * 2 <= x) {
    p *= 2;
  }
  return p;
}

size_t DefaultShards(size_t capacity) {
  if (capacity < 64) {
    return 1;  // small caches keep exact global LRU order
  }
  size_t shards = FloorPow2(capacity / 32);
  return shards > 16 ? 16 : shards;
}

}  // namespace

PolicyCache::PolicyCache(size_t capacity, int64_t ttl_seconds)
    : capacity_(capacity),
      ttl_seconds_(ttl_seconds),
      gen_stripes_(new GenStripe[kGenStripes]) {
  size_t shards = DefaultShards(capacity);
  per_shard_capacity_ = capacity / shards;
  if (capacity > 0 && per_shard_capacity_ == 0) {
    per_shard_capacity_ = 1;
  }
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PolicyCache::Shard& PolicyCache::ShardFor(const Key& key) {
  return *shards_[KeyHash()(key) % shards_.size()];
}

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
  Key key{key_id, inode};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Lock order: shard.mu before stripe.mu. A bump takes only the stripe
  // lock, so there is no cycle.
  uint64_t current_gen = CurrentGen(key_id);
  if (capacity_ == 0) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  Node& node = *it->second;
  if (node.generation != current_gen || now >= node.expires_at) {
    if (node.generation != current_gen) {
      ++shard.stats.invalidations;
    }
    shard.lru.erase(it->second);
    shard.entries.erase(it);
    ++shard.stats.misses;
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  return node.mask;
}

void PolicyCache::Put(const std::string& key_id, uint32_t inode,
                      uint32_t mask, int64_t now) {
  if (capacity_ == 0) {
    return;
  }
  Key key{key_id, inode};
  Shard& shard = ShardFor(key);
  uint64_t gen = CurrentGen(key_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    Node& node = *it->second;
    node.mask = mask;
    node.expires_at = now + ttl_seconds_;
    node.generation = gen;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  while (shard.entries.size() >= per_shard_capacity_ &&
         !shard.entries.empty()) {
    const Node& victim = shard.lru.back();
    shard.entries.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
  shard.lru.push_front(Node{std::move(key), mask, now + ttl_seconds_, gen});
  shard.entries.emplace(shard.lru.front().key, shard.lru.begin());
}

void PolicyCache::InvalidateAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->stats.invalidations += shard->entries.size();
    shard->entries.clear();
    shard->lru.clear();
  }
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

size_t PolicyCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries.size();
  }
  return total;
}

PolicyCache::CoherenceStats PolicyCache::coherence_stats() const {
  CoherenceStats s;
  s.local_bumps = local_bumps_.load(std::memory_order_relaxed);
  s.remote_bumps = remote_bumps_.load(std::memory_order_relaxed);
  s.generation_rebases = generation_rebases_.load(std::memory_order_relaxed);
  return s;
}

PolicyCache::Stats PolicyCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.invalidations += shard->stats.invalidations;
  }
  return total;
}

}  // namespace discfs
